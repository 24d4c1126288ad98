"""Monomial ideal arithmetic in numerical semigroup rings, with oracles."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import random
from functools import reduce
from math import gcd

import pytest

from semistar.algebra import AlgebraError
from semistar.numsgr import (
    MAX_FROBENIUS,
    MAX_GENERATORS,
    NumericalSemigroup,
    enumerate_ideals,
    hull_extension,
    ideal_colon,
    ideal_intersect,
    ideal_leq,
    ideal_membership,
    ideal_mul,
    ideal_normalize,
    ideal_shift,
    ideal_sum,
    maximal_ideal,
    ring_ideal,
    v_closure,
)
from oracles import BitsetOracle, enumerate_ideals_reference, two_colon_v

S345 = NumericalSemigroup.create([3, 4, 5])
S23 = NumericalSemigroup.create([2, 3])
S469 = NumericalSemigroup.create([4, 6, 9])


def test_semigroup_construction():
    assert S345.gaps == (1, 2) and S345.frobenius == 2
    assert S23.gaps == (1,) and S23.frobenius == 1
    assert S469.gaps == (1, 2, 3, 5, 7, 11) and S469.frobenius == 11
    assert S345.member(0) and not S345.member(2) and S345.member(97)
    with pytest.raises(AlgebraError):
        NumericalSemigroup.create([4, 6])
    with pytest.raises(AlgebraError):
        NumericalSemigroup.create([0, 3])


@pytest.mark.parametrize("gens", [[0, 3, 4], [-2, 3, 4], []], ids=["zero", "negative", "empty"])
def test_nonpositive_generators_are_refused_as_such(gens):
    # gcd 1 apart from the bad entry, so only the positivity check can refuse them
    with pytest.raises(AlgebraError, match="generators must be positive"):
        NumericalSemigroup.create(gens)


def test_generator_cap_boundary():
    assert MAX_GENERATORS == 64
    assert len(NumericalSemigroup.create(range(64, 128)).generators) == 64
    with pytest.raises(AlgebraError, match="^65 generators, above the cap 64$"):
        NumericalSemigroup.create(range(64, 129))


def test_frobenius_from_the_apery_set_and_its_cap():
    assert NumericalSemigroup.create([1]).frobenius == -1
    assert NumericalSemigroup.create([173, 175]).frobenius == 173 * 175 - 173 - 175
    assert NumericalSemigroup.create([2, 3, 10**9]).gaps == (1,)  # a huge redundant generator
    for gens in ([175, 177], [30002, 30003], [10007, 10009]):
        with pytest.raises(AlgebraError, match=f"above the cap {MAX_FROBENIUS}"):
            NumericalSemigroup.create(gens)


def test_normalize():
    assert ideal_normalize(S345, [3, 4, 6, 7]).gens == (3, 4)
    assert ideal_normalize(S345, [0]).gens == (0,)
    assert ideal_normalize(S345, [3, 6, 9]).gens == (3,)
    with pytest.raises(AlgebraError):
        ideal_normalize(S345, [])


def test_worked_example_chain():
    d = ring_ideal(S345)
    e = ideal_normalize(S345, [3, 4])
    f = ideal_normalize(S345, [3, 5])
    m = maximal_ideal(S345)
    assert ideal_sum(e, f) == m
    assert ideal_intersect(e, f).gens == (3,)
    assert v_closure(e) == m
    assert v_closure(f) == m
    assert v_closure(ideal_normalize(S345, [3])).gens == (3,)
    assert ideal_colon(d, e).gens == (0, 1, 2)
    assert ideal_mul(e, d) == e
    assert ideal_colon(e, d) == e
    assert not ideal_membership(e, 5)
    assert all(ideal_membership(e, g) for g in e.gens)


def test_intersect_of_principals():
    a = ideal_normalize(S345, [3])
    b = ideal_normalize(S345, [4])
    assert ideal_intersect(a, b).gens == (7, 8, 9)
    assert ideal_intersect(a, a) == a


def test_mul_against_value_sets():
    e = ideal_normalize(S345, [3, 4])
    f = ideal_normalize(S345, [3, 5])
    prod = ideal_mul(e, f)
    for z in range(0, 30):
        expected = any(
            ideal_membership(e, x) and ideal_membership(f, z - x) for x in range(-5, 36)
        )
        assert ideal_membership(prod, z) == expected


def test_enumeration_against_subset_oracle():
    window = list(range(0, S345.frobenius + 7))
    seen = set()
    for r in range(1, len(window) + 1):
        for combo in itertools.combinations(window, r):
            seen.add(ideal_normalize(S345, combo).gens)
    enumerated = enumerate_ideals(S345, 0, S345.frobenius + 6)
    assert len(enumerated) == len(set(enumerated))
    assert {i.gens for i in enumerated} == seen


@pytest.mark.parametrize("gens", [(3, 4, 5), (4, 6, 9), (5, 7, 9), (6, 7, 8, 9, 10), (7, 11)])
def test_enumeration_order_matches_the_recursive_walk(gens):
    ring = NumericalSemigroup.create(gens)
    hi = min(ring.frobenius + 3, 25)  # <7,11> (F = 59) has 73,199 ideals up to F + 3, 11,398 up to 25
    assert [i.gens for i in enumerate_ideals(ring, 0, hi)] == [i.gens for i in enumerate_ideals_reference(ring, 0, hi)]


def test_a_dropped_enumeration_is_freed_with_no_collector_run():
    """The enumeration leaves no reference cycle, so its ideals die with the
    last reference to the list, before any cyclic collection."""
    import gc
    import weakref

    gc.disable()
    try:
        ideals = enumerate_ideals(S345, 0, S345.frobenius + 3)
        held = weakref.ref(ideals[0])
        del ideals
        assert held() is None
    finally:
        gc.enable()


def _oracle_for(ring, lo, hi):
    c = ring.conductor
    offset = lo - hi - 2 * c
    width = (2 * hi + 2 * c + 2) - offset
    return BitsetOracle(ring, offset, width)


@pytest.mark.parametrize("ring", [S345, S23], ids=["345", "23"])
def test_operations_match_bitset_oracle_sampled(ring):
    rng = random.Random(99)
    hi = ring.frobenius + 6
    oracle = _oracle_for(ring, 0, hi)
    ideals = enumerate_ideals(ring, 0, hi)
    for _ in range(300):
        a = rng.choice(ideals)
        b = rng.choice(ideals)
        xa, xb = oracle.expand(a.gens), oracle.expand(b.gens)
        assert oracle.minimal_generators(oracle.sum(xa, xb)) == ideal_sum(a, b).gens
        assert oracle.minimal_generators(oracle.mul(xa, xb)) == ideal_mul(a, b).gens
        assert oracle.minimal_generators(oracle.intersect(xa, xb)) == ideal_intersect(a, b).gens
        assert oracle.minimal_generators(oracle.colon(xa, xb)) == ideal_colon(a, b).gens


def test_v_closure_is_a_closure():
    ideals = enumerate_ideals(S345, 0, S345.frobenius + 6)
    for a in ideals:
        va = v_closure(a)
        assert ideal_leq(a, va)
        assert v_closure(va) == va
    for a, b in zip(ideals, ideals[1:]):
        if ideal_leq(a, b):
            assert ideal_leq(v_closure(a), v_closure(b))


def test_v_closure_matches_the_two_colon_definition():
    """Seeded differential of the Apery-table v against (S : (S : a)) by
    window colons: random semigroups with at most 5 generators, each at most
    40, and random ideals shifted below and above 0."""
    rng = random.Random(2305)
    rings = 0
    while rings < 60:
        gens = rng.sample(range(1, 41), rng.randint(1, 5))
        if reduce(gcd, gens) != 1:
            continue
        ring = NumericalSemigroup.create(gens)
        rings += 1
        for _ in range(6):
            a = ideal_normalize(ring, [rng.randint(0, ring.conductor + 3) for _ in range(rng.randint(1, 4))])
            a = ideal_shift(a, rng.randint(-2 * ring.conductor - 7, 7))
            assert v_closure(a) == two_colon_v(a), (ring, a)


def test_a_wrong_apery_table_trips_the_extensivity_check():
    # residues 1 and 2 swapped: the table's entries leave their classes mod 3,
    # and the computed v(D) misses D.  (A table that keeps each entry in its
    # class always gives an extensive result; the check guards the residue
    # bookkeeping.)  The constructor refuses this table, so it is planted
    # past the constructor, on a copy.
    assert S345.apery == (0, 4, 5)
    swapped = copy.copy(S345)
    object.__setattr__(swapped, "apery", (0, 5, 4))
    assert swapped == S345  # the table takes no part in equality
    for gens in ([0], [3, 4, 5]):
        with pytest.raises(AlgebraError, match="not extensive"):
            v_closure(ideal_normalize(swapped, gens))


@pytest.mark.parametrize("apery", [(3, 4, 5), (0, 5, 4), (0, 7, 5), (0, 1, 5), (0, 4), (0, 4, 5, 6)],
                         ids=["shifted", "swapped", "not-shortest", "unreached", "short", "long"])
def test_the_constructor_refuses_a_wrong_apery_table(apery):
    with pytest.raises(AlgebraError, match="is not the Apery table of <3,4,5>"):
        dataclasses.replace(S345, apery=apery)
    if apery == (3, 4, 5):
        # every entry stays in its residue class, so past the constructor the
        # extensivity check lets it through and v(D) comes out wrong
        planted = copy.copy(S345)
        object.__setattr__(planted, "apery", apery)
        assert v_closure(ring_ideal(planted)).gens == (0, 1, 2)
    assert dataclasses.replace(S345, apery=(0, 4, 5)).apery == (0, 4, 5)


def test_semigroup_equality_and_hash_ignore_the_derived_tables():
    same = NumericalSemigroup.create([5, 4, 3, 3])
    assert same == S345 and hash(same) == hash(S345)
    # the gaps and the Apery table are read off the generators: planting other
    # gaps changes neither equality nor hash
    blank = dataclasses.replace(S345, gaps=())
    assert blank == S345 and hash(blank) == hash(S345)
    assert hash(ideal_normalize(blank, [0])) == hash(ideal_normalize(S345, [0]))
    for other in (S23, S469, NumericalSemigroup.create([3, 4]), NumericalSemigroup.create([3, 4, 5, 6])):
        assert other != S345


def test_product_colon_containments():
    rng = random.Random(17)
    ideals = enumerate_ideals(S345, 0, S345.frobenius + 6)
    for _ in range(150):
        a, b = rng.choice(ideals), rng.choice(ideals)
        q = ideal_colon(ideal_mul(a, b), b)
        assert ideal_leq(a, q)
        assert ideal_leq(v_closure(a), v_closure(q))


def test_maximal_ideal_is_divisorial():
    m = maximal_ideal(S345)
    assert v_closure(m) == m
    assert m.gens == (3, 4, 5)


def test_shift_equivariance():
    rng = random.Random(31)
    ideals = enumerate_ideals(S345, 0, S345.frobenius + 6)
    for _ in range(100):
        a, b = rng.choice(ideals), rng.choice(ideals)
        h = rng.randint(-4, 4)
        sa = ideal_shift(a, h)
        assert ideal_sum(sa, ideal_shift(b, h)) == ideal_shift(ideal_sum(a, b), h)
        assert ideal_mul(sa, b) == ideal_shift(ideal_mul(a, b), h)
        assert ideal_colon(sa, b) == ideal_shift(ideal_colon(a, b), h)
        assert ideal_intersect(sa, ideal_shift(b, h)) == ideal_shift(ideal_intersect(a, b), h)
        assert v_closure(sa) == ideal_shift(v_closure(a), h)


def test_hull_extension():
    e = ideal_normalize(S345, [3, 4])
    h = hull_extension(e)
    for z in range(-2, 20):
        assert ideal_membership(h, z) == (z >= 3)
    assert hull_extension(h) == h


def test_ring_mismatch_rejected():
    from semistar.operations import handle_add, semigroup_domain, unit_handle

    # monomial-ideal payloads assume one ring; the handle layer refuses two
    with pytest.raises(AlgebraError, match="two domains"):
        handle_add(unit_handle(semigroup_domain([3, 4, 5])), unit_handle(semigroup_domain([2, 3])))
