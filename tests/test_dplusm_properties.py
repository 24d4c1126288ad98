"""Leveled-module arithmetic against the membership oracle, on the dense
value group Q over Q(sqrt 2) and over F_25.

Every check reads a module only through `exp_member` (and the level spaces
it tests against), never through the stored form.  Each drawn module comes
with the levels its cut is built from, each check derives the levels every
cut it meets is built from, and probing those levels, the midpoints between
them and one level beyond each end visits every piece of the group on which
the level spaces are constant.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semistar.algebra import AlgebraError, ExtensionField, PrimeField, Rationals, ValueGroup
from semistar.dplusm import (
    PullbackDomain,
    ValuationDomain,
    maximal_module,
    module_colon,
    module_from_generators,
    module_intersect,
    module_leq,
    module_mul,
    module_scale,
    module_sum,
    space_at,
    whole_module,
)

from oracles import exp_add, exp_member, exp_mul, random_module_element

DOMAINS = {
    name: PullbackDomain(ValuationDomain(K, ValueGroup("Q")))
    for name, K in (("Q(sqrt2)", ExtensionField(Rationals(), [-2, 0, 1])),
                    ("F25", ExtensionField(PrimeField(5), [3, 0, 1])))
}
PROPERTY = settings(derandomize=True, database=None, deadline=2000, max_examples=100)

levels = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2]))


def _coefficients(K):
    scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)) if isinstance(K.base, Rationals) else st.integers(0, 4)
    return st.tuples(*[scalar] * K.degree).map(lambda xs: tuple(K.base.coerce(x) for x in xs)).filter(
        lambda c: not K.is_zero(c))


@st.composite
def modules(draw, pd):
    """(module, the levels its cut is built from, its generators or None):
    generated by monomials, all of K from a level on, open, or the whole field."""
    K = pd.residue_ext
    kind = draw(st.sampled_from(["generated", "generated", "closed", "open", "whole"]))
    if kind == "whole":
        return whole_module(pd), frozenset(), None
    if kind == "open":
        g = draw(levels)
        return module_scale(maximal_module(pd), draw(_coefficients(K)), g), frozenset({g}), None
    if kind == "closed":
        g = draw(levels)
        gens = [(e, g) for e in K.basis]
    else:
        gens = draw(st.lists(st.tuples(_coefficients(K), levels), min_size=1, max_size=3))
    return module_from_generators(pd, gens), frozenset(g for _, g in gens), gens


@st.composite
def cases(draw, n=2):
    """A domain name, n modules with their levels and generators, and a seed
    for drawing members."""
    name = draw(st.sampled_from(sorted(DOMAINS)))
    return (name, *[draw(modules(DOMAINS[name])) for _ in range(n)], draw(st.integers(0, 2**16)))


def _probes(levels):
    cuts = sorted(levels) or [Fraction(0)]
    mids = [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
    return cuts + mids + [cuts[0] - 1, cuts[-1] + 1]


def _monomials(pd, mods, levels):
    """At each probe level, the basis of K and the rows of each module's space there."""
    K = pd.residue_ext
    return [((g, c),) for g in _probes(levels)
            for c in dict.fromkeys(K.basis + tuple(r for m in mods for r in space_at(m, g).rows))]


def _inside(a, b, levels):
    """a inside b, read off membership: every monomial a holds at a probe level lies in b."""
    return all(exp_member(b, z) for z in _monomials(a.domain, [a], levels) if exp_member(a, z))


def _members(m, rng, k=4):
    return [x for x in (random_module_element(m, rng) for _ in range(k)) if x]


@PROPERTY
@given(cases())
def test_leq_matches_membership(case):
    name, (a, la, _), (b, lb, _), _ = case
    assert module_leq(a, b) == _inside(a, b, la | lb)
    assert module_leq(b, a) == _inside(b, a, la | lb)


@PROPERTY
@given(cases(3))
def test_sum_is_the_least_module_holding_both(case):
    name, (a, la, _), (b, lb, _), (c, lc, _), seed = case
    pd, rng = DOMAINS[name], random.Random(seed)
    total = module_sum(a, b)
    xs, ys = _members(a, rng), _members(b, rng)
    assert all(exp_member(total, z) for z in xs + ys)
    assert all(exp_member(total, exp_add(pd, x, y)) for x, y in zip(xs, ys))
    levels = la | lb | lc
    assert _inside(total, c, levels) == (_inside(a, c, levels) and _inside(b, c, levels))


@PROPERTY
@given(cases())
def test_meet_holds_exactly_the_common_members(case):
    name, (a, la, _), (b, lb, _), seed = case
    pd, rng = DOMAINS[name], random.Random(seed)
    meet = module_intersect(a, b)
    for z in _monomials(pd, [a, b, meet], la | lb) + _members(a, rng) + _members(b, rng):
        assert exp_member(meet, z) == (exp_member(a, z) and exp_member(b, z))


@PROPERTY
@given(cases(), levels, st.data())
def test_scale_moves_every_member(case, h, data):
    name, (a, la, _), _, seed = case
    pd, rng = DOMAINS[name], random.Random(seed)
    K = pd.residue_ext
    c = data.draw(_coefficients(K))
    scaled = module_scale(a, c, h)
    inverse = ((-h, K.inv(c)),)
    moved = {g + h for g in la}
    for z in _monomials(pd, [scaled], moved) + [exp_mul(pd, x, ((h, c),)) for x in _members(a, rng)]:
        assert exp_member(scaled, z) == exp_member(a, exp_mul(pd, z, inverse))


@PROPERTY
@given(cases())
def test_colon_holds_exactly_what_multiplies_into_the_numerator(case):
    name, (a, la, _), (b, lb, _), seed = case
    pd, rng = DOMAINS[name], random.Random(seed)
    diffs = {x - y for x in la for y in lb} | la
    probes = _monomials(pd, [a], diffs)

    def multiplies_in(z):
        (g, c), = z
        return _inside(module_scale(b, c, g), a, {x + g for x in lb} | la)

    try:
        quot = module_colon(a, b)
    except AlgebraError:  # the zero module: nothing multiplies b into a
        assert not any(multiplies_in(z) for z in probes)
        return
    for z in _monomials(pd, [a, quot], diffs):
        assert exp_member(quot, z) == multiplies_in(z)
    for z in _members(quot, rng):
        assert all(exp_member(a, exp_mul(pd, z, y)) for y in _members(b, rng))


@PROPERTY
@given(cases(3))
def test_product_holds_the_products_and_is_adjoint_to_the_colon(case):
    name, (a, la, ga), (b, lb, gb), (c, lc, _), seed = case
    pd, rng = DOMAINS[name], random.Random(seed)
    K = pd.residue_ext
    prod = module_mul(a, b)
    for x, y in zip(_members(a, rng), _members(b, rng)):
        assert exp_member(prod, exp_mul(pd, x, y))
    sums = {x + y for x in la for y in lb}
    if ga is not None and gb is not None:  # generated by the products of the generators
        spanned = module_from_generators(pd, [(K.mul(x, y), g + h) for x, g in ga for y, h in gb])
        for z in _monomials(pd, [prod, spanned], sums):
            assert exp_member(prod, z) == exp_member(spanned, z)
    try:
        quot = module_colon(c, b)
    except AlgebraError:
        assert not _inside(prod, c, sums | lc)
        return
    assert _inside(prod, c, sums | lc) == _inside(a, quot, la | {x - y for x in lc for y in lb})
