"""Leveled modules over k+M pullbacks: canonical forms, arithmetic, oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from semistar.algebra import AlgebraError, Segment, Subspace, ValueGroup
from semistar.dplusm import (
    PullbackDomain,
    ValuationDomain,
    extend_to_V,
    fg_witness,
    localize_at,
    localized_core,
    make_module,
    maximal_module,
    module_colon,
    module_from_generators,
    module_intersect,
    module_leq,
    module_mul,
    module_scale,
    module_sum,
    space_at,
    unit_module,
    v_closure_pullback,
    whole_module,
)
from oracles import (
    contains_vector,
    exp_add,
    exp_member,
    exp_mul,
    jump_and_tail,
    overring_module,
    random_domain_element,
    random_module_element,
)


@pytest.fixture(scope="module")
def pd_q(K_quad):
    return PullbackDomain(ValuationDomain(K_quad, ValueGroup("Q")))


@pytest.fixture(scope="module")
def pd_z(K_quad):
    return PullbackDomain(ValuationDomain(K_quad, ValueGroup("Z")))


def test_generator_module_shapes(pd_q, K_quad):
    one, a = K_quad.one, K_quad.gen()
    md = module_from_generators(pd_q, [(one, 1)])
    assert md.hull == Segment.closed(pd_q.group, 1) and md.space.dim == 1
    d = module_from_generators(pd_q, [(one, 0)])
    assert d == unit_module(pd_q)
    mv = module_from_generators(pd_q, [(one, 1), (a, 1)])
    assert mv.space is None and mv.hull == Segment.closed(pd_q.group, 1)
    with pytest.raises(AlgebraError):
        module_from_generators(pd_q, [(K_quad.zero, 1)])
    with pytest.raises(AlgebraError):
        module_from_generators(pd_q, [])


def test_intersection_of_twisted_principals(pd_q, K_quad):
    one, a = K_quad.one, K_quad.gen()
    md = module_from_generators(pd_q, [(one, 1)])
    mxd = module_from_generators(pd_q, [(a, 1)])
    meet = module_intersect(md, mxd)
    assert meet.space is None and meet.hull == Segment.open(pd_q.group, 1)
    m = maximal_module(pd_q)
    assert meet == module_scale(m, one, 1)
    d = unit_module(pd_q)
    ad = module_from_generators(pd_q, [(a, 0)])
    assert module_intersect(d, ad) == m
    assert module_intersect(md, md) == md


def test_random_twisted_intersections(pd_q, K_quad):
    """m D meet m x D = m M for any monomial m and coefficient x outside k."""
    rng = random.Random(41)
    group = pd_q.group
    for _ in range(50):
        c = K_quad.rand_nonzero(rng, 4)
        g = group.rand(rng, 6)
        x = K_quad.rand(rng, 4)
        while K_quad.base.is_zero(x[1]):  # force x outside the base field
            x = K_quad.rand(rng, 4)
        md = module_from_generators(pd_q, [(c, g)])
        mxd = module_from_generators(pd_q, [(K_quad.mul(c, x), g)])
        meet = module_intersect(md, mxd)
        expected = make_module(pd_q, Segment.open(group, g))
        assert meet == expected


def test_products_and_extension(pd_q, K_quad):
    one, a = K_quad.one, K_quad.gen()
    m = maximal_module(pd_q)
    assert module_mul(m, m) == m  # M = M^2 over a dense group
    md = module_from_generators(pd_q, [(one, 1)])
    m2d = module_from_generators(pd_q, [(one, 2)])
    assert module_mul(md, m2d) == module_from_generators(pd_q, [(one, 3)])
    assert extend_to_V(md).hull == Segment.closed(pd_q.group, 1)
    mm = module_intersect(md, module_from_generators(pd_q, [(a, 1)]))
    assert extend_to_V(mm) == mm  # M V = M fixes the open tail
    v = overring_module(pd_q)
    assert module_mul(unit_module(pd_q), v) == v
    assert extend_to_V(unit_module(pd_q)) == v


def test_sum_merges_to_extension(pd_q, K_quad):
    one, a = K_quad.one, K_quad.gen()
    md = module_from_generators(pd_q, [(one, 1)])
    mxd = module_from_generators(pd_q, [(a, 1)])
    total = module_sum(md, mxd)
    assert total == extend_to_V(md)  # quadratic extension fills K


def test_colon_examples(pd_q, pd_z, K_quad):
    one = K_quad.one
    for pd in (pd_q, pd_z):
        d, m, v = unit_module(pd), maximal_module(pd), overring_module(pd)
        assert module_colon(d, m) == v
        assert module_colon(m, m) == v
        assert module_colon(d, v) == m
        assert module_colon(d, d) == d
        md = module_from_generators(pd, [(one, 1)])
        inv = module_colon(d, md)
        assert module_mul(inv, md) == d
        assert v_closure_pullback(d, d) == d
        assert v_closure_pullback(m, d) == m


def test_pvd_maximal_is_finitely_generated(pd_z, K_quad):
    one, a = K_quad.one, K_quad.gen()
    m = maximal_module(pd_z)
    two_gen = module_from_generators(pd_z, [(one, 1), (a, 1)])
    assert two_gen == m
    w = fg_witness(m)
    assert w is not None and module_from_generators(pd_z, list(w)) == m
    d = unit_module(pd_z)
    trace = module_mul(m, module_colon(d, m))
    assert trace == m
    assert trace != d


def test_fg_witnesses(pd_q, K_quad):
    assert fg_witness(maximal_module(pd_q)) is None  # open tail, dense group
    assert fg_witness(whole_module(pd_q)) is None
    md = module_from_generators(pd_q, [(K_quad.one, Fraction(1, 2))])
    w = fg_witness(md)
    assert w is not None and module_from_generators(pd_q, list(w)) == md
    v = overring_module(pd_q)
    w = fg_witness(v)
    assert w is not None and module_from_generators(pd_q, list(w)) == v


def test_canonical_rejects_bad_shapes(pd_q, K_quad):
    group = pd_q.group
    with pytest.raises(AlgebraError):
        make_module(pd_q, Segment.empty(group))  # zero module
    with pytest.raises(AlgebraError):
        make_module(pd_q, Segment.closed(ValueGroup("Z"), 0))  # hull over another group
    with pytest.raises(AlgebraError, match="minimum"):  # a jump space where the hull has no minimum
        make_module(pd_q, Segment.open(group, 1), Subspace.span(K_quad, [K_quad.gen()]))
    w = Subspace.span(K_quad, [K_quad.one])
    assert make_module(pd_q, Segment.closed(group, 0), Subspace.full(K_quad)).space is None
    assert make_module(pd_q, Segment.closed(group, 0), Subspace.zero(K_quad)) == maximal_module(pd_q)
    assert make_module(pd_q, Segment.closed(group, 0), w) == unit_module(pd_q)


def test_membership_oracle_on_generated_modules(pd_q, K_quad):
    """500 seeded cases: elements assembled from generators must greedy-reduce
    to zero; leading coefficients pushed outside the jump space must not."""
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        ngens = rng.randint(1, 3)
        gens = [(K_quad.rand_nonzero(rng, 3), pd_q.group.rand(rng, 4)) for _ in range(ngens)]
        mod = module_from_generators(pd_q, gens)
        # random D-combination of the generators
        acc = ()
        for c, g in gens:
            d_elt = random_domain_element(pd_q, rng)
            acc = exp_add(pd_q, acc, exp_mul(pd_q, ((g, c),), d_elt))
        if acc:
            assert exp_member(mod, acc)
            checked += 1
        # an element whose leading coefficient escapes the jump space
        j, _ = jump_and_tail(mod)
        if j is not None and j[1].dim < K_quad.degree:
            g0, w = j
            bad = K_quad.rand_nonzero(rng, 3)
            if not contains_vector(w, bad):
                assert not exp_member(mod, ((g0, bad),))
                checked += 1


def test_membership_of_sampled_module_elements(pd_q):
    rng = random.Random(77)
    eng_samples = []
    for _ in range(60):
        kind = rng.random()
        if kind < 0.5:
            gens = [(pd_q.residue_ext.rand_nonzero(rng, 3), pd_q.group.rand(rng, 4))]
            eng_samples.append(module_from_generators(pd_q, gens))
        else:
            shape = "closed" if kind < 0.75 else "open"
            eng_samples.append(make_module(pd_q, Segment.make(pd_q.group, shape, pd_q.group.rand(rng, 4))))
    for mod in eng_samples:
        for _ in range(5):
            elt = random_module_element(mod, rng)
            if elt:
                assert exp_member(mod, elt)


def test_colon_against_multiplication_oracle(pd_q):
    """z in (A : B) iff z * (sampled members of B) all lie in A."""
    rng = random.Random(15)
    K = pd_q.residue_ext
    group = pd_q.group
    for _ in range(40):
        a = module_from_generators(pd_q, [(K.rand_nonzero(rng, 3), group.rand(rng, 3))])
        if rng.random() < 0.5:
            a = make_module(pd_q, Segment.make(group, rng.choice(["open", "closed"]), group.rand(rng, 3)))
        b = module_from_generators(pd_q, [(K.rand_nonzero(rng, 3), group.rand(rng, 3))])
        quot = module_colon(a, b)
        for _ in range(6):
            z = (group.rand(rng, 4), K.rand_nonzero(rng, 3))
            z_exp = (z,)
            members = [random_module_element(b, rng) for _ in range(6)]
            products_in = all(
                exp_member(a, exp_mul(pd_q, z_exp, m)) for m in members if m
            )
            if exp_member(quot, z_exp):
                assert products_in
            else:
                # a point outside the colon must fail against some b-monomial
                j, tail = jump_and_tail(b)
                witnesses = []
                if j is not None:
                    witnesses.append(((j[0], j[1].rows[0]),))
                cut = tail.cut
                step = Fraction(1, 7)
                witnesses.append(((group.add(cut, step), K.one),))
                assert any(
                    not exp_member(a, exp_mul(pd_q, z_exp, wtn)) for wtn in witnesses
                )


def test_degree_one_pullback_matches_segments(K_triv):
    """With k = K every module is a plain segment and the module operations
    agree with the segment calculus."""
    from semistar.algebra import segment_add, segment_colon, segment_intersect, segment_union

    pd = PullbackDomain(ValuationDomain(K_triv, ValueGroup("Q")))
    rng = random.Random(8)
    group = pd.group
    segs = [Segment.make(group, rng.choice(["open", "closed"]), group.rand(rng, 4)) for _ in range(20)]
    mods = [make_module(pd, s) for s in segs]
    for s, ms in zip(segs, mods):
        for t, mt in zip(segs, mods):
            assert module_sum(ms, mt).hull == segment_union(s, t)
            assert module_mul(ms, mt).hull == segment_add(s, t)
            assert module_intersect(ms, mt).hull == segment_intersect(s, t)
            assert module_colon(ms, mt).hull == segment_colon(s, t)


def test_scaling_equivariance(pd_q, K_quad):
    rng = random.Random(90)
    group = pd_q.group
    for _ in range(60):
        mod = module_from_generators(pd_q, [(K_quad.rand_nonzero(rng, 3), group.rand(rng, 3))])
        other = module_from_generators(pd_q, [(K_quad.rand_nonzero(rng, 3), group.rand(rng, 3))])
        c = K_quad.rand_nonzero(rng, 3)
        g = group.rand(rng, 3)
        assert module_scale(module_mul(mod, other), c, g) == module_mul(module_scale(mod, c, g), other)
        assert (module_scale(module_intersect(mod, other), c, g)
                == module_intersect(module_scale(mod, c, g), module_scale(other, c, g)))


def test_colon_adjunction_laws(pd_q, K_quad):
    """(A : B) * B inside A, and A inside (A*B : B), on random module pairs."""
    rng = random.Random(121)
    group = pd_q.group

    def rand_module():
        if rng.random() < 0.5:
            gens = [(K_quad.rand_nonzero(rng, 3), group.rand(rng, 3))
                    for _ in range(rng.randint(1, 2))]
            return module_from_generators(pd_q, gens)
        shape = rng.choice(["open", "closed"])
        return make_module(pd_q, Segment.make(group, shape, group.rand(rng, 3)))

    for _ in range(150):
        a, b = rand_module(), rand_module()
        assert module_leq(module_mul(module_colon(a, b), b), a)
        assert module_leq(a, module_colon(module_mul(a, b), b))
        # colon is antitone in the divisor and monotone in the numerator
        big = module_sum(a, rand_module())
        assert module_leq(module_colon(a, b), module_colon(big, b))
        bigger_b = module_sum(b, rand_module())
        assert module_leq(module_colon(a, bigger_b), module_colon(a, b))


def test_product_distributes_over_sum(pd_q, K_quad):
    rng = random.Random(77)
    group = pd_q.group

    def rand_module():
        gens = [(K_quad.rand_nonzero(rng, 3), group.rand(rng, 3))]
        m = module_from_generators(pd_q, gens)
        if rng.random() < 0.4:
            m = make_module(pd_q, Segment.make(group, rng.choice(["open", "closed"]), group.rand(rng, 3)))
        return m

    for _ in range(120):
        a, b, c = rand_module(), rand_module(), rand_module()
        lhs = module_mul(module_sum(a, b), c)
        rhs = module_sum(module_mul(a, c), module_mul(b, c))
        assert lhs == rhs
        assert module_mul(a, b) == module_mul(b, a)
        assert module_mul(module_mul(a, b), c) == module_mul(a, module_mul(b, c))


def _flat_rref(rows):
    """Plain reduced row echelon form over Fraction tuples, test-local."""
    m = [list(r) for r in rows]
    width = len(m[0]) if m else 0
    rank = 0
    for c in range(width):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return tuple(tuple(r) for r in m[:rank])


def _model_monomials(mod, levels, K):
    """Monomial spanning set (level, coeff) of a module truncated to levels."""
    out = []
    for g in levels:
        w = space_at(mod, g)
        for row in w.rows:
            out.append((g, row))
    return out


def _model_span(monomials, levels, K):
    d = K.degree
    width = len(levels) * d
    index = {g: i for i, g in enumerate(levels)}
    rows = []
    for g, c in monomials:
        if g not in index:
            continue
        row = [0] * width
        row[index[g] * d:(index[g] + 1) * d] = [x for x in c]
        rows.append(tuple(row))
    from fractions import Fraction

    return _flat_rref([tuple(Fraction(x) for x in r) for r in rows])


def test_truncated_model_oracle(pd_z, K_quad):
    """Sum, intersection, and product of integral modules over the discrete
    group agree with plain linear algebra in a truncated monomial model."""
    rng = random.Random(6)
    levels = list(range(0, 9))
    half = [g for g in levels if g <= 4]

    def rand_integral():
        roll = rng.random()
        if roll < 0.5:
            gens = [(K_quad.rand_nonzero(rng, 3), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 2))]
            return module_from_generators(pd_z, gens)
        if roll < 0.7:
            return unit_module(pd_z)
        return make_module(pd_z, Segment.closed(pd_z.group, rng.randint(1, 4)))

    for _ in range(80):
        a, b = rand_integral(), rand_integral()
        _, b_tail = jump_and_tail(b)
        ma = _model_monomials(a, levels, K_quad)
        mb = _model_monomials(b, levels, K_quad)
        # sum: union of spanning monomials
        got = _model_span(_model_monomials(module_sum(a, b), levels, K_quad), levels, K_quad)
        want = _model_span(ma + mb, levels, K_quad)
        assert got == want
        # intersection: common rowspace via double containment of spans
        meet = _model_span(_model_monomials(module_intersect(a, b), levels, K_quad), levels, K_quad)
        sa = _model_span(ma, levels, K_quad)
        sb = _model_span(mb, levels, K_quad)
        for row in meet:
            assert _flat_rref(list(sa) + [row]) == sa
            assert _flat_rref(list(sb) + [row]) == sb
        # and nothing in both spans escapes the computed intersection
        joint_dim = len(sa) + len(sb) - len(_flat_rref(list(sa) + list(sb)))
        assert len(meet) == joint_dim
        # product: spans restricted to half-window so truncation is exact
        ha = _model_monomials(a, half, K_quad)
        hb = _model_monomials(b, half, K_quad)
        prods = [(g1 + g2, K_quad.mul(c1, c2)) for g1, c1 in ha for g2, c2 in hb]
        got = _model_span(_model_monomials(module_mul(a, b), levels, K_quad), levels, K_quad)
        want = _model_span(prods, levels, K_quad)
        assert got == want
        # colon: containment plus monomial maximality inside the window
        quot = module_colon(a, b)
        for g in half:
            w = space_at(quot, g)
            for row in w.rows:
                for g2, c2 in hb:
                    prod_level = g + g2
                    if prod_level <= levels[-1]:
                        assert contains_vector(space_at(a, prod_level), K_quad.mul(row, c2))
            if not w.is_full():
                outside = K_quad.rand_nonzero(rng, 3)
                if not contains_vector(w, outside):
                    bad = any(
                        not contains_vector(space_at(a, g + g2), K_quad.mul(outside, c2))
                        for g2, c2 in hb if g + g2 <= levels[-1]
                    )
                    tail_escape = not b_tail.is_empty() and not all(
                        space_at(a, g + g2).is_full() for g2 in range(1, 5)
                        if b_tail.contains(g2) and g + g2 <= levels[-1]
                    )
                    assert bad or tail_escape


def test_localize_at_examples():
    lex = ValueGroup("ZxZ")
    z = ValueGroup("Z")
    assert localize_at(Segment.closed(lex, (1, 5))) == Segment.closed(z, 1)
    assert localize_at(Segment.closed(lex, (1, -3))) == Segment.closed(z, 1)
    assert localize_at(Segment.open(lex, (0, 0))) == Segment.closed(z, 0)
    assert localize_at(Segment.whole(lex)) == Segment.whole(z)
    assert localized_core(Segment.closed(lex, (1, 5))) == Segment.closed(z, 2)
    assert localized_core(Segment.closed(lex, (1, -3))) == Segment.closed(z, 2)
    assert localized_core(Segment.open(lex, (0, 0))) == Segment.closed(z, 1)
    assert localized_core(Segment.whole(lex)) == Segment.whole(z)
    for project in (localize_at, localized_core):
        with pytest.raises(AlgebraError):
            project(Segment.closed(ValueGroup("Q"), 1))


def test_localize_against_lex_enumeration():
    lex = ValueGroup("ZxZ")
    rng = random.Random(12)
    for _ in range(60):
        cut = (rng.randint(-4, 4), rng.randint(-4, 4))
        seg = Segment.closed(lex, cut)
        proj, core = localize_at(seg), localized_core(seg)
        for first in range(-6, 7):
            line = [seg.contains((first, b)) for b in range(-40, 41)]
            assert proj.contains(first) == any(line)
            assert core.contains(first) == all(line)  # the core keeps the lines wholly inside
