"""Operation terms, evaluators, derived closures, and their laws."""

from __future__ import annotations

import pytest

from semistar.algebra import AlgebraError
from semistar.laws import check_axioms, check_basic_formulas
from semistar.operations import (
    SemistarOp,
    UnsupportedOperation,
    apply,
    asc_op,
    bar_op,
    d_op,
    desc_op,
    ft_op,
    handle_add,
    handle_colon,
    handle_eq,
    handle_intersect,
    handle_leq,
    handle_mul,
    localizing_system,
    make_handle,
    maximal_handle,
    op_leq,
    op_to_text,
    ops_equal_on,
    pullback_domain,
    quasi_star_ideal_check,
    quasi_star_maximals,
    semigroup_domain,
    spec_op,
    st_op,
    t_op,
    tilde_op,
    unit_handle,
    v_op,
    valuation_domain,
    w_op,
)
from semistar.classify import probe_ideals
from semistar.verdict import SampleSpec

SPEC = SampleSpec(seed=2, count=40)


def _ops_for(domain):
    table = {
        "numsgr": ["d", "v", "t", "w", "st[ic]", "bar(v)"],
        "pullback": ["d", "v", "st[V]", "tilde(st[V])", "bar(st[V])", "desc(d)", "desc(v)"],
        "valuation": ["d", "v", "t", "w", "bar(v)", "st[K]"],
    }
    from semistar.exprs import parse_op

    names = table[domain.family]
    if domain.family == "valuation" and domain.payload_group.kind == "ZxZ":
        names = ["d", "v", "spec{M}", "spec{P1}"]
    return [(n, parse_op(n)) for n in names]


@pytest.mark.parametrize("dom_name", ["dom_345", "dom_pvd", "dom_318", "dom_vq", "dom_vz", "dom_lex"])
def test_axioms_and_formulas(dom_name, request):
    domain = request.getfixturevalue(dom_name)
    for name, op in _ops_for(domain):
        failures = check_axioms(domain, op, SPEC, count=40)
        assert not failures, f"{name} on {domain.name}: {failures[:3]}"
        failures = check_basic_formulas(domain, op, SPEC, count=40)
        assert not failures, f"{name} on {domain.name}: {failures[:3]}"


def test_finite_type_constructor_idempotent(dom_vq, dom_318):
    double = SemistarOp("ft", inner=SemistarOp("ft", inner=v_op()))
    for domain in (dom_vq, dom_318):
        universe = probe_ideals(domain, SPEC, n=20)
        for e in universe:
            assert handle_eq(apply(double, e), apply(t_op(), e))
    assert ft_op(t_op()) == t_op()
    assert ft_op(st_op("V")) == st_op("V")  # already finite type
    assert ft_op(d_op()) == d_op()


def test_finite_type_on_open_segments(dom_vq):
    m = maximal_handle(dom_vq)
    assert handle_eq(apply(t_op(), m), m)
    v_img = apply(v_op(), m)
    assert handle_eq(v_img, unit_handle(dom_vq))
    assert not handle_eq(apply(t_op(), m), v_img)


def test_stable_closure_below_and_same_system(dom_vq, dom_pvd):
    for domain, opname in ((dom_vq, v_op()), (dom_pvd, st_op("V"))):
        universe = probe_ideals(domain, SPEC, n=30)
        barred = bar_op(opname)
        for e in universe:
            assert handle_leq(apply(barred, e), apply(opname, e))
        ls1 = localizing_system(opname, domain)
        ls2 = localizing_system(barred, domain)
        assert ls1.trivial == ls2.trivial  # F^op = F^bar(op)


def test_stable_closure_via_cofinal_family_matches_capability(dom_vq):
    """On a valuation domain every operation is stable, so the colon route
    through the cofinal family must reproduce the operation itself."""
    ls = localizing_system(v_op(), dom_vq)
    assert not ls.trivial and len(ls.members) == 1
    m = ls.members[0]
    assert handle_eq(m, maximal_handle(dom_vq))
    for e in probe_ideals(dom_vq, SPEC, n=30):
        via_family = handle_colon(e, m)
        assert handle_eq(via_family, apply(v_op(), e))


def test_pvd_stable_closure_is_identity(dom_pvd):
    ls = localizing_system(st_op("V"), dom_pvd)
    assert ls.trivial
    for e in probe_ideals(dom_pvd, SPEC, n=30):
        assert handle_eq(apply(bar_op(st_op("V")), e), e)


def test_tilde_matches_stable_finite_type(dom_vq, dom_pvd, dom_318, dom_345):
    for domain, base in ((dom_vq, v_op()), (dom_pvd, st_op("V")), (dom_318, st_op("V")), (dom_345, v_op())):
        lhs = tilde_op(base)
        rhs = bar_op(ft_op(base))
        for e in probe_ideals(domain, SPEC, n=25):
            assert handle_eq(apply(lhs, e), apply(rhs, e))


def test_ls_contains(dom_vq):
    from fractions import Fraction

    from semistar.algebra import Segment
    from oracles import ls_contains

    ls = localizing_system(v_op(), dom_vq)
    small = make_handle(dom_vq, Segment.closed(dom_vq.payload_group, Fraction(1, 2)))
    for i, inside in ((maximal_handle(dom_vq), True), (unit_handle(dom_vq), True), (small, False)):
        assert ls_contains(v_op(), i) == inside
        # the system is the integral ideals above a member of its cofinal family
        assert any(handle_leq(m, i) for m in ls.members) == inside


def test_localizing_system_monotone(dom_vq):
    """F' inside F'' iff the induced stable operations are ordered: here
    F^t = {D} sits inside F^v = {D, M}, and bar(t) <= bar(v) pointwise."""
    ls_t = localizing_system(t_op(), dom_vq)
    ls_v = localizing_system(v_op(), dom_vq)
    assert ls_t.trivial and not ls_v.trivial
    for e in probe_ideals(dom_vq, SPEC, n=30):
        assert handle_leq(apply(bar_op(t_op()), e), apply(bar_op(v_op()), e))


def test_quasi_ideals_and_maximals(dom_vq, dom_pvd, dom_345):
    m = maximal_handle(dom_vq)
    assert quasi_star_ideal_check(t_op(), m)
    assert not quasi_star_ideal_check(v_op(), m)
    assert quasi_star_maximals(v_op(), dom_vq) == ("M",)  # via the finite-type closure
    assert quasi_star_maximals(st_op("V"), dom_pvd) == ("M",)
    assert quasi_star_maximals(v_op(), dom_345) == ("M",)
    assert quasi_star_maximals(st_op("K"), dom_vq) == ()
    with pytest.raises(AlgebraError):
        quasi_star_ideal_check(v_op(), make_handle(dom_vq, dom_vq.engine.extend("K", dom_vq.engine.unit())))


def test_tilde_with_empty_spectrum_is_constant(dom_vq):
    op = tilde_op(st_op("K"))
    e = maximal_handle(dom_vq)
    image = apply(op, e)
    assert dom_vq.engine.is_whole(image.payload)


def test_descent_equals_extension(dom_pvd):
    lhs = desc_op(d_op())
    rhs = st_op("V")
    for e in probe_ideals(dom_pvd, SPEC, n=30):
        assert handle_eq(apply(lhs, e), apply(rhs, e))


def test_descended_v_closure(dom_pvd):
    """(E V)^{v on V} agrees with the double colon computed over V."""
    op = desc_op(v_op())
    v_handle = make_handle(dom_pvd, dom_pvd.engine.extend("V", dom_pvd.engine.unit()))
    for e in probe_ideals(dom_pvd, SPEC, n=20):
        lhs = apply(op, e)
        ext = make_handle(dom_pvd, dom_pvd.engine.extend("V", e.payload))
        rhs = handle_colon(v_handle, handle_colon(v_handle, ext))
        assert handle_eq(lhs, rhs)


def test_ascent_requires_overring_module(dom_pvd):
    d = unit_handle(dom_pvd)
    with pytest.raises(UnsupportedOperation):
        apply(asc_op(v_op()), d)
    v_handle = make_handle(dom_pvd, dom_pvd.engine.extend("V", d.payload))
    assert handle_eq(apply(asc_op(d_op()), v_handle), v_handle)


def test_unsupported_operations(dom_345):
    with pytest.raises(UnsupportedOperation):
        apply(st_op("K"), unit_handle(dom_345))
    with pytest.raises(UnsupportedOperation):
        apply(spec_op("P1"), unit_handle(dom_345))


def test_spectral_localization(dom_lex):
    m = maximal_handle(dom_lex)
    image = apply(spec_op("P1"), m)
    assert image.domain != dom_lex
    assert handle_leq(m, image)  # E inside E^op across the projection
    again = apply(spec_op("P1"), image)
    assert handle_eq(again, image)
    assert handle_eq(apply(spec_op("M"), m), m)


def test_binary_operations_refuse_operands_over_two_domains(QQ, K_quad, K_triv, dom_345, dom_pvd, dom_vq, dom_vz):
    from semistar.algebra import ExtensionField

    pairs = [
        (dom_345, semigroup_domain([3, 5, 7])),
        (dom_345, dom_pvd),
        (dom_pvd, dom_vq),
        (dom_vz, valuation_domain(K_quad, "Z")),  # residue field Q against Q(sqrt 2)
        (dom_pvd, pullback_domain(ExtensionField(QQ, [-3, 0, 1]), "Z")),  # a^2-2 against a^2-3
        (dom_vq, dom_vz),
        (dom_vq, valuation_domain(K_triv, "Q", "v-q again")),  # equal payloads, two names
    ]
    binary = (handle_add, handle_mul, handle_intersect, handle_colon, handle_leq, handle_eq)
    for first, second in pairs:
        for x, y in ((first, second), (second, first)):
            for fn in binary:
                with pytest.raises(AlgebraError):
                    fn(unit_handle(x), maximal_handle(y))


def test_op_ordering_verdicts(dom_vq, dom_318):
    universe = probe_ideals(dom_vq, SPEC, n=30)
    assert op_leq(d_op(), v_op(), universe).is_holds
    assert op_leq(t_op(), v_op(), universe).is_holds
    eq = ops_equal_on(t_op(), v_op(), universe)
    assert eq.is_refuted
    witness = eq.witness[0]
    assert handle_eq(witness, maximal_handle(dom_vq))
    universe318 = probe_ideals(dom_318, SPEC, n=30)
    eq = ops_equal_on(tilde_op(st_op("V")), st_op("V"), universe318)
    assert eq.is_refuted  # D maps to D under tilde but to V under the extension
    assert ops_equal_on(w_op(), d_op(), probe_ideals(dom_vq, SPEC, n=30)).is_holds


def test_fg_witness_regeneration(dom_pvd, dom_318, dom_345):
    for domain in (dom_pvd, dom_318, dom_345):
        eng = domain.engine
        rng = SPEC.rng(f"wit/{domain.name}")
        for _ in range(40):
            h = make_handle(domain, eng.sample_ideal(rng, SPEC))
            if h.finitely_generated:
                assert eng.regenerate(h.fg_witness) == h.payload


def test_degree_one_pullback_agrees_with_valuation_engine(K_triv):
    """A pullback with k = K is the valuation domain itself; the derived
    closures must agree segment for segment."""
    from semistar.exprs import parse_op
    from semistar.operations import pullback_domain, valuation_domain

    pb = pullback_domain(K_triv, "Q", "pb-kk")
    vd = valuation_domain(K_triv, "Q", "vd-kk")
    assert "valuation" in pb.capabilities  # improper pullback inherits it all
    rng = SPEC.rng("deg1")
    segments = [vd.engine.sample_ideal(rng, SPEC) for _ in range(25)]
    for opname in ("d", "v", "t", "w", "bar(v)", "st[V]", "st[K]"):
        op = parse_op(opname)
        for seg in segments:
            from semistar.dplusm import make_module

            via_module = apply(op, make_handle(pb, make_module(pb.payload, seg)))
            via_segment = apply(op, make_handle(vd, seg))
            assert via_module.payload.hull == via_segment.payload, opname


def test_prime_field_pullback():
    """The module machinery is field-agnostic: a pullback over F25/F5 behaves
    like the rational one."""
    from semistar.algebra import ExtensionField, PrimeField
    from semistar.operations import pullback_domain

    K = ExtensionField(PrimeField(5), [3, 0, 1])
    domain = pullback_domain(K, "Z", "pvd-f5")
    st = st_op("V")
    assert not check_axioms(domain, st, SPEC, count=30)
    assert not check_basic_formulas(domain, st, SPEC, count=30)
    m = maximal_handle(domain)
    from semistar.classify import is_star_invertible

    assert not is_star_invertible(st, m)
    assert quasi_star_maximals(st, domain) == ("M",)


def test_op_printing_round_trip():
    from semistar.exprs import parse_op

    for text in ["d", "v", "t", "w", "st[V]", "st[ic]", "st[K]", "ft(st[K])",
                 "bar(v)", "tilde(st[V])", "asc(d)", "desc(v)", "spec{P1}", "spec{M}",
                 "bar(ft(bar(v)))", "desc(bar(v))"]:
        op = parse_op(text)
        assert parse_op(op_to_text(op)) == op


# ---------------------------------------------------------------------------
# what a domain handle computes once

def test_landmark_handles_are_built_once(dom_pvd, dom_345):
    for domain in (dom_pvd, dom_345):
        assert unit_handle(domain) is unit_handle(domain)
        assert maximal_handle(domain) is maximal_handle(domain)
        assert domain.overring_unit is domain.overring_unit


def test_make_handle_still_rejects_a_fresh_payload_that_does_not_regenerate(monkeypatch):
    from semistar import numsgr
    from semistar.operations import ConsistencyError, semigroup_domain

    domain = semigroup_domain([3, 4, 5], "fresh<3,4,5>")
    ring = domain.payload
    kept = numsgr.ideal_normalize(ring, [3, 7])
    make_handle(domain, kept)
    monkeypatch.setattr(type(domain.engine), "regenerate", lambda self, witness: numsgr.ring_ideal(ring))
    # an equal payload that is still alive was verified already
    assert make_handle(domain, numsgr.ideal_normalize(ring, [3, 7])).payload == kept
    with pytest.raises(ConsistencyError):
        make_handle(domain, numsgr.ideal_normalize(ring, [4, 5]))


def test_verified_payload_leaves_the_set_once_unreferenced(K_quad):
    import gc

    from semistar import dplusm
    from semistar.operations import pullback_domain

    domain = pullback_domain(K_quad, "Z", "pvd-fresh")
    gens = [(K_quad.gen(), 3)]
    handle = make_handle(domain, dplusm.module_from_generators(domain.payload, gens))
    assert handle.payload in domain.verified
    size = len(domain.verified)
    del handle
    gc.collect()
    assert len(domain.verified) == size - 1
    assert dplusm.module_from_generators(domain.payload, gens) not in domain.verified


class _RejectedRng:
    """Every draw lands where rejection sampling rejects it: uniform draws
    give an open tail, integer draws give 0."""

    def random(self):
        return 0.9

    def randint(self, lo, hi):
        return 0 if lo <= 0 <= hi else lo


def test_sampling_loops_stop_at_their_cap(dom_318):
    from oracles import _small_positive
    from semistar.algebra import ValueGroup

    with pytest.raises(AlgebraError, match="attempts"):
        dom_318.engine.sample_fg_ideal(_RejectedRng(), SPEC)
    with pytest.raises(AlgebraError, match="attempts"):
        _small_positive(ValueGroup("Z"), _RejectedRng(), 8)


def test_overring_and_localized_domains_are_built_once(dom_pvd, dom_345, dom_vq, dom_lex):
    from semistar.operations import spec_op

    for domain in (dom_pvd, dom_345, dom_vq):
        over = domain.overring
        assert domain.overring is over
        assert domain.engine.to_overring(domain.overring_unit, over).domain is over
    assert dom_vq.overring is dom_vq
    p1 = spec_op("P1")
    assert apply(p1, unit_handle(dom_lex)).domain is apply(p1, maximal_handle(dom_lex)).domain


# ---------------------------------------------------------------------------
# each operation is compiled once per domain

def _count_calls(monkeypatch, engine, hook, payload):
    """Count the calls of an engine hook whose last argument equals payload."""
    calls = []
    original = getattr(engine, hook)

    def counted(*args):
        calls.append(args[-1] == payload)
        return original(*args)

    monkeypatch.setattr(engine, hook, counted)
    return calls


def test_bar_derives_its_data_once_per_domain(monkeypatch, K_quad):
    from semistar.operations import compile_op, pullback_domain

    dom = pullback_domain(K_quad, "Z", "pvd-compile-once")
    ideals = []
    for e in probe_ideals(dom, SampleSpec(seed=5, count=80), n=80):
        if all(e.payload != seen.payload for seen in ideals):
            ideals.append(e)
    ideals = ideals[:20]
    assert len(ideals) == 20
    calls = _count_calls(monkeypatch, dom.engine, "v", dom.unit.payload)
    barred = bar_op(v_op())
    images = [apply(barred, e) for e in ideals]
    assert sum(calls) == 1  # D^v, for the localizing system and its meet
    assert dom.fact(compile_op, barred).kind == "identity"  # the system is {D}
    assert all(handle_eq(img, handle_colon(e, unit_handle(dom))) for img, e in zip(images, ideals))


def test_v_builds_the_unit_module_once_per_domain(monkeypatch, K_quad):
    from semistar import dplusm
    from semistar.operations import pullback_domain

    built = []
    original = dplusm.unit_module

    def counted(pd):
        built.append(pd)
        return original(pd)

    monkeypatch.setattr(dplusm, "unit_module", counted)
    dom = pullback_domain(K_quad, "Q", "p318-v-unit-once")
    ideals = [make_handle(dom, dplusm.module_from_generators(dom.payload, [(K_quad.gen(), k)])) for k in range(10)]
    images = [apply(v_op(), e) for e in ideals]
    assert len(built) <= 1
    assert all(handle_eq(img, e) for img, e in zip(images, ideals))  # principal ideals are divisorial


def test_finite_type_computes_the_envelope_image_once(monkeypatch, K_triv):
    from fractions import Fraction

    from semistar.algebra import Segment
    from semistar.operations import compile_op, valuation_domain

    dom = valuation_domain(K_triv, "Q", "v-q-compile-once")
    over = dom.overring_unit
    calls = _count_calls(monkeypatch, dom.engine, "extend", over.payload)
    ft_v = SemistarOp("ft", inner=st_op("V"))  # ft_op would fold it: st[V] is of finite type
    for k in range(-6, 6):
        e = make_handle(dom, Segment.make(dom.payload_group, "open", Fraction(k, 3)))
        assert not e.finitely_generated
        assert handle_eq(apply(ft_v, e), apply(st_op("V"), e))
    assert dom.fact(compile_op, ft_v).kind == "ft-of"
    # the envelope image (V)^st[V] once; the direct st[V] evaluations never see V itself
    assert sum(calls) == 1


def test_bar_with_a_nontrivial_system_is_the_colon_by_its_meet(dom_318):
    from semistar.operations import compile_op, op_closed_form

    barred = bar_op(desc_op(v_op()))  # (M V)^v = V over a dense group: the system is {M}
    assert dom_318.fact(compile_op, barred).kind == "colon-by"
    assert op_closed_form(barred, dom_318) == "colon-M"
    m = maximal_handle(dom_318)
    for e in probe_ideals(dom_318, SPEC, n=24):
        assert handle_eq(apply(barred, e), handle_colon(e, m))


def test_colon_by_the_unit_is_the_identity(dom_345, dom_pvd, dom_318, dom_vq, dom_vz, dom_lex):
    """A trivial localizing system compiles bar to the identity: (E : D) = E."""
    for dom in (dom_345, dom_pvd, dom_318, dom_vq, dom_vz, dom_lex):
        for e in probe_ideals(dom, SPEC, n=24):
            assert handle_colon(e, unit_handle(dom)).payload == e.payload


@pytest.mark.parametrize("op", [
    bar_op(st_op("K")),  # known stable: runs st[K] itself
    SemistarOp("ft", inner=st_op("K")),  # all ideals finitely generated: runs st[K] itself
    bar_op(desc_op(st_op("K"))),  # D^op fails while compiling, and the failure is stored
])
def test_a_failing_inner_operation_fails_on_every_apply(dom_345, op):
    for e in (unit_handle(dom_345), maximal_handle(dom_345), unit_handle(dom_345)):
        with pytest.raises(UnsupportedOperation, match="full quotient field"):
            apply(op, e)
