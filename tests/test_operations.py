"""Operation terms, evaluators, derived closures, and their laws."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semistar.algebra import AlgebraError, ExtensionField, PrimeField, Rationals
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
from semistar.exprs import parse_op
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


def test_comparisons_across_the_localization_return_a_bool(dom_lex):
    """E V_P1 holds E; it lies back in E only when E is a V_P1-module, as the
    whole group is and the maximal ideal is not."""
    p1 = spec_op("P1")
    whole = make_handle(dom_lex, dom_lex.engine.whole())
    for e, fixed in ((maximal_handle(dom_lex), False), (unit_handle(dom_lex), False), (whole, True)):
        image = apply(p1, e)
        assert handle_leq(e, image) is True
        assert handle_leq(image, e) is fixed
        assert handle_eq(e, image) is fixed
        assert handle_eq(image, e) is fixed


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


def test_comparisons_reject_a_universe_not_led_by_d_and_m(dom_vq, dom_vz, dom_345):
    universe = probe_ideals(dom_vq, SPEC, n=10)
    unit, maximal = universe[:2]
    for bad in ([], universe[1:], [maximal, unit, *universe[2:]], universe[2:],
                [unit, maximal_handle(dom_vz)], [unit_handle(dom_345), maximal]):
        for compare in (ops_equal_on, op_leq):
            with pytest.raises(AlgebraError, match="starts with D and M"):
                compare(t_op(), v_op(), bad)
            with pytest.raises(AlgebraError, match="starts with D and M"):
                compare(d_op(), d_op(), bad)  # the syntactic shortcuts come after the check
    assert ops_equal_on(t_op(), v_op(), universe[:2]).is_refuted


def _derived_ops():
    """(domain, ops) over the catalog instances: op, ft(op), tilde(op),
    bar(op) and ft(bar(op)), op ranging over every operation the catalog
    names and the three overring extensions.  spec{P1} changes the domain
    and is skipped, as `--suite` skips it."""
    from semistar.scenarios import INSTANCE_CATALOG, catalog_instances

    texts = sorted({t for _, ts in INSTANCE_CATALOG for t in ts} - {"spec{P1}"} | {"st[V]", "st[ic]", "st[K]"})
    derived = [o for op in map(parse_op, texts) for o in (op, ft_op(op), tilde_op(op), bar_op(op), ft_op(bar_op(op)))]
    return [(domain, list(dict.fromkeys(derived))) for domain, _ in catalog_instances()]


def _closed_form_pairs():
    """(domain, op1, op2): every pair of two different closed forms among
    the derived operations of a catalog instance."""
    from semistar.operations import op_closed_form

    out = []
    for domain, ops in _derived_ops():
        closed = [(o, form) for o in ops if (form := op_closed_form(o, domain)) is not None]
        out += [(domain, o1, o2) for i, (o1, f1) in enumerate(closed) for o2, f2 in closed[i + 1:] if f1 != f2]
    return out


def test_distinct_closed_forms_are_refuted_at_d_or_m():
    """The walk refutes every pair of operations with two different closed
    forms at D or M, so no closed-form comparison needs a probe of its own."""
    refuted = 0
    for domain, o1, o2 in _closed_form_pairs():
        verdict = ops_equal_on(o1, o2, probe_ideals(domain, SPEC, n=32))
        assert verdict.is_refuted, (domain, o1, o2)
        assert verdict.witness[0] in (unit_handle(domain), maximal_handle(domain)), (domain, o1, o2)
        refuted += 1
    assert refuted >= 100


def test_a_closed_form_is_reported_only_for_an_operation_that_runs():
    """A closed form is a theorem source, so op_closed_form is None for
    every derived operation of a catalog instance that apply refuses on
    some ideal of its universe."""
    from semistar.operations import op_closed_form

    raising = 0
    for domain, ops in _derived_ops():
        universe = probe_ideals(domain, SPEC, n=8)
        for o in ops:
            try:
                for e in universe:
                    apply(o, e)
            except UnsupportedOperation:
                assert op_closed_form(o, domain) is None, (domain, o)
                raising += 1
    assert raising > 0


def _compare_or_raise(compare, *args):
    try:
        return compare(*args)
    except (UnsupportedOperation, AlgebraError) as exc:
        return type(exc), exc.args


def test_a_shared_image_table_gives_the_table_free_results():
    """Over every catalog instance, ops_equal_on and op_leq read one shared
    ImageTable exactly as they walk without one: the same verdicts and the
    same failures, on the suite's universe and on the prefix that h_clauses
    compares on, for the comparisons a suite makes."""
    from semistar.operations import ImageTable

    compared = 0
    for domain, ops in _derived_ops():
        universe = probe_ideals(domain, SPEC, n=32)
        prefix = probe_ideals(domain, SPEC, n=24)
        assert prefix == universe[:len(prefix)] and len(prefix) < len(universe)
        table = ImageTable(universe)
        for o in ops:
            ft, tilde, bar = ft_op(o), tilde_op(o), bar_op(o)
            pairs = [(tilde, ft), (tilde, ft_op(bar)), (ft_op(bar), ft), (tilde, bar), (ft, o), (bar, o)]
            for o1, o2 in pairs:
                for compare in (ops_equal_on, op_leq):
                    for u in (universe, prefix):
                        shared = _compare_or_raise(compare, o1, o2, u, table)
                        assert shared == _compare_or_raise(compare, o1, o2, u), (domain, compare, o1, o2, len(u))
                        compared += 1
    assert compared > 1000, compared


def test_a_walk_over_an_image_table_reads_only_a_prefix_of_its_universe(dom_vq, dom_vz):
    from semistar.operations import ImageTable

    universe = probe_ideals(dom_vq, SPEC, n=10)
    table = ImageTable(universe)
    assert ops_equal_on(t_op(), v_op(), universe[:2], table).is_refuted
    other = next(h for h in universe[3:] if h != universe[2])
    for bad in ([*universe[:2], other], universe + universe[2:3], universe[:1], []):
        for compare in (ops_equal_on, op_leq):
            with pytest.raises(AlgebraError, match="prefixes its image table's"):
                compare(v_op(), t_op(), bad, table)  # t <= v is syntactic; v <= t is walked
    with pytest.raises(AlgebraError, match="starts with D and M"):
        ImageTable(probe_ideals(dom_vz, SPEC, n=10)[1:])


def test_an_inner_delegate_reads_its_inner_operations_images(dom_345):
    """On a semigroup ring ft(v) runs v (all ideals are finitely generated):
    the table closes v once per ideal for both, and a failure of the table's
    source is raised afresh at the same index for every later reader."""
    from semistar import operations
    from semistar.operations import ImageTable

    universe = probe_ideals(dom_345, SPEC, n=12)
    table = ImageTable(universe)
    assert dom_345.fact(operations.compile_op, ft_op(v_op())).kind == "inner"
    assert ops_equal_on(ft_op(v_op()), v_op(), universe, table) == ops_equal_on(ft_op(v_op()), v_op(), universe)
    assert list(table.lists) == [v_op()]
    assert list(table.images(ft_op(v_op()))) == [apply(v_op(), e) for e in universe]
    with pytest.raises(UnsupportedOperation, match="quotient field"):
        ops_equal_on(st_op("K"), v_op(), universe, table)
    for _ in range(2):  # a stored failure, not a shorter list
        with pytest.raises(UnsupportedOperation, match="quotient field"):
            list(table.images(st_op("K")))


def test_st_k_on_a_semigroup_ring_has_no_closed_form(dom_345):
    from semistar.operations import op_closed_form

    assert op_closed_form(st_op("K"), dom_345) is None
    for _ in range(2):  # the compiled failure is raised afresh each time
        with pytest.raises(UnsupportedOperation, match="^the full quotient field of a semigroup ring is not representable$"):
            apply(st_op("K"), unit_handle(dom_345))


def test_a_closed_form_disagreement_the_walk_misses_is_a_consistency_error(monkeypatch, dom_vq):
    from semistar import operations
    from semistar.operations import ConsistencyError

    # d and spec{M} agree everywhere; give them two different closed forms
    monkeypatch.setattr(operations, "op_closed_form", lambda op, dom: op_to_text(op))
    with pytest.raises(ConsistencyError, match="differ but agree on D and M"):
        ops_equal_on(d_op(), spec_op("M"), probe_ideals(dom_vq, SPEC, n=10))


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


def _planted_payloads():
    """Payloads no operation builds, each paired with the domain it is handed to."""
    from semistar.algebra import Segment, Subspace, ValueGroup
    from semistar.dplusm import LeveledModule, module_from_generators
    from semistar.numsgr import MonomialIdeal, ideal_normalize

    dom_345 = semigroup_domain([3, 4, 5], "planted<3,4,5>")
    ring = dom_345.payload
    K = ExtensionField(Rationals(), [-2, 0, 1])
    dom_pvd = pullback_domain(K, "Z", "planted-pvd")
    jump = module_from_generators(dom_pvd.payload, [(K.gen(), 3)])  # rows ((0, 1),) at level 3
    dom_vq = valuation_domain(ExtensionField(Rationals(), [0, 1]), "Q", "planted-vq")
    return {
        "numsgr: x^6 - x^3 lies in S": (dom_345, MonomialIdeal(ring, (3, 6))),
        "numsgr: unsorted generators": (dom_345, MonomialIdeal(ring, (4, 3))),
        "numsgr: another ring": (dom_345, ideal_normalize(semigroup_domain([2, 3]).payload, [2, 3])),
        "pullback: a space row scaled by 2": (dom_pvd, LeveledModule(jump.domain, jump.hull, Subspace(K, ((0, 2),)))),
        "pullback: a full space kept as a jump": (dom_pvd, LeveledModule(jump.domain, jump.hull, Subspace.full(K))),
        "pullback: another domain": (dom_pvd, module_from_generators(pullback_domain(K, "Q").payload, [(K.gen(), 3)])),
        "valuation: another group": (dom_vq, Segment.closed(ValueGroup("Z"), 1)),
    }


@pytest.mark.parametrize("case", sorted(_planted_payloads()))
def test_make_handle_rejects_a_payload_that_is_not_canonical(case):
    from semistar.operations import ConsistencyError

    domain, payload = _planted_payloads()[case]
    assert not domain.engine.canonical(payload)
    with pytest.raises(ConsistencyError):
        make_handle(domain, payload)


# the check make_handle ran before canonical(a) replaced it, kept as the reference
DIFFERENTIAL = settings(derandomize=True, database=None, deadline=2000, max_examples=200)
_QQ, _F5 = Rationals(), PrimeField(5)
DIFF_DOMAINS = {
    "<3,4,5>": semigroup_domain([3, 4, 5]),
    "<4,6,9>": semigroup_domain([4, 6, 9]),
    "Q(sqrt2) over Z": pullback_domain(ExtensionField(_QQ, [-2, 0, 1]), "Z"),
    "Q(cbrt2) over Q": pullback_domain(ExtensionField(_QQ, [-2, 0, 0, 1]), "Q"),
    "F125 over Z": pullback_domain(ExtensionField(_F5, [1, 1, 0, 1]), "Z"),
    "V over Q": valuation_domain(ExtensionField(_QQ, [0, 1]), "Q"),
    "V over ZxZ": valuation_domain(ExtensionField(_QQ, [0, 1]), "ZxZ"),
}


def _round_trip(eng, a) -> bool:
    try:
        return eng.regenerate(eng.fg_witness(a)) == a
    except (ValueError, TypeError):  # no generators, a zero one, or a level outside the group
        return False


def _agrees_with_round_trip(domain, a):
    eng = domain.engine
    if eng.finitely_generated(a):
        assert eng.canonical(a) == _round_trip(eng, a), (domain, a)
    return eng.canonical(a)


@DIFFERENTIAL
@given(st.sampled_from(sorted(DIFF_DOMAINS)), st.integers(0, 2**32), st.booleans())
def test_canonical_agrees_with_the_round_trip_on_sampled_payloads(name, seed, integral):
    domain = DIFF_DOMAINS[name]
    a = domain.engine.sample_ideal(random.Random(seed), SPEC, integral)
    assert _agrees_with_round_trip(domain, a)  # every built payload is canonical


@st.composite
def raw_payloads(draw):
    """A domain and a payload assembled from raw fields: a generator tuple, or
    a row tuple at a closed level, or a closed segment in some group."""
    from semistar.algebra import Segment, Subspace, ValueGroup
    from semistar.algebra.linalg import rref
    from semistar.dplusm import LeveledModule
    from semistar.numsgr import MonomialIdeal

    domain = DIFF_DOMAINS[draw(st.sampled_from(sorted(DIFF_DOMAINS)))]
    eng = domain.engine
    if domain.family == "numsgr":
        return domain, MonomialIdeal(domain.payload, tuple(draw(st.lists(st.integers(-4, 14), max_size=5))))
    kind = draw(st.sampled_from([domain.payload_group.kind] * 3 + list(ValueGroup.KINDS)))
    group = ValueGroup(kind)
    level = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) if kind == "ZxZ" else draw(st.integers(-3, 3))
    hull = Segment.closed(group, level)
    if domain.family == "valuation":
        return domain, hull
    K = eng.K
    if K.base is _F5:
        entry = st.integers(-1, 5)  # the residues, and one out of range on each side
    else:
        entry = st.sampled_from([0, 0, 1, Fraction(-1, 2)])
    rows = draw(st.none() | st.lists(st.tuples(*[entry] * K.degree), max_size=K.degree))
    if rows and draw(st.booleans()):  # reduced rows, one entry of them maybe redrawn
        rows = list(rref(K.base, rows, K.degree)[0])
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, K.degree - 1))
            rows[i] = rows[i][:j] + (draw(entry),) + rows[i][j + 1:]
    return domain, LeveledModule(domain.payload, hull, None if rows is None else Subspace(K, tuple(rows)))


def _two_row_jump(name, rows):
    from semistar.algebra import Segment, Subspace
    from semistar.dplusm import LeveledModule

    domain = DIFF_DOMAINS[name]
    return domain, LeveledModule(domain.payload, Segment.closed(domain.payload_group, 1), Subspace(domain.engine.K, rows))


@DIFFERENTIAL
@given(raw_payloads())
@example(_two_row_jump("F125 over Z", ((1, 0, 2), (0, 1, 3))))
@example(_two_row_jump("F125 over Z", ((1, 0, 7), (0, 1, 3))))  # 7 is no residue mod 5
@example(_two_row_jump("Q(cbrt2) over Q", ((1, 0, Fraction(1, 2)), (0, 1, 0))))
@example(_two_row_jump("Q(cbrt2) over Q", ((1, 1, 0), (0, 1, 0))))  # a pivot not alone in its column
@example(_two_row_jump("Q(cbrt2) over Q", ((0, 1, 0), (1, 0, 0))))  # pivot columns decreasing
def test_canonical_agrees_with_the_round_trip_on_raw_payloads(case):
    _agrees_with_round_trip(*case)


def test_make_handle_builds_nothing(monkeypatch, dom_345, dom_pvd, dom_318, dom_vq, K_f5):
    """The canonical check reads a payload's fields: no normalization, no
    module from generators and no row reduction run inside make_handle."""
    from semistar import dplusm, numsgr
    from semistar.algebra import linalg

    domains = (dom_345, dom_pvd, dom_318, dom_vq, pullback_domain(K_f5, "Z", "pvd-f5"))
    rng = SPEC.rng("builds-nothing")
    payloads = [(d, d.engine.sample_ideal(rng, SPEC)) for d in domains for _ in range(20)]
    calls = []

    def counted(name, f):
        def spy(*args):
            calls.append(name)
            return f(*args)
        return spy

    for owner, name in ((numsgr, "ideal_normalize"), (dplusm, "module_from_generators"), (linalg, "rref")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    handles = [make_handle(d, a) for d, a in payloads]
    assert calls == []
    for h in handles:  # the spies see the round trip that the check replaced
        if h.finitely_generated:
            h.domain.engine.regenerate(h.fg_witness)
    assert set(calls) == {"ideal_normalize", "module_from_generators", "rref"}


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
