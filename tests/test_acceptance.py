"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Everything here is exact; the only tolerances are the wall-clock budgets,
which are asserted as stated.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import time

from semistar import dplusm
from semistar.classify import COHERENT, TRULY_COHERENT, coherence_check, h_clauses, is_H_domain, is_I_domain, is_pstarmd, is_star_domain
from semistar.exprs import eval_expr, parse_domain, parse_expr
from semistar.laws import check_axioms, check_basic_formulas
from semistar.numsgr import (
    NumericalSemigroup,
    enumerate_ideals,
    ideal_colon,
    ideal_intersect,
    ideal_mul,
    ideal_sum,
    v_closure,
)
from semistar.operations import (
    apply,
    handle_add,
    handle_eq,
    handle_intersect,
    handle_leq,
    handle_mul,
    make_handle,
    maximal_handle,
    ops_equal_on,
    quasi_star_maximals,
    st_op,
    tilde_op,
    unit_handle,
    v_op,
)
from semistar.scenarios import catalog_instances, run_scenarios
from semistar.theorems import theorem_suite
from semistar.verdict import SampleSpec
from semistar.classify import probe_ideals

import oracles
from oracles import BitsetOracle, contains_vector

SPEC = SampleSpec(seed=0, count=200)


def _report(criterion: str, elapsed: float, budget: float):
    assert elapsed < budget, f"ACCEPTANCE {criterion}: FAIL ({elapsed:.2f}s >= {budget:.0f}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_numsgr_345():
    t0 = time.monotonic()
    domain = parse_domain("family=numsgr generators=[3,4,5]")

    def ev(text):
        return eval_expr(parse_expr(text, domain), domain)

    m = ev("<x^3, x^4, x^5>")
    assert handle_eq(ev("v(<x^3, x^4>)"), m)
    assert handle_eq(ev("v(<x^3, x^5>)"), m)
    assert ev("<x^3, x^4> & <x^3, x^5>").payload.gens == (3,)
    assert ev("v(<x^3>)").payload.gens == (3,)
    lhs = ev("v(<x^3, x^4> & <x^3, x^5>)")
    rhs = ev("v(<x^3, x^4>) & v(<x^3, x^5>)")
    assert handle_leq(lhs, rhs) and not handle_eq(lhs, rhs)
    code, rows = run_scenarios("numsgr-345", SPEC)
    assert code == 0
    _report("1 (numsgr-345)", time.monotonic() - t0, 1.0)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_coherent_318():
    t0 = time.monotonic()
    domain = parse_domain("family=pullback base_field=Q extension=a^2-2 group=Q")

    def ev(text):
        return eval_expr(parse_expr(text, domain), domain)

    mm = ev("<1*t(1)> * M")
    mv = ev("st[V](<1*t(1)>)")
    assert handle_eq(ev("<1*t(1)> & <a*t(1)>"), mm)
    assert handle_eq(ev("st[V](<1*t(1)>) & st[V](<a*t(1)>)"), mv)
    got = ev("st[V](<1*t(1)> & <a*t(1)>)")
    assert handle_eq(got, mm) and not handle_eq(got, mv)

    st = st_op("V")
    coh = coherence_check(domain, COHERENT, st, SPEC)
    assert not coh.is_refuted
    truly = coherence_check(domain, TRULY_COHERENT, st, SPEC)
    assert truly.is_refuted
    e, f = truly.witness[:2]
    assert {repr(e), repr(f)} == {"<1*t(1)>", "<a*t(1)>"}
    code, rows = run_scenarios("coherent-3.18", SPEC)
    assert code == 0
    _report("2 (coherent-3.18)", time.monotonic() - t0, 5.0)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_pvd():
    t0 = time.monotonic()
    domain = parse_domain("family=pullback base_field=Q extension=a^2-2 group=Z")

    def ev(text):
        return eval_expr(parse_expr(text, domain), domain)

    st = st_op("V")
    m = maximal_handle(domain)
    trace = apply(st, handle_mul(m, ev("inv(M)")))
    assert handle_eq(trace, m)
    dstar = apply(st, unit_handle(domain))
    assert not handle_eq(trace, dstar)
    assert handle_eq(dstar, ev("V"))
    assert m.finitely_generated
    assert quasi_star_maximals(st, domain) == ("M",)
    sd = is_star_domain(domain, st, SPEC)
    assert sd.is_refuted and handle_eq(sd.witness[0], m)
    assert is_pstarmd(domain, st, SPEC).is_refuted
    code, rows = run_scenarios("pvd-2.6", SPEC)
    assert code == 0
    _report("3 (pvd-2.6)", time.monotonic() - t0, 1.0)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_valuation_H():
    t0 = time.monotonic()
    domain = parse_domain("family=valuation base_field=Q group=Q")
    v = v_op()
    m = maximal_handle(domain)
    d = unit_handle(domain)
    assert handle_eq(apply(v, m), d)  # M^v = V
    from semistar.operations import bar_op, d_op, t_op, w_op

    assert handle_eq(apply(t_op(), m), m)
    universe = probe_ideals(domain, SPEC, n=50)
    assert len(universe) >= 50
    assert ops_equal_on(w_op(), d_op(), universe).is_holds
    assert ops_equal_on(t_op(), d_op(), universe).is_holds
    assert ops_equal_on(bar_op(v), v, universe).is_holds
    clauses = h_clauses(domain, v, SPEC)
    decided = {k: vv for k, vv in clauses.items() if not vv.is_unknown}
    for key in ("systems-equal", "tilde-equals-bar", "prime-witness"):
        assert key in decided and decided[key].is_refuted
    assert is_H_domain(domain, v, SPEC).is_refuted
    assert is_pstarmd(domain, v, SPEC).is_holds
    assert is_I_domain(domain, v, SPEC).is_holds
    code, rows = run_scenarios("valuation-H-4.4", SPEC)
    assert code == 0
    _report("4 (valuation-H-4.4)", time.monotonic() - t0, 2.0)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_axiom_suite():
    t0 = time.monotonic()
    for domain, ops in catalog_instances():
        for op in ops:
            failures = check_axioms(domain, op, SPEC, count=200)
            assert not failures, f"{domain.name}/{op!r}: {failures[:3]}"
            failures = check_basic_formulas(domain, op, SPEC, count=200)
            assert not failures, f"{domain.name}/{op!r}: {failures[:3]}"
    _report("5 (axiom suite)", time.monotonic() - t0, 60.0)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_sum_meet_product_identity():
    t0 = time.monotonic()
    for group in ("Z", "Q", "ZxZ_lex"):
        domain = parse_domain(f"family=valuation base_field=Q group={group}")
        assert is_pstarmd(domain, v_op(), SPEC).is_holds
        top = tilde_op(v_op())
        rng = SPEC.rng(f"p312/{group}")
        eng = domain.engine
        for _ in range(100):
            e = make_handle(domain, eng.sample_fg_ideal(rng, SPEC))
            f = make_handle(domain, eng.sample_fg_ideal(rng, SPEC))
            lhs = apply(top, handle_mul(handle_add(e, f), handle_intersect(e, f)))
            rhs = apply(top, handle_mul(e, f))
            assert handle_eq(lhs, rhs)
    _report("6 (sum-meet product identity)", time.monotonic() - t0, 30.0)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    for gens in ([3, 4, 5], [2, 3], [4, 6, 9]):
        ring = NumericalSemigroup.create(gens)
        hi = ring.frobenius + 6
        c = ring.conductor
        offset = -hi - 2 * c
        width = 2 * hi + 2 * c + 2 - offset
        oracle = BitsetOracle(ring, offset, width)
        ideals = enumerate_ideals(ring, 0, hi)
        masks = {i.gens: oracle.expand(i.gens) for i in ideals}
        for a, b in itertools.product(ideals, repeat=2):
            xa, xb = masks[a.gens], masks[b.gens]
            assert oracle.minimal_generators(oracle.sum(xa, xb)) == ideal_sum(a, b).gens
            assert oracle.minimal_generators(oracle.mul(xa, xb)) == ideal_mul(a, b).gens
            assert oracle.minimal_generators(oracle.intersect(xa, xb)) == ideal_intersect(a, b).gens
            assert oracle.minimal_generators(oracle.colon(xa, xb)) == ideal_colon(a, b).gens
        xd = oracle.expand((0,))
        for a in ideals:  # v(a) = (D : (D : a)) by set arithmetic
            assert oracle.minimal_generators(oracle.colon(xd, oracle.colon(xd, masks[a.gens]))) == v_closure(a).gens

    # leveled-module membership vs greedy leading-term reduction, 500 cases
    domain = parse_domain("family=pullback base_field=Q extension=a^2-2 group=Q")
    pd = domain.payload
    K = pd.residue_ext
    rng = random.Random(0)
    checked = 0
    while checked < 500:
        gens = [(K.rand_nonzero(rng, 3), pd.group.rand(rng, 4)) for _ in range(rng.randint(1, 3))]
        mod = dplusm.module_from_generators(pd, gens)
        acc = ()
        for cf, g in gens:
            acc = oracles.exp_add(pd, acc, oracles.exp_mul(pd, ((g, cf),), oracles.random_domain_element(pd, rng)))
        if acc:
            assert oracles.exp_member(mod, acc)
            checked += 1
        j, _ = oracles.jump_and_tail(mod)
        if j is not None and j[1].dim < K.degree:
            bad = K.rand_nonzero(rng, 3)
            if not contains_vector(j[1], bad):
                assert not oracles.exp_member(mod, ((j[0], bad),))
                checked += 1
    _report("7 (oracle equivalence)", time.monotonic() - t0, 120.0)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_theorem_lattice():
    t0 = time.monotonic()
    suite_spec = SampleSpec(seed=0, count=60)
    for domain, ops in catalog_instances():
        for op in ops:
            if op.kind == "spec" and op.tag == "P1":
                continue  # domain-changing operation: predicates stay within one domain
            report = theorem_suite(domain, op, suite_spec)
            bad = [l for l in report.lines if l.outcome == "violation"]
            assert report.ok, f"{domain.name}/{op!r}: {bad}"
    _report("8 (theorem lattice)", time.monotonic() - t0, 120.0)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_cli_goldens():
    t0 = time.monotonic()
    from semistar.cli import _render_json, _render_text

    golden_dir = pathlib.Path(__file__).parent / "goldens"
    code, rows = run_scenarios("all", SampleSpec(seed=0, count=200))
    assert code == 0
    assert (golden_dir / "scenarios_seed0.json").read_text(encoding="utf-8") == _render_json(rows)
    assert (golden_dir / "scenarios_seed0.txt").read_text(encoding="utf-8") == _render_text(rows)
    _report("9 (CLI goldens)", time.monotonic() - t0, 30.0)
