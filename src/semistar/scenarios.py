"""The shipped scenario catalog: executable forms of the worked examples.

Each scenario fixes a domain, a couple of operations, and a list of
assertions (expression identities and predicate verdicts), each tagged with
a stable anchor string for report diffing.  run_scenarios evaluates them
deterministically under a SampleSpec and returns structured report rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, exprs
from .classify import probe_ideals
from .operations import handle_eq, handle_leq, ops_equal_on, quasi_star_maximals
from .verdict import SampleSpec, holds, refuted


@dataclass(frozen=True)
class Assertion:
    anchor: str
    kind: str  # expr_eq | expr_neq | expr_lt | expr_fmt | op_eq | verdict
    lhs: str
    rhs: str = ""
    op: str = ""  # operation term for verdict assertions
    predicate: str = ""  # verdict assertions: which predicate
    target: str = ""  # verdict assertions over a specific ideal
    expected: str = ""  # holds | refuted | not-refuted


@dataclass(frozen=True)
class Scenario:
    name: str
    domain_text: str
    assertions: tuple


def _a(anchor, kind, lhs, rhs="", **kw):
    return Assertion(anchor=anchor, kind=kind, lhs=lhs, rhs=rhs, **kw)


SCENARIOS = (
    Scenario(
        name="numsgr-345",
        domain_text="family=numsgr generators=[3,4,5]",
        assertions=(
            _a("divisorial-closure-e", "expr_eq", "v(<x^3, x^4>)", "<x^3, x^4, x^5>"),
            _a("divisorial-closure-f", "expr_eq", "v(<x^3, x^5>)", "<x^3, x^4, x^5>"),
            _a("meet-of-generated", "expr_eq", "<x^3, x^4> & <x^3, x^5>", "<x^3>"),
            _a("principal-divisorial", "expr_eq", "v(<x^3>)", "<x^3>"),
            _a("meet-closure-strict", "expr_lt",
               "v(<x^3, x^4> & <x^3, x^5>)", "v(<x^3, x^4>) & v(<x^3, x^5>)"),
            _a("sum-is-maximal", "expr_eq", "<x^3, x^4> + <x^3, x^5>", "M"),
            _a("inverse-of-generated", "expr_eq", "inv(<x^3, x^4>)", "<x^0, x^1, x^2>"),
            _a("extracoherence-fails", "verdict", "", op="v",
               predicate="coherence:Extracoherent", expected="refuted"),
            _a("coherent-ring", "verdict", "", op="v",
               predicate="coherence:Coherent", expected="not-refuted"),
            _a("finite-character", "verdict", "", op="v", predicate="H", expected="holds"),
            _a("chain-condition", "verdict", "", op="v", predicate="noetherian", expected="holds"),
            _a("not-divisorial-domain", "verdict", "", op="v",
               predicate="star_domain", expected="refuted"),
        ),
    ),
    Scenario(
        name="coherent-3.18",
        domain_text="family=pullback base_field=Q extension=a^2-2 group=Q",
        assertions=(
            _a("meet-of-twisted-principals", "expr_eq",
               "<1*t(1)> & <a*t(1)>", "<1*t(1)> * M"),
            _a("extended-images-meet", "expr_eq",
               "st[V](<1*t(1)>) & st[V](<a*t(1)>)", "st[V](<1*t(1)>)"),
            _a("meet-then-extend", "expr_eq",
               "st[V](<1*t(1)> & <a*t(1)>)", "<1*t(1)> * M"),
            _a("extend-meet-gap", "expr_neq",
               "st[V](<1*t(1)> & <a*t(1)>)", "st[V](<1*t(1)>)"),
            _a("idempotent-maximal", "expr_eq", "M * M", "M"),
            _a("coherent-holds", "verdict", "", op="st[V]",
               predicate="coherence:Coherent", expected="not-refuted"),
            _a("truly-coherent-fails", "verdict", "", op="st[V]",
               predicate="coherence:TrulyCoherent", expected="refuted"),
            _a("maximal-multiple-not-star-finite", "verdict", "", op="st[V]",
               predicate="star_finite", target="<1*t(1)> * M", expected="refuted"),
            _a("not-pstarmd", "verdict", "", op="st[V]", predicate="pstarmd", expected="refuted"),
            _a("ab-operation", "verdict", "", op="st[V]", predicate="ab", expected="holds"),
        ),
    ),
    Scenario(
        name="pvd-2.6",
        domain_text="family=pullback base_field=Q extension=a^2-2 group=Z",
        assertions=(
            _a("inverse-of-maximal", "expr_eq", "inv(M)", "V"),
            _a("endomorphisms-of-maximal", "expr_eq", "M : M", "V"),
            _a("trace-ideal", "expr_eq", "st[V](M * inv(M))", "M"),
            _a("trace-gap", "expr_neq", "st[V](M * inv(M))", "st[V](D)"),
            _a("maximal-finitely-generated", "verdict", "", predicate="fg",
               target="M", expected="holds"),
            _a("maximal-equals-two-generators", "expr_eq", "<1*t(1), a*t(1)>", "M"),
            _a("not-star-invertible", "verdict", "", op="st[V]", predicate="invertible",
               target="M", expected="refuted"),
            _a("quasi-maximal-spectrum", "verdict", "", op="st[V]", predicate="quasi",
               target="M", expected="holds"),
            _a("not-star-domain", "verdict", "", op="st[V]",
               predicate="star_domain", expected="refuted"),
            _a("not-pstarmd", "verdict", "", op="st[V]", predicate="pstarmd", expected="refuted"),
            _a("ab-operation", "verdict", "", op="st[V]", predicate="ab", expected="holds"),
            _a("stable-closure-trivial", "op_eq", "bar(st[V])", "d", expected="holds"),
        ),
    ),
    Scenario(
        name="flatness-2.14",
        domain_text="family=pullback base_field=Q extension=a^2-2 group=Z",
        assertions=(
            _a("descent-equals-extension", "op_eq", "desc(d)", "st[V]", expected="not-refuted"),
            _a("descended-trace", "expr_eq", "apply[desc(d)](M * inv(M))", "M"),
            _a("descended-trace-not-unit", "expr_neq",
               "apply[desc(d)](M * inv(M))", "apply[desc(d)](D)"),
            _a("colon-endomorphism-ring", "expr_eq", "D : M", "M : M"),
            _a("not-descended-domain", "verdict", "", op="desc(d)",
               predicate="star_domain", expected="refuted"),
            _a("tilde-collapses", "op_eq", "tilde(st[V])", "d", expected="holds"),
            _a("tilde-strictly-below", "op_eq", "tilde(st[V])", "st[V]", expected="refuted"),
        ),
    ),
    Scenario(
        name="valuation-H-4.4",
        domain_text="family=valuation base_field=Q group=Q",
        assertions=(
            _a("maximal-divisorial-closure", "expr_eq", "v(M)", "V"),
            _a("maximal-v-strict", "expr_lt", "M", "v(M)"),
            _a("finite-type-fixes-maximal", "expr_eq", "t(M)", "M"),
            _a("tilde-fixes-maximal", "expr_eq", "w(M)", "M"),
            _a("w-equals-d", "op_eq", "w", "d", expected="holds"),
            _a("t-equals-d", "op_eq", "t", "d", expected="holds"),
            _a("stable-v-equals-v", "op_eq", "bar(v)", "v", expected="holds"),
            _a("t-strictly-below-v", "op_eq", "t", "v", expected="refuted"),
            _a("not-finite-character", "verdict", "", op="v", predicate="H", expected="refuted"),
            _a("pvmd", "verdict", "", op="v", predicate="pstarmd", expected="holds"),
            _a("i-domain", "verdict", "", op="v", predicate="I", expected="holds"),
        ),
    ),
    Scenario(
        name="spectral-rank2",
        domain_text="family=valuation base_field=Q group=ZxZ_lex",
        assertions=(
            _a("principal-projects", "expr_fmt", "apply[spec{P1}](<1*t(1,5)>)", "<1*t(1)>"),
            _a("negative-tail-projects", "expr_fmt", "apply[spec{P1}](<1*t(1,-3)>)", "<1*t(1)>"),
            _a("maximal-projects", "expr_fmt", "apply[spec{P1}](M)", "<1*t(0)>"),
            _a("essential-invertibility", "expr_fmt",
               "apply[spec{P1}](<1*t(2,-7)> * inv(<1*t(2,-7)>))", "<1*t(0)>"),
            _a("spectral-at-maximal-fixes", "expr_eq", "apply[spec{M}](<1*t(3,4)>)", "<1*t(3,4)>"),
            _a("divisorial-maximal", "expr_eq", "v(M)", "M"),
            _a("spectral-star-domain", "verdict", "", op="spec{P1}",
               predicate="star_domain", expected="holds"),
            _a("not-noetherian", "verdict", "", op="d", predicate="noetherian", expected="refuted"),
        ),
    ),
)


INSTANCE_CATALOG = (
    ("family=numsgr generators=[3,4,5]", ("d", "v", "t", "w", "st[ic]", "bar(v)")),
    ("family=pullback base_field=Q extension=a^2-2 group=Z",
     ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])", "desc(d)", "desc(v)")),
    ("family=pullback base_field=Q extension=a^2-2 group=Q",
     ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])")),
    ("family=valuation base_field=Q group=Q", ("d", "v", "t", "w", "bar(v)", "st[K]")),
    ("family=valuation base_field=Q group=Z", ("d", "v")),
    ("family=valuation base_field=Q group=ZxZ_lex", ("d", "v", "spec{M}", "spec{P1}")),
)


def catalog_instances():
    """Every (domain, operation) pair exercised by the law and theorem suites."""
    out = []
    for domain_text, op_texts in INSTANCE_CATALOG:
        domain = exprs.parse_domain(domain_text)
        out.append((domain, [exprs.parse_op(t) for t in op_texts]))
    return out


def scenario_names():
    return [s.name for s in SCENARIOS]


def get_scenario(name: str) -> Scenario:
    for s in SCENARIOS:
        if s.name == name:
            return s
    raise KeyError(f"unknown scenario {name!r}; known: {scenario_names()}")


# ---------------------------------------------------------------------------
# evaluation

def _run_verdict(domain, assertion: Assertion, spec: SampleSpec):
    op = exprs.parse_op(assertion.op) if assertion.op else None
    pred = assertion.predicate
    if pred == "fg":
        h = exprs.eval_expr(exprs.parse_expr(assertion.target, domain), domain)
        return holds("witnessed") if h.finitely_generated else refuted(h, detail="no finite witness")
    if pred == "invertible":
        h = exprs.eval_expr(exprs.parse_expr(assertion.target, domain), domain)
        ok = classify.is_star_invertible(op, h)
        return holds("computed") if ok else refuted(h, detail="not star-invertible")
    if pred == "quasi":
        maxes = quasi_star_maximals(op, domain)
        return holds("maximal-ideal-quasi") if maxes == ("M",) else refuted(maxes, detail="empty quasi spectrum")
    if pred == "star_finite":
        h = exprs.eval_expr(exprs.parse_expr(assertion.target, domain), domain)
        return classify.is_star_finite(op, h, spec)
    if pred.startswith("coherence:"):
        return classify.coherence_check(domain, pred.split(":", 1)[1], op, spec)
    table = {
        "star_domain": lambda: classify.is_star_domain(domain, op, spec),
        "pstarmd": lambda: classify.is_pstarmd(domain, op, spec),
        "ab": lambda: classify.is_ab(domain, op, spec),
        "eab": lambda: classify.is_eab(domain, op, spec),
        "H": lambda: classify.is_H_domain(domain, op, spec),
        "I": lambda: classify.is_I_domain(domain, op, spec),
        "noetherian": lambda: classify.is_star_noetherian(domain, op),
        "dedekind": lambda: classify.is_star_dedekind(domain, op, spec),
    }
    return table[pred]()


def _verdict_matches(expected: str, verdict) -> bool:
    if expected == "holds":
        return verdict.is_holds
    if expected == "refuted":
        return verdict.is_refuted
    if expected == "not-refuted":
        return not verdict.is_refuted
    raise ValueError(f"unknown expectation {expected!r}")


def run_scenario(scenario: Scenario, spec: SampleSpec):
    domain = exprs.parse_domain(scenario.domain_text)
    rows = []
    for assertion in scenario.assertions:
        row = {
            "scenario": scenario.name,
            "anchor": assertion.anchor,
            "expr_or_predicate": "",
            "expected": "",
            "actual": "",
            "outcome": "FAIL",
        }
        if assertion.kind in ("expr_eq", "expr_neq", "expr_lt"):
            lhs = exprs.eval_expr(exprs.parse_expr(assertion.lhs, domain), domain)
            rhs = exprs.eval_expr(exprs.parse_expr(assertion.rhs, domain), domain)
            relation = {"expr_eq": "==", "expr_neq": "!=", "expr_lt": "<"}[assertion.kind]
            row["expr_or_predicate"] = f"{assertion.lhs} {relation} {assertion.rhs}"
            row["expected"] = relation
            if assertion.kind == "expr_eq":
                ok = handle_eq(lhs, rhs)
            elif assertion.kind == "expr_neq":
                ok = not handle_eq(lhs, rhs)
            else:
                ok = handle_leq(lhs, rhs) and not handle_eq(lhs, rhs)
            row["actual"] = f"{lhs!r} vs {rhs!r}"
            row["outcome"] = "PASS" if ok else "FAIL"
        elif assertion.kind == "expr_fmt":
            lhs = exprs.eval_expr(exprs.parse_expr(assertion.lhs, domain), domain)
            row["expr_or_predicate"] = assertion.lhs
            row["expected"] = assertion.rhs
            row["actual"] = repr(lhs)
            row["outcome"] = "PASS" if repr(lhs) == assertion.rhs else "FAIL"
        elif assertion.kind == "op_eq":
            op1 = exprs.parse_op(assertion.lhs)
            op2 = exprs.parse_op(assertion.rhs)
            universe = probe_ideals(domain, spec, n=50)
            verdict = ops_equal_on(op1, op2, universe)
            row["expr_or_predicate"] = f"{assertion.lhs} == {assertion.rhs} (as operations)"
            row["expected"] = assertion.expected
            row["actual"] = verdict.summary()
            row["outcome"] = "PASS" if _verdict_matches(assertion.expected, verdict) else "FAIL"
        elif assertion.kind == "verdict":
            verdict = _run_verdict(domain, assertion, spec)
            subject = assertion.predicate + (f"[{assertion.op}]" if assertion.op else "")
            if assertion.target:
                subject += f" @ {assertion.target}"
            row["expr_or_predicate"] = subject
            row["expected"] = assertion.expected
            row["actual"] = verdict.summary()
            row["outcome"] = "PASS" if _verdict_matches(assertion.expected, verdict) else "FAIL"
        else:
            raise ValueError(f"unknown assertion kind {assertion.kind!r}")
        rows.append(row)
    return rows


def run_scenarios(names, spec: SampleSpec):
    """Run the named scenarios (or all); returns (exit_code, rows)."""
    if names in (None, "all") or names == ["all"]:
        chosen = list(SCENARIOS)
    else:
        if isinstance(names, str):
            names = [names]
        chosen = [get_scenario(n) for n in names]
    rows = []
    for s in chosen:
        rows.extend(run_scenario(s, spec))
    rows.sort(key=lambda r: (r["scenario"], r["anchor"]))
    code = 0 if all(r["outcome"] == "PASS" for r in rows) else 1
    return code, rows
