"""Pins for branches the rest of the suite never reaches: `op_leq` past its
syntactic shortcut, and the semigroup-ring bodies of overring ascent and
descent.  Every expected value here was recorded before the engine protocol
took these branches over, so a change in any of them is a behaviour change."""

from __future__ import annotations

import pytest

from semistar.classify import probe_ideals
from semistar.exprs import eval_expr, parse_domain, parse_expr, parse_op
from semistar.laws import check_axioms, check_basic_formulas
from semistar.operations import UnsupportedOperation, apply, op_leq
from semistar.verdict import SampleSpec

SPEC = SampleSpec(seed=2, count=30)


def _op_leq(domain_text, lhs, rhs):
    domain = parse_domain(domain_text)
    universe = probe_ideals(domain, SPEC, n=10)
    return op_leq(parse_op(lhs), parse_op(rhs), universe)


def test_op_leq_decides_valuation_ops_by_unit_and_maximal():
    text = "family=valuation base_field=Q group=Q"
    below = _op_leq(text, "st[V]", "v")
    assert below.is_holds and below.reason == "determined-by-unit-and-maximal"
    above = _op_leq(text, "v", "st[V]")
    assert above.is_refuted and repr(above.witness[0]) == "t(0)*M"


def test_op_leq_on_the_rank_two_valuation_domain():
    verdict = _op_leq("family=valuation base_field=Q group=ZxZ_lex", "bar(v)", "d")
    assert verdict.is_holds and verdict.reason == "determined-by-unit-and-maximal"


def test_op_leq_refutes_on_a_pullback():
    verdict = _op_leq("family=pullback base_field=Q extension=a^2-2 group=Q", "st[V]", "v")
    assert verdict.is_refuted and repr(verdict.witness[0]) == "<1*t(0)>"


NUMSGR = "family=numsgr generators=[3,4,5]"


def test_semigroup_descent_through_the_hull():
    domain = parse_domain(NUMSGR)
    value = eval_expr(parse_expr("apply[desc(v)](<x^3, x^4>)", domain), domain)
    assert repr(value) == "<x^3, x^4, x^5>"


@pytest.mark.parametrize("op_text", ["desc(d)", "desc(v)", "desc(st[ic])"])
def test_semigroup_descent_obeys_the_closure_laws(op_text):
    domain = parse_domain(NUMSGR)
    op = parse_op(op_text)
    assert check_axioms(domain, op, SPEC) == []
    assert check_basic_formulas(domain, op, SPEC) == []


def test_semigroup_ascent_rejects_a_non_hull_ideal():
    domain = parse_domain(NUMSGR)
    ideal = eval_expr(parse_expr("<x^4>", domain), domain)
    with pytest.raises(UnsupportedOperation, match="not an ideal of the overring"):
        apply(parse_op("asc(v)"), ideal)
