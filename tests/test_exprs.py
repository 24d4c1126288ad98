"""Domain files, operation terms, expression parsing, printing, evaluation."""

from __future__ import annotations

import pytest

from semistar.exprs import (
    ParseError,
    eval_expr,
    parse_domain,
    parse_expr,
    parse_op,
    print_expr,
)
from semistar.operations import handle_eq, maximal_handle, unit_handle


NUMSGR_TEXT = "family=numsgr generators=[3,4,5]"
PULLBACK_Q = "family=pullback base_field=Q extension=a^2-2 group=Q"
PULLBACK_Z = "family=pullback base_field=Q extension=a^2-2 group=Z"
VAL_Q = "family=valuation base_field=Q group=Q"
VAL_LEX = "family=valuation base_field=Q group=ZxZ_lex"


def test_parse_domains():
    d = parse_domain(NUMSGR_TEXT)
    assert d.family == "numsgr" and d.payload.generators == (3, 4, 5)
    p = parse_domain(PULLBACK_Q)
    assert p.family == "pullback" and p.payload.is_proper
    assert p.payload_group.kind == "Q"
    v = parse_domain(VAL_LEX)
    assert v.payload_group.kind == "ZxZ"
    fp = parse_domain("family=pullback base_field=Fp:5 extension=a^2-2 group=Z")
    assert fp.payload.residue_ext.base.p == 5


def test_parse_domain_rejections():
    with pytest.raises(ParseError):
        parse_domain("family=numsgr generators=[3,4,5] group=Z")
    with pytest.raises(ParseError):
        parse_domain("family=numsgr gens=[3,4]")
    with pytest.raises(ParseError):
        parse_domain("family=pullback base_field=Q group=R")
    with pytest.raises(ParseError):
        parse_domain("family=elliptic")
    with pytest.raises(ParseError):
        parse_domain(NUMSGR_TEXT + " generators=[2,3]")


EXPR_CORPUS = {
    NUMSGR_TEXT: [
        "D",
        "M",
        "<x^3, x^4>",
        "v(<x^3, x^4>)",
        "v(<x^3, x^4> & <x^3, x^5>)",
        "t(<x^3, x^5>)",
        "w(M)",
        "inv(<x^3, x^4>)",
        "<x^3, x^4> * <x^3, x^5>",
        "<x^3, x^4> + <x^3, x^5>",
        "D : <x^3, x^4>",
        "st[ic](<x^4>)",
        "bar[v](M)",
        "tilde[v](<x^3>)",
        "apply[ft(v)](M)",
        "(<x^3> + <x^4>) * <x^5>",
        "<x^3> & <x^4> : <x^5>",
    ],
    PULLBACK_Q: [
        "D",
        "M",
        "V",
        "<1*t(1)>",
        "<a*t(1)>",
        "<1*t(1), a*t(1)>",
        "<1+a*t(0)>",
        "<2*a*t(1/2)>",
        "<1/2*t(-1)>",
        "st[V](<1*t(1)> & <a*t(1)>)",
        "v(M)",
        "M : M",
        "inv(M)",
        "<1*t(1)> * M",
        "apply[desc(d)](M)",
        "apply[bar(st[V])](D)",
        "(D + V) & M : D",
    ],
    VAL_LEX: [
        "M",
        "<1*t(1,5)>",
        "apply[spec{P1}](<1*t(1,-3)>)",
        "v(<1*t(0,1)>)",
    ],
}


def test_round_trip_fixed_point():
    for domain_text, corpus in EXPR_CORPUS.items():
        domain = parse_domain(domain_text)
        for text in corpus:
            ast = parse_expr(text, domain)
            printed = print_expr(ast, domain)
            assert parse_expr(printed, domain) == ast, (text, printed)
            assert print_expr(parse_expr(printed, domain), domain) == printed


def test_eval_worked_examples():
    ns = parse_domain(NUMSGR_TEXT)
    out = eval_expr(parse_expr("v(<x^3, x^4>)", ns), ns)
    assert repr(out) == "<x^3, x^4, x^5>"
    assert repr(eval_expr(parse_expr("D", ns), ns)) == "<x^0>"
    pq = parse_domain(PULLBACK_Q)
    assert repr(eval_expr(parse_expr("D", pq), pq)) == "<1*t(0)>"
    meet = eval_expr(parse_expr("st[V](<1*t(1)>) & st[V](<a*t(1)>)", pq), pq)
    assert repr(meet) == "<1*t(1), a*t(1)>"
    mm = eval_expr(parse_expr("<1*t(1)> & <a*t(1)>", pq), pq)
    assert repr(mm) == "t(1)*M"


def test_eval_coefficient_arithmetic():
    pq = parse_domain(PULLBACK_Q)
    lhs = eval_expr(parse_expr("<(1+a)*(1-a)*t(1)>", pq), pq)
    rhs = eval_expr(parse_expr("<-1*t(1)>", pq), pq)
    assert handle_eq(lhs, rhs)  # (1+a)(1-a) = -1 when a^2 = 2
    sq = eval_expr(parse_expr("<a^2*t(0)>", pq), pq)
    assert handle_eq(sq, eval_expr(parse_expr("<2*t(0)>", pq), pq))


def test_negative_coefficient_exponent_is_a_positioned_parse_error():
    pz = parse_domain(PULLBACK_Z)
    with pytest.raises(ParseError) as exc:
        parse_expr("<a^-1*t(0)>", pz)
    assert exc.value.pos == 3 and "nonnegative exponent" in str(exc.value)


def test_atoms_match_handles():
    for text in (NUMSGR_TEXT, PULLBACK_Q, VAL_Q):
        domain = parse_domain(text)
        assert handle_eq(eval_expr(parse_expr("D", domain), domain), unit_handle(domain))
        assert handle_eq(eval_expr(parse_expr("M", domain), domain), maximal_handle(domain))


def test_semantic_errors():
    ns = parse_domain(NUMSGR_TEXT)
    with pytest.raises(ParseError):
        parse_expr("V", ns)  # no valuation atom in a semigroup ring
    with pytest.raises(ParseError):
        parse_expr("<1*t(1)>", ns)
    pq = parse_domain(PULLBACK_Q)
    with pytest.raises(ParseError):
        parse_expr("<x^3>", pq)


def test_eval_error_names_offending_subexpression():
    from semistar.exprs import EvalError

    ns = parse_domain(NUMSGR_TEXT)
    with pytest.raises(EvalError) as err:
        eval_expr(parse_expr("v(st[K](<x^3>) + <x^4>)", ns), ns)
    assert "st[K](<x^3>)" in str(err.value)


def test_syntax_error_positions():
    ns = parse_domain(NUMSGR_TEXT)
    with pytest.raises(ParseError) as err:
        parse_expr("v(<x^3, x^4>", ns)
    assert "')'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expr("<x^3,>", ns)
    assert "x^" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expr("v(<x^3>) extra", ns)
    assert "end of expression" in str(err.value)


def test_precedence():
    ns = parse_domain(NUMSGR_TEXT)
    # ':' binds loosest, '*' tightest
    a = parse_expr("D : <x^3> + <x^4> * <x^5>", ns)
    b = parse_expr("D : (<x^3> + (<x^4> * <x^5>))", ns)
    assert a == b
    c = parse_expr("<x^3> & <x^4> + <x^5>", ns)
    d = parse_expr("<x^3> & (<x^4> + <x^5>)", ns)
    assert c == d


def test_parse_op_rejects_garbage():
    with pytest.raises(ParseError):
        parse_op("q")
    with pytest.raises(ParseError):
        parse_op("ft(v")
    with pytest.raises(ParseError):
        parse_op("st[W]")


def _random_ast(rng, domain, depth):
    from fractions import Fraction

    from semistar.exprs import Atom, Bin, Func, GenIdeal

    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.3:
            names = ["D", "M"] if domain.family == "numsgr" else ["D", "M", "V"]
            return Atom(rng.choice(names))
        if domain.family == "numsgr":
            gens = tuple(sorted({rng.randint(0, 9) for _ in range(rng.randint(1, 3))}))
            return GenIdeal(gens)
        K = domain.payload.residue_ext
        group = domain.payload_group
        gens = []
        for _ in range(rng.randint(1, 2)):
            coeff = K.rand_nonzero(rng, 3)
            if group.kind == "Q":
                level = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            elif group.kind == "Z":
                level = rng.randint(-6, 6)
            else:
                level = (rng.randint(-4, 4), rng.randint(-4, 4))
            gens.append((coeff, level))
        return GenIdeal(tuple(gens))
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(["+", "*", "&", ":"])
        return Bin(op, _random_ast(rng, domain, depth - 1), _random_ast(rng, domain, depth - 1))
    heads = ["v", "t", "w", "inv", "st[V]", "bar[v]", "tilde[v]", "apply[desc(d)]"]
    if domain.family == "numsgr":
        heads = ["v", "t", "w", "inv", "st[ic]", "bar[v]", "tilde[v]"]
    head = rng.choice(heads)
    arg = _random_ast(rng, domain, depth - 1)
    if head == "inv":
        return Func("inv", arg)
    if head.startswith("st["):
        from semistar.operations import st_op

        return Func(st_op(head[3:-1]), arg)
    if "[" in head:
        name, _, rest = head.partition("[")
        inner = parse_op(rest[:-1])
        from semistar.operations import bar_op, desc_op, tilde_op

        wrap = {"bar": bar_op, "tilde": tilde_op, "apply": lambda x: x, "desc": desc_op}[name]
        return Func(wrap(inner) if name != "apply" else inner, arg)
    return Func(parse_op(head), arg)


def test_fuzzed_print_parse_round_trip():
    import random

    for domain_text in (NUMSGR_TEXT, PULLBACK_Q, PULLBACK_Z, VAL_Q, VAL_LEX):
        domain = parse_domain(domain_text)
        rng = random.Random(hash(domain_text) % 100000)
        for _ in range(80):
            ast = _random_ast(rng, domain, 3)
            printed = print_expr(ast, domain)
            assert parse_expr(printed, domain) == ast, printed


@pytest.mark.parametrize("text, pos", [
    ("family=numsgr generators=[3,x]", 25),
    ("family=pullback base_field=Fp:x group=Z", 30),
    ("family=pullback extension=a^q group=Z", 26),
    ("family=pullback extension=b^2-2 group=Z", 26),
    ("family=numsgr family=numsgr", 14),  # the repeated key, not its first spelling
])
def test_parse_domain_malformed_numbers_give_a_positioned_parse_error(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_domain(text)
    assert exc.value.pos == pos
