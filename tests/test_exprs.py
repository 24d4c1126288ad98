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


def _random_op(rng, domain, depth):
    """An operation term over every atom, tag and wrapper the reader knows,
    restricted to those that make sense on the domain."""
    from semistar.operations import (asc_op, bar_op, d_op, desc_op, ft_op, spec_op, st_op,
                                     t_op, tilde_op, v_op, w_op)

    atoms = [d_op, v_op, t_op, w_op]
    wrappers = [ft_op, bar_op, tilde_op, desc_op]
    if domain.family == "numsgr":
        atoms += [lambda: st_op("ic"), lambda: st_op("K")]
    else:
        atoms += [lambda: st_op("V"), lambda: st_op("K")]
        if domain.payload_group.kind == "ZxZ":
            atoms += [lambda: spec_op("M"), lambda: spec_op("P1")]
    if domain.family == "valuation":
        wrappers.append(asc_op)
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(atoms)()
    return rng.choice(wrappers)(_random_op(rng, domain, depth - 1))


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
    arg = _random_ast(rng, domain, depth - 1)
    return Func("inv" if roll > 0.9 else _random_op(rng, domain, 2), arg)


def test_fuzzed_print_parse_round_trip():
    """Seeded from a digest of the domain text, so a failing case replays."""
    import random
    import zlib

    from semistar.exprs import Atom, Func

    for domain_text in (NUMSGR_TEXT, PULLBACK_Q, PULLBACK_Z, VAL_Q, VAL_LEX):
        domain = parse_domain(domain_text)
        rng = random.Random(zlib.crc32(domain_text.encode()))
        for _ in range(80):
            ast = _random_ast(rng, domain, 3)
            printed = print_expr(ast, domain)
            assert parse_expr(printed, domain) == ast, printed
            op = _random_op(rng, domain, 3)  # any term also reads as an apply[...] head
            assert parse_expr(f"apply[{op!r}](D)", domain) == Func(op, Atom("D")), op


@pytest.mark.parametrize("text, pos", [
    ("v(ft[q](M))", 5),
    ("apply[ft(v](M)", 10),
    ("v(st[W](M))", 5),
    ("spec{X}(D)", 5),
])
def test_operation_term_errors_point_into_the_typed_text(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_expr(text, parse_domain(NUMSGR_TEXT))
    assert exc.value.pos == pos


def test_operation_terms_allow_white_space_between_tokens():
    assert parse_op("ft( v)") == parse_op("t")
    ns = parse_domain(NUMSGR_TEXT)
    assert parse_expr("apply[ d ](M)", ns) == parse_expr("apply[d](M)", ns)


@pytest.mark.parametrize("text, pos, expected", [
    ("<a^257*t(0)>", 3, "at most 256"),
    ("<a^100000*t(0)>", 3, "at most 256"),
    ("<((1+a)^16)^17*t(0)>", 12, "at most 256"),  # nested powers multiply degrees
    ("<(a^0)^1000000*t(0)>", 7, "at most 256"),
    ("<(a*a)^129*t(0)>", 7, "at most 256"),
    ("<" + "7" * 101 + "*t(0)>", 1, "at most 100 digits"),
    ("<" + "7" * 5000 + "*t(0)>", 1, "at most 100 digits"),  # past int()'s own digit limit
    ("<1/0*t(0)>", 3, "nonzero denominator"),
    ("<1*t(\u00b2)>", 5, "an integer"),  # a digit to str.isdigit, not to int()
])
def test_hostile_coefficients_are_positioned_parse_errors(text, pos, expected):
    domain = parse_domain(PULLBACK_Z)
    with pytest.raises(ParseError) as exc:
        parse_expr(text, domain)
    assert exc.value.pos == pos and expected in str(exc.value)


def test_largest_accepted_power_evaluates():
    domain = parse_domain(PULLBACK_Z)
    assert handle_eq(eval_expr(parse_expr("<a^256*t(0)>", domain), domain),
                     eval_expr(parse_expr("<2^128*t(0)>", domain), domain))


@pytest.mark.parametrize("text, pos", [
    ("family=numsgr generators=[3,x]", 25),
    ("family=pullback base_field=Fp:x group=Z", 30),
    ("family=pullback extension=a^q group=Z", 26),
    ("family=pullback extension=b^2-2 group=Z", 26),
    ("family=numsgr family=numsgr", 14),  # the repeated key, not its first spelling
    ("family=pullback extension=a^3-1e101*a+3 group=Z", 26),  # coefficient literal cap
    ("family=pullback extension=a^3-1e9_999_999*a+3 group=Z", 26),
])
def test_parse_domain_malformed_numbers_give_a_positioned_parse_error(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_domain(text)
    assert exc.value.pos == pos
