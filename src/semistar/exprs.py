"""Parsers for domain specifications, operation terms, and ideal expressions.

An operation term (`parse_op`) is an atom d, v, t, w, st[V|ic|K] or
spec{M|P1}, spelled as `operations.op_to_text` spells it, or one of the
wrappers ft, bar, tilde, asc, desc around a term, as in ft(bar(st[V])).

An ideal expression (`parse_expr`) combines, loosest binding first,
':' (colon) < '&' (intersection) < '+' < '*', with parentheses overriding,
over these units:
  - generator lists like <x^3, x^4> (semigroup rings) or <1*t(0), a*t(1)>
    (pullbacks and valuation domains);
  - the named ideals D, M and V;
  - closures v|t|w|inv(E), st[V|ic|K](E), spec{M|P1}(E),
    ft|bar|tilde|asc|desc[OP](E) and apply[OP](E), where OP is an
    operation term.
parse -> print -> parse is a fixed point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra.fields import AlgebraError, ExtensionField, PrimeField, Rationals
from .operations import (
    DomainHandle,
    IdealHandle,
    SemistarOp,
    UnsupportedOperation,
    apply,
    asc_op,
    bar_op,
    d_op,
    ft_op,
    handle_add,
    handle_colon,
    handle_intersect,
    handle_inverse,
    handle_mul,
    make_handle,
    maximal_handle,
    op_to_text,
    pullback_domain,
    semigroup_domain,
    spec_op,
    st_op,
    t_op,
    tilde_op,
    unit_handle,
    v_op,
    valuation_domain,
    w_op,
    desc_op,
)

# Hostile-input caps, sized by measurement (README, "Scope notes"): the digits
# of a literal, in a domain file or an expression, and the degree in a and its
# literals of a power in an expression, however powers nest.
MAX_LITERAL_DIGITS = 100
MAX_COEFF_DEGREE = 256


class ParseError(ValueError):
    """Syntax or semantic error, with position and expectation."""

    def __init__(self, text: str, pos: int, expected: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{line}:{col}: expected {expected}")
        self.pos = pos
        self.expected = expected


# ---------------------------------------------------------------------------
# domain specification documents

_DOMAIN_KEYS = {"family", "generators", "base_field", "extension", "group"}
_GROUP_NAMES = {"Z": "Z", "Q": "Q", "ZxZ_lex": "ZxZ"}


def parse_domain(text: str) -> DomainHandle:
    fields = {}
    at = {}  # key -> position of its value
    for match in re.finditer(r"\S+", text):
        tok, start = match.group(), match.start()
        if "=" not in tok:
            raise ParseError(text, start, "key=value")
        key, _, val = tok.partition("=")
        if key not in _DOMAIN_KEYS:
            raise ParseError(text, start, f"one of {sorted(_DOMAIN_KEYS)}")
        if key in fields:
            raise ParseError(text, start, f"a single {key}")
        fields[key] = val
        at[key] = start + len(key) + 1
    family = fields.pop("family", None)
    if family == "numsgr":
        gens = fields.pop("generators", None)
        if fields:
            raise ParseError(text, 0, f"no keys besides generators, got {sorted(fields)}")
        if not (gens and gens.startswith("[") and gens.endswith("]")):
            raise ParseError(text, 0, "generators=[n,...]")
        expected = "generators=[n,...] of integers"
        values = [_int(v, text, at["generators"], expected) for v in gens[1:-1].split(",") if v]
        name = "numsgr<" + ",".join(str(v) for v in sorted(set(values))) + ">"
        return semigroup_domain(values, name)
    if family in ("pullback", "valuation"):
        base_txt = fields.pop("base_field", "Q")
        ext_txt = fields.pop("extension", None)
        group_txt = fields.pop("group", None)
        if fields:
            raise ParseError(text, 0, f"no extra keys, got {sorted(fields)}")
        if group_txt not in _GROUP_NAMES:
            raise ParseError(text, 0, "group=Z|Q|ZxZ_lex")
        base = _parse_base_field(base_txt, text, at.get("base_field", 0))
        if ext_txt is None:
            ext = ExtensionField(base, [base.zero, base.one])
            ext_name = repr(base)
        else:
            ext = ExtensionField(base, _parse_poly(ext_txt, base, text, at["extension"]))
            ext_name = f"{base!r}[a]/({ext_txt})"
        name = f"{family}({ext_name}; {group_txt})"
        maker = pullback_domain if family == "pullback" else valuation_domain
        return maker(ext, _GROUP_NAMES[group_txt], name)
    raise ParseError(text, 0, "family=numsgr|pullback|valuation")


def _int(txt: str, ctx: str, pos: int, expected: str) -> int:
    try:
        return int(txt)
    except ValueError:
        raise ParseError(ctx, pos, expected) from None


def _parse_base_field(txt: str, ctx: str, pos: int):
    if txt == "Q":
        return Rationals()
    if txt.startswith("Fp:"):
        return PrimeField(_int(txt[3:], ctx, pos + 3, "an integer p after Fp:"))
    raise ParseError(ctx, 0, "base_field=Q|Fp:<p>")


def _parse_poly(txt: str, base, ctx: str, pos: int):
    """A polynomial in a over the base field, e.g. a^2-2, to coefficients."""
    coeffs = {}
    s = txt.replace("-", "+-").replace(" ", "")
    try:
        for term in s.split("+"):
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            if "a" in term:
                head, _, tail = term.partition("a")
                c = _literal(head.rstrip("*") or "1", ctx, pos)
                power = int(tail[1:]) if tail.startswith("^") else 1
            else:
                c = _literal(term, ctx, pos)
                power = 0
            coeffs[power] = coeffs.get(power, Fraction(0)) + sign * c
        deg = max(coeffs)
    except ParseError:  # a cap from _literal; ParseError is a ValueError
        raise
    except (ValueError, ZeroDivisionError):
        raise ParseError(ctx, pos, "a polynomial in a with rational coefficients, e.g. a^2-2") from None
    cap = base.extension_degree_cap
    if deg > cap:  # checked before the coefficient list is built
        raise ParseError(ctx, pos, f"an extension of degree at most {cap} over {base!r}, got degree {deg}")
    return [base.coerce(coeffs.get(i, 0)) for i in range(deg + 1)]


def _literal(txt: str, ctx: str, pos: int) -> Fraction:
    """Fraction(txt), with its size read from the text first: Fraction builds
    1e10000000 exactly as written, which takes seconds."""
    mantissa, _, exp = txt.lower().replace("_", "").partition("e")
    if len(txt) > MAX_LITERAL_DIGITS or len(mantissa) + abs(int(exp or 0)) > MAX_LITERAL_DIGITS:
        raise ParseError(ctx, pos, f"coefficients of at most {MAX_LITERAL_DIGITS} digits")
    return Fraction(txt)


# ---------------------------------------------------------------------------
# operation terms and ideal expressions

# Operation-term atoms as op_to_text spells them, the bracketed tags of st
# and spec, and the wrappers, each spelled by its kind.
_OP_ATOMS = {"d": d_op, "v": v_op, "t": t_op, "w": w_op}
_OP_TAGS = {"st": ("[]", st_op, ("V", "ic", "K")), "spec": ("{}", spec_op, ("M", "P1"))}
_WRAPPERS = {"ft": ft_op, "bar": bar_op, "tilde": tilde_op, "asc": asc_op, "desc": desc_op}
_BARE_HEADS = ("v", "t", "w")  # the atoms that head a closure without brackets
_OPERATORS = ":&+*"  # binary ideal operators, loosest binding first

_WORD = re.compile(r"[ \t\n]*(\w*)")
_INTEGER = re.compile(r"[ \t\n]*(-?\d*)")


@dataclass(frozen=True)
class Atom:
    name: str  # D | M | V


@dataclass(frozen=True)
class GenIdeal:
    gens: tuple  # numsgr: ints; module families: (coeff tuple, level) pairs


@dataclass(frozen=True)
class Bin:
    op: str  # one of _OPERATORS
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Func:
    op: object  # SemistarOp or the string "inv"
    arg: object


class _Parser:
    def __init__(self, text: str, domain: DomainHandle | None = None):
        self.text = text
        self.domain = domain
        # coefficient field; None for bare monomials x^n and for operation terms
        self.K = None if domain is None else domain.engine.K
        self.i = 0

    def error(self, expected: str):
        raise ParseError(self.text, self.i, expected)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t\n":
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"'{ch}'")
        self.i += 1

    def end(self, expected: str):
        if self.peek():
            self.error(expected)

    def word(self):
        """(position, identifier) at the cursor; the identifier may be empty."""
        match = _WORD.match(self.text, self.i)
        self.i = match.end()
        return match.start(1), match.group(1)

    def op_term(self) -> SemistarOp:
        """The operation term at the cursor.  This is the only reader of the
        spelling: parse_op and every bracketed closure head go through it."""
        start, name = self.word()
        if name in _WRAPPERS and self.peek() == "(":
            self.i += 1
            inner = self.op_term()
            self.take(")")
            return _WRAPPERS[name](inner)
        if name in _OP_TAGS:
            brackets, make, tags = _OP_TAGS[name]
            self.take(brackets[0])
            at, tag = self.word()
            if tag not in tags:
                raise ParseError(self.text, at, "one of " + ", ".join(tags))
            self.take(brackets[1])
            return make(tag)
        if name not in _OP_ATOMS:
            raise ParseError(self.text, start, "an operation term")
        return _OP_ATOMS[name]()

    def expr(self, min_prec: int = 0):
        """Precedence climbing over _OPERATORS; every operator associates left."""
        node = self.unit()
        while True:
            ch = self.peek()
            prec = _OPERATORS.find(ch) if ch else -1
            if prec < min_prec:
                return node
            self.i += 1
            node = Bin(ch, node, self.expr(prec + 1))

    def unit(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            node = self.expr()
            self.take(")")
            return node
        if ch == "<":
            return self.gen_ideal()
        return self.name_or_func()

    def name_or_func(self):
        start, name = self.word()
        nxt = self.peek()
        if name in ("D", "M", "V") and nxt not in ("(", "["):
            if name == "V" and not self.domain.engine.overring_atom:
                raise ParseError(self.text, start, "an ideal atom valid for this family ('V' needs a valuation overring)")
            return Atom(name)
        if name == "inv":
            op = "inv"
        elif name == "apply" or (name in _WRAPPERS and nxt == "["):
            self.take("[")
            op = self.op_term()
            self.take("]")
            if name != "apply":
                op = _WRAPPERS[name](op)
        elif name in _BARE_HEADS or name in _OP_TAGS:
            self.i = start
            op = self.op_term()
        else:
            raise ParseError(self.text, start, "an atom, generator list, or closure function")
        self.take("(")
        arg = self.expr()
        self.take(")")
        return Func(op, arg)

    # -- generator lists -----------------------------------------------------

    def gen_ideal(self):
        self.take("<")
        gens = [self.generator()]
        while self.peek() == ",":
            self.i += 1
            gens.append(self.generator())
        self.take(">")
        return GenIdeal(tuple(gens))

    def generator(self):
        if self.K is None:
            self.skip_ws()
            if not self.text.startswith("x^", self.i):
                self.error("x^<n>")
            self.i += 2
            return self.integer()
        coeff = None
        self.skip_ws()
        if not self.text.startswith("t(", self.i):
            coeff, _ = self.coeff_expr()
            self.skip_ws()
            if self.peek() == "*":
                self.i += 1
            self.skip_ws()
        if not self.text.startswith("t(", self.i):
            self.error("t(<level>)")
        self.i += 2
        level = self.level_value()
        self.take(")")
        return (self.K.one if coeff is None else coeff, level)

    def integer(self):
        match = _INTEGER.match(self.text, self.i)
        digits = match.group(1)
        if digits in ("", "-"):
            raise ParseError(self.text, match.start(1), "an integer")
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(self.text, match.start(1), f"an integer of at most {MAX_LITERAL_DIGITS} digits")
        self.i = match.end()
        return int(digits)

    def rational(self):
        num = self.integer()
        if self.peek() == "/":
            self.i += 1
            at, den = self.i, self.integer()
            if den == 0:
                raise ParseError(self.text, at, "a nonzero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def level_value(self):
        group = self.domain.payload_group
        if group.kind == "ZxZ":
            a = self.integer()
            self.take(",")
            return (a, self.integer())
        if group.kind == "Z":
            return self.integer()
        return self.rational()

    # Coefficient arithmetic in the extension field, ordinary precedence.  Each
    # value comes with its degree in a and the literals, so that the cap on a
    # power also bounds nested powers such as ((1+a)^9)^9.
    def coeff_expr(self):
        node, deg = self.coeff_term()
        while self.peek() in ("+", "-"):
            ch = self.peek()
            self.i += 1
            rhs, rdeg = self.coeff_term()
            node, deg = (self.K.add if ch == "+" else self.K.sub)(node, rhs), max(deg, rdeg)
        return node, deg

    def coeff_term(self):
        node, deg = self.coeff_factor()
        while self.peek() == "*" and not self.text.startswith("*t(", self.i):
            self.i += 1
            rhs, rdeg = self.coeff_factor()
            node, deg = self.K.mul(node, rhs), deg + rdeg
        return node, deg

    def coeff_factor(self):
        base, deg = self.coeff_atom()
        if self.peek() != "^":
            return base, deg
        self.i += 1
        at, n = self.i, self.integer()
        if n < 0:
            raise ParseError(self.text, at, "a nonnegative exponent")
        deg *= max(n, 1)
        if deg > MAX_COEFF_DEGREE:
            raise ParseError(self.text, at, f"a power of degree at most {MAX_COEFF_DEGREE} in a and the literals")
        out = self.K.one
        for _ in range(n):
            out = self.K.mul(out, base)
        return out, deg

    def coeff_atom(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            node = self.coeff_expr()
            self.take(")")
            return node
        if ch == "a":
            self.i += 1
            return self.K.gen(), 1
        if ch == "-" or ch.isdigit():
            return self.K.embed(self.rational()), 1
        self.error("a coefficient")


def parse_op(text: str) -> SemistarOp:
    parser = _Parser(text)
    op = parser.op_term()
    parser.end("end of operation term")
    return op


def parse_expr(text: str, domain: DomainHandle):
    parser = _Parser(text, domain)
    node = parser.expr()
    parser.end("end of expression")
    return node


# ---------------------------------------------------------------------------
# printing (inverse of the parser up to canonical spelling)

def print_expr(node, domain: DomainHandle, _prec=0) -> str:
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, GenIdeal):
        return domain.engine.fmt_gens(node.gens)
    if isinstance(node, Func):
        head = "inv" if node.op == "inv" else _func_head(node.op)
        return f"{head}({print_expr(node.arg, domain, 0)})"
    if isinstance(node, Bin):
        p = _OPERATORS.index(node.op)
        lhs = print_expr(node.lhs, domain, p)
        rhs = print_expr(node.rhs, domain, p + 1)
        body = f"{lhs} {node.op} {rhs}"
        return f"({body})" if p < _prec else body
    raise AlgebraError(f"unknown expression node {node!r}")


def _func_head(op: SemistarOp) -> str:
    text = op_to_text(op)
    if text in _BARE_HEADS or op.kind in _OP_TAGS:
        return text
    if op.kind in _WRAPPERS:
        return f"{op.kind}[{op_to_text(op.inner)}]"
    return f"apply[{text}]"


# ---------------------------------------------------------------------------
# evaluation

class EvalError(ValueError):
    """Evaluation failure, tagged with the offending subexpression."""


def eval_expr(node, domain: DomainHandle) -> IdealHandle:
    try:
        return _eval(node, domain)
    except EvalError:
        raise  # already tagged with the innermost offender
    except (AlgebraError, UnsupportedOperation) as exc:
        raise EvalError(f"in {print_expr(node, domain)}: {exc}") from exc


def _eval(node, domain: DomainHandle) -> IdealHandle:
    if isinstance(node, Atom):
        if node.name == "D":
            return unit_handle(domain)
        if node.name == "M":
            return maximal_handle(domain)
        return domain.overring_unit
    if isinstance(node, GenIdeal):
        return make_handle(domain, domain.engine.regenerate(node.gens))
    if isinstance(node, Func):
        arg = eval_expr(node.arg, domain)
        if node.op == "inv":
            return handle_inverse(arg)
        return apply(node.op, arg)
    if isinstance(node, Bin):
        lhs = eval_expr(node.lhs, domain)
        rhs = eval_expr(node.rhs, domain)
        return {
            "+": handle_add,
            "*": handle_mul,
            "&": handle_intersect,
            ":": handle_colon,
        }[node.op](lhs, rhs)
    raise AlgebraError(f"unknown expression node {node!r}")
