"""Parsers for domain specifications, operation terms, and ideal expressions.

The expression grammar (loosest to tightest): ':' < '&' < '+' < '*', with
parentheses overriding.  Atoms are generator lists like <x^3, x^4> (semigroup
rings) or <1*t(0), a*t(1)> (pullbacks and valuation domains), plus the named
ideals D, M, V.  parse -> print -> parse is a fixed point.
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
                c = Fraction(head.rstrip("*")) if head.rstrip("*") else Fraction(1)
                power = int(tail[1:]) if tail.startswith("^") else 1
            else:
                c = Fraction(term)
                power = 0
            coeffs[power] = coeffs.get(power, Fraction(0)) + sign * c
        deg = max(coeffs)
    except (ValueError, ZeroDivisionError):
        raise ParseError(ctx, pos, "a polynomial in a with rational coefficients, e.g. a^2-2") from None
    cap = base.extension_degree_cap
    if deg > cap:  # checked before the coefficient list is built
        raise ParseError(ctx, pos, f"an extension of degree at most {cap} over {base!r}, got degree {deg}")
    return [base.coerce(coeffs.get(i, 0)) for i in range(deg + 1)]


# ---------------------------------------------------------------------------
# operation terms

def parse_op(text: str) -> SemistarOp:
    op, rest = _op_term(text.strip(), 0)
    if rest != len(text.strip()):
        raise ParseError(text, rest, "end of operation term")
    return op


def _op_term(s: str, i: int):
    for name, builder in (("st[V]", lambda: st_op("V")), ("st[ic]", lambda: st_op("ic")),
                          ("st[K]", lambda: st_op("K")), ("spec{M}", lambda: spec_op("M")),
                          ("spec{P1}", lambda: spec_op("P1"))):
        if s.startswith(name, i):
            return builder(), i + len(name)
    for name, wrap in (("ft", ft_op), ("bar", bar_op), ("tilde", tilde_op),
                       ("asc", asc_op), ("desc", desc_op)):
        if s.startswith(name + "(", i):
            inner, j = _op_term(s, i + len(name) + 1)
            if j >= len(s) or s[j] != ")":
                raise ParseError(s, j, "')'")
            return wrap(inner), j + 1
    for name, builder in (("d", d_op), ("v", v_op), ("t", t_op), ("w", w_op)):
        if s.startswith(name, i) and (i + 1 == len(s) or not s[i + 1].isalnum()):
            return builder(), i + 1
    raise ParseError(s, i, "an operation term")


# ---------------------------------------------------------------------------
# ideal expressions

@dataclass(frozen=True)
class Atom:
    name: str  # D | M | V


@dataclass(frozen=True)
class GenIdeal:
    gens: tuple  # numsgr: ints; module families: (coeff tuple, level) pairs


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '*', '&', ':'
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Func:
    op: object  # SemistarOp or the string "inv"
    arg: object


class _Parser:
    def __init__(self, text: str, domain: DomainHandle):
        self.text = text
        self.domain = domain
        self.K = domain.engine.K  # coefficient field; None for bare monomials x^n
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

    def parse(self):
        node = self.level_colon()
        self.skip_ws()
        if self.i != len(self.text):
            self.error("end of expression")
        return node

    def level_colon(self):
        node = self.level_meet()
        while self.peek() == ":":
            self.i += 1
            node = Bin(":", node, self.level_meet())
        return node

    def level_meet(self):
        node = self.level_sum()
        while self.peek() == "&":
            self.i += 1
            node = Bin("&", node, self.level_sum())
        return node

    def level_sum(self):
        node = self.level_prod()
        while self.peek() == "+":
            self.i += 1
            node = Bin("+", node, self.level_prod())
        return node

    def level_prod(self):
        node = self.unit()
        while self.peek() == "*":
            self.i += 1
            node = Bin("*", node, self.unit())
        return node

    def unit(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            node = self.level_colon()
            self.take(")")
            return node
        if ch == "<":
            return self.gen_ideal()
        return self.name_or_func()

    def _ident(self):
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and (self.text[self.i].isalnum() or self.text[self.i] == "_"):
            self.i += 1
        if self.i == start:
            self.error("a name")
        return self.text[start:self.i]

    def name_or_func(self):
        name = self._ident()
        nxt = self.peek()
        if name in ("D", "M", "V") and nxt not in ("(", "["):
            if name == "V" and not self.domain.engine.overring_atom:
                self.error("an ideal atom valid for this family ('V' needs a valuation overring)")
            return Atom(name)
        if name in ("v", "t", "w", "inv") and nxt == "(":
            self.i += 1
            arg = self.level_colon()
            self.take(")")
            op = {"v": v_op(), "t": t_op(), "w": w_op(), "inv": "inv"}[name]
            return Func(op, arg)
        if name in ("ft", "bar", "tilde", "st", "apply", "asc", "desc", "spec") and nxt in ("[", "{"):
            close = "]" if nxt == "[" else "}"
            self.i += 1
            start = self.i
            depth = 1
            while self.i < len(self.text):
                c = self.text[self.i]
                if c in "[{":
                    depth += 1
                elif c in "]}":
                    depth -= 1
                    if depth == 0:
                        break
                self.i += 1
            if depth != 0:
                self.error(f"'{close}'")
            inner_txt = self.text[start:self.i]
            self.i += 1
            if name == "st":
                op = st_op(inner_txt) if inner_txt in ("V", "ic", "K") else self.error("V, ic or K")
            elif name == "spec":
                op = spec_op(inner_txt)
            elif name == "apply":
                op = parse_op(inner_txt)
            else:
                wrap = {"ft": ft_op, "bar": bar_op, "tilde": tilde_op, "asc": asc_op, "desc": desc_op}[name]
                op = wrap(parse_op(inner_txt))
            self.take("(")
            arg = self.level_colon()
            self.take(")")
            return Func(op, arg)
        self.error("an atom, generator list, or closure function")

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
            coeff = self.coeff_expr()
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
        self.skip_ws()
        start = self.i
        if self.peek() == "-":
            self.i += 1
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start or self.text[start:self.i] == "-":
            self.error("an integer")
        return int(self.text[start:self.i])

    def rational(self):
        num = self.integer()
        if self.peek() == "/":
            self.i += 1
            return Fraction(num, self.integer())
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

    # coefficient arithmetic in the extension field, ordinary precedence
    def coeff_expr(self):
        node = self.coeff_term()
        while self.peek() in "+-":
            ch = self.peek()
            self.i += 1
            rhs = self.coeff_term()
            node = self.K.add(node, rhs) if ch == "+" else self.K.sub(node, rhs)
        return node

    def coeff_term(self):
        node = self.coeff_factor()
        while self.peek() == "*" and not self.text.startswith("*t(", self.i):
            self.i += 1
            node = self.K.mul(node, self.coeff_factor())
        return node

    def coeff_factor(self):
        base = self.coeff_atom()
        if self.peek() == "^":
            self.i += 1
            at, n = self.i, self.integer()
            if n < 0:
                raise ParseError(self.text, at, "a nonnegative exponent")
            out = self.K.one
            for _ in range(n):
                out = self.K.mul(out, base)
            return out
        return base

    def coeff_atom(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            node = self.coeff_expr()
            self.take(")")
            return node
        if ch == "a":
            self.i += 1
            return self.K.gen()
        if ch == "-" or ch.isdigit():
            return self.K.embed(self.rational())
        self.error("a coefficient")


def parse_expr(text: str, domain: DomainHandle):
    return _Parser(text, domain).parse()


# ---------------------------------------------------------------------------
# printing (inverse of the parser up to canonical spelling)

_PRec = {":": 0, "&": 1, "+": 2, "*": 3}


def print_expr(node, domain: DomainHandle, _prec=0) -> str:
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, GenIdeal):
        return domain.engine.fmt_gens(node.gens)
    if isinstance(node, Func):
        if node.op == "inv":
            head = "inv"
        else:
            head = _func_head(node.op)
        return f"{head}({print_expr(node.arg, domain, 0)})"
    if isinstance(node, Bin):
        p = _PRec[node.op]
        lhs = print_expr(node.lhs, domain, p)
        rhs = print_expr(node.rhs, domain, p + 1)
        body = f"{lhs} {node.op} {rhs}"
        return f"({body})" if p < _prec else body
    raise AlgebraError(f"unknown expression node {node!r}")


def _func_head(op: SemistarOp) -> str:
    text = repr(op)
    if text in ("v", "t", "w"):
        return text
    if text.startswith("st[") or text.startswith("spec{"):
        return text
    if "(" in text:
        name, _, rest = text.partition("(")
        return f"{name}[{rest[:-1]}]"
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
