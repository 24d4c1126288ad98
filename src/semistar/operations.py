"""Semistar operation terms and their exact evaluators.

An operation is a closed term over {identity, v, overring extension,
spectral, finite-type, stable, tilde, ascent, descent}.  Evaluation and the
predicate layer are written once for every domain.  The family only decides
how an ideal is stored, and that belongs to the engine of a DomainHandle;
only the engine table (`DomainHandle.engine`) and `exprs.parse_domain` read
the family string.  The three engines subclass `_Engine`, which holds the
shared defaults, and expose the same names:

- payload arithmetic (`add`, `colon`, `v`, `extend`, `scale`, `leq`, ...);
- generator lists: `finitely_generated(a)` says whether one exists,
  `fg_witness(a)` gives one, `regenerate(gens)` builds the payload (also
  from a parsed list), `fmt_gens(gens)` spells it for `fmt` and
  `exprs.print_expr`, and `K` is the coefficient field, None for bare
  monomials;
- `canonical(a)`: True exactly when `regenerate(fg_witness(a)) == a`, read
  off the payload's fields without building anything (a payload with no
  witness is checked on the same fields); `make_handle` raises a
  ConsistencyError on every payload that fails it;
- sampling: `sample_*`, `proper_subideal_samples` (raises where no cofinal
  family below M is certified), `ideal_window()` (every small ideal, or
  None), `landmark_pairs()`;
- facts: `capabilities`, `overring_atom` (V is a parser atom and a probe
  landmark), `homogeneous` (every ideal is x D or x M, so D and M decide an
  operation), `spectrum_decidable` (M is the only prime to test);
- the overring: `overring(dom)`, `to_overring(e, over)`, `from_overring`;
- localization at P1, rank-2 valuation engine only: `localized(dom)`, and
  `localize` / `localize_core` / `localize_scalar` project a payload, its
  largest submodule over the localization, and a scalar;
- the segment view of valuation and pullback payloads: `tail(a)` of a
  payload without a jump, `hull(a)` = a V, and `from_tail(seg)`.

The operands of a binary handle operation share one domain.  The handle
layer checks that once (`_shares_domain`) and raises an AlgebraError for
operands over two domains; the payload functions assume it, and payloads
are canonical, so payloads are compared with `==`; only `handle_leq` (so
`handle_eq`) also compares across the localization at P1.  `ops_equal_on`
and `op_leq` walk a universe once; it starts with D and M, as
`classify.probe_ideals` builds it, or they raise an AlgebraError.

Evaluation is compiled once per (domain, op): `compile_op`, reached through
`dom.fact`, gives a CompiledOp whose `run` maps an ideal to its image and
whose `form` is what `op_closed_form` reports.  Its kind is `identity`,
`constant-K`, `colon-by` J (bar: E -> (E : J), J the meet of the localizing
system, computed once), `ft-of` (ft of an open-tail module: a shift of the
envelope image (V)^op, computed once), `inner` (the compiled inner operation
runs) or `generic` (the term's evaluator runs on every call).

Whenever no exact evaluator exists the evaluator raises
UnsupportedOperation; nothing is ever silently approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from . import dplusm, numsgr
from .algebra.fields import SAMPLE_ATTEMPTS, AlgebraError
from .algebra.groups import Segment, ValueGroup, segment_add, segment_colon, segment_intersect, segment_union, segment_shift
from .dplusm import PullbackDomain, ValuationDomain
from .numsgr import NumericalSemigroup
from .verdict import Verdict, holds, refuted, unknown


class UnsupportedOperation(Exception):
    """No exact evaluator for this (domain, operation) pair."""


class UnsupportedMaximalSpectrum(UnsupportedOperation):
    """The quasi-maximal spectrum is not computable from the representable
    universe; reported rather than guessed."""


class ConsistencyError(AssertionError):
    """Two evaluation routes that must agree disagreed: an internal bug."""


# ---------------------------------------------------------------------------
# operation terms

@dataclass(frozen=True)
class SemistarOp:
    kind: str  # identity | v | st | spec | ft | bar | tilde | asc | desc
    inner: "SemistarOp | None" = None
    tag: "str | None" = None

    def __repr__(self):
        return op_to_text(self)


def d_op() -> SemistarOp:
    return SemistarOp("identity")


def v_op() -> SemistarOp:
    return SemistarOp("v")


def st_op(tag: str) -> SemistarOp:
    if tag not in ("V", "ic", "K"):
        raise AlgebraError(f"unknown overring tag {tag!r}")
    return SemistarOp("st", tag=tag)


def spec_op(tag: str) -> SemistarOp:
    if tag not in ("M", "P1"):
        raise AlgebraError(f"unknown spectral tag {tag!r}")
    return SemistarOp("spec", tag=tag)


def ft_op(inner: SemistarOp) -> SemistarOp:
    if known_finite_type(inner):
        return inner  # already of finite type (ft included); the closure is the identity
    return SemistarOp("ft", inner=inner)


def bar_op(inner: SemistarOp) -> SemistarOp:
    return SemistarOp("bar", inner=inner)


def tilde_op(inner: SemistarOp) -> SemistarOp:
    return SemistarOp("tilde", inner=inner)


def asc_op(inner: SemistarOp) -> SemistarOp:
    return SemistarOp("asc", inner=inner)


def desc_op(inner: SemistarOp) -> SemistarOp:
    return SemistarOp("desc", inner=inner)


def t_op() -> SemistarOp:
    return ft_op(v_op())


def w_op() -> SemistarOp:
    return tilde_op(v_op())


def op_to_text(op: SemistarOp) -> str:
    if op.kind == "identity":
        return "d"
    if op.kind == "v":
        return "v"
    if op.kind == "st":
        return f"st[{op.tag}]"
    if op.kind == "spec":
        return "spec{" + op.tag + "}"
    if op.kind in ("ft", "tilde") and op.inner.kind == "v":
        return "t" if op.kind == "ft" else "w"
    if op.kind in ("ft", "tilde", "bar", "asc", "desc"):
        return f"{op.kind}({op_to_text(op.inner)})"
    raise AlgebraError(f"unknown op kind {op.kind!r}")


def known_finite_type(op: SemistarOp) -> bool:
    """Sound, incomplete: True only when the term shape forces finite type."""
    if op.kind in ("identity", "st", "spec", "ft", "tilde"):
        return True  # tilde: a stable finite-type closure by construction
    if op.kind == "desc":
        return known_finite_type(op.inner)
    return False


def known_stable(op: SemistarOp, domain: "DomainHandle") -> bool:
    """Sound, incomplete: True only when stability is forced."""
    return ("all_ops_stable" in domain.capabilities or op.kind in ("identity", "spec", "bar", "tilde")
            or (op.kind == "st" and op.tag == "K"))


# ---------------------------------------------------------------------------
# domain and ideal handles

@dataclass(frozen=True)
class DomainHandle:
    family: str  # "numsgr" | "pullback" | "valuation"
    payload: object
    name: str = ""

    @cached_property
    def capabilities(self) -> frozenset:
        return self.engine.capabilities

    @property
    def payload_group(self) -> ValueGroup:
        return self.payload.group

    @cached_property
    def engine(self):
        return _ENGINES[self.family](self.payload)

    # landmark ideals and per-operation facts: built on first use, then kept
    @cached_property
    def unit(self) -> "IdealHandle":
        return make_handle(self, self.engine.unit())

    @cached_property
    def maximal(self) -> "IdealHandle":
        return make_handle(self, self.engine.maximal())

    @cached_property
    def overring_unit(self) -> "IdealHandle":
        """The valuation overring V as a fractional ideal of the domain."""
        return make_handle(self, self.engine.extend("V", self.engine.unit()))

    @cached_property
    def overring(self) -> "DomainHandle":
        """The overring V (the hull of a semigroup ring) as a domain of its own."""
        return self.engine.overring(self)

    @cached_property
    def localized(self) -> "DomainHandle":
        """The localization at the coarsening prime P1 of the rank-2 lex instance."""
        return self.engine.localized(self)

    @cached_property
    def _facts(self) -> dict:
        return {}

    def fact(self, compute, op: SemistarOp):
        """compute(op, self), evaluated once; a failure is kept as its type and
        arguments and raised afresh, so no stored exception grows a traceback."""
        key = (compute, op)
        entry = self._facts.get(key)
        if entry is None:
            try:
                entry = (None, compute(op, self))
            except (UnsupportedOperation, AlgebraError) as exc:
                entry = (type(exc), exc.args)
            self._facts[key] = entry
        error, value = entry
        if error is not None:
            raise error(*value)
        return value

    def __repr__(self):
        return self.name or f"{self.family}({self.payload!r})"


def semigroup_domain(generators, name="") -> DomainHandle:
    ring = NumericalSemigroup.create(generators)
    return DomainHandle("numsgr", ring, name or f"numsgr{ring!r}")


def pullback_domain(residue_ext, group_kind: str, name="") -> DomainHandle:
    vd = ValuationDomain(residue_ext, ValueGroup(group_kind))
    return DomainHandle("pullback", PullbackDomain(vd), name)


def valuation_domain(residue_ext, group_kind: str, name="") -> DomainHandle:
    vd = ValuationDomain(residue_ext, ValueGroup(group_kind))
    return DomainHandle("valuation", vd, name)


@dataclass(frozen=True)
class IdealHandle:
    domain: DomainHandle
    payload: object
    finitely_generated: bool

    @property
    def fg_witness(self) -> "tuple | None":
        """A generator list that regenerates the payload, None when there is none."""
        return self.domain.engine.fg_witness(self.payload)

    def __repr__(self):
        return self.domain.engine.fmt(self.payload)


def make_handle(domain: DomainHandle, payload) -> IdealHandle:
    eng = domain.engine
    if not eng.canonical(payload):
        raise ConsistencyError("payload is not the canonical form of its generators")
    return IdealHandle(domain, payload, eng.finitely_generated(payload))


def unit_handle(domain: DomainHandle) -> IdealHandle:
    return domain.unit


def maximal_handle(domain: DomainHandle) -> IdealHandle:
    return domain.maximal


def _shares_domain(a: IdealHandle, b: IdealHandle) -> bool:
    return a.domain is b.domain or a.domain == b.domain


def _common_domain(a: IdealHandle, b: IdealHandle) -> DomainHandle:
    """The domain of both operands; the payload functions assume there is one."""
    if not _shares_domain(a, b):
        raise AlgebraError(f"operands over two domains: {a.domain!r} and {b.domain!r}")
    return a.domain


def handle_add(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    dom = _common_domain(a, b)
    return make_handle(dom, dom.engine.add(a.payload, b.payload))


def handle_mul(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    dom = _common_domain(a, b)
    return make_handle(dom, dom.engine.mul(a.payload, b.payload))


def handle_intersect(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    dom = _common_domain(a, b)
    return make_handle(dom, dom.engine.intersect(a.payload, b.payload))


def handle_colon(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    dom = _common_domain(a, b)
    return make_handle(dom, dom.engine.colon(a.payload, b.payload))


def handle_inverse(a: IdealHandle) -> IdealHandle:
    return handle_colon(unit_handle(a.domain), a)


def _localizes(loc: DomainHandle, dom: DomainHandle) -> bool:
    """loc is the localization of dom at its coarsening prime P1."""
    try:
        over = dom.localized
    except UnsupportedOperation:
        return False
    return over is not dom and loc.payload == over.payload


def handle_leq(a: IdealHandle, b: IdealHandle) -> bool:
    if _shares_domain(a, b):
        return a.domain.engine.leq(a.payload, b.payload)
    # across the localization at P1: E lies in a module F of the localization
    # exactly when E V_P1 does, and F lies in E exactly when F lies in the
    # largest such module inside E
    if _localizes(b.domain, a.domain):
        return b.domain.engine.leq(a.domain.engine.localize(a.payload), b.payload)
    if _localizes(a.domain, b.domain):
        return a.domain.engine.leq(a.payload, b.domain.engine.localize_core(b.payload))
    raise AlgebraError("handles over incomparable domains")


def handle_eq(a: IdealHandle, b: IdealHandle) -> bool:
    if _shares_domain(a, b):
        return a.payload == b.payload
    return handle_leq(a, b) and handle_leq(b, a)


def handle_is_integral(a: IdealHandle) -> bool:
    return handle_leq(a, unit_handle(a.domain))


# ---------------------------------------------------------------------------
# engines

def _group_capabilities(group: ValueGroup) -> frozenset:
    if not group.discrete:
        return frozenset()
    return frozenset({"all_fg", "noetherian"} if group.kind == "Z" else {"all_fg"})


_VALUATION_CAPABILITIES = frozenset({"local", "valuation", "all_ops_stable", "integrally_closed"})


def _level_one(group: ValueGroup):
    return (1, 0) if group.kind == "ZxZ" else group.coerce(1)


def _positive_levels(group: ValueGroup, rng):
    """Up to four seeded positive levels: a draw that is not positive is
    reflected and moved up by one."""
    for _ in range(4):
        g = group.rand(rng, 5)
        if g <= group.zero:
            g = group.add(group.neg(g), _level_one(group))
        if group.zero < g:
            yield g


class _Engine:
    """The protocol's shared defaults, each overridden where a family
    differs: the formatting and finite generation of the segment view, and
    no localization at P1."""

    K = None  # the coefficient field; None for bare monomials
    group = None  # the value group; None for a semigroup ring

    @property
    def spectrum_decidable(self) -> bool:
        return self.group.kind != "ZxZ"  # rank 2 has a second nonzero prime

    def finitely_generated(self, a) -> bool:
        return self.hull(a).minimum() is not None

    def sample_fg_ideal(self, rng, spec, integral=False):
        for _ in range(SAMPLE_ATTEMPTS):
            a = self.sample_ideal(rng, spec, integral)
            if self.finitely_generated(a):
                return a
        raise AlgebraError(f"no finitely generated sample in {SAMPLE_ATTEMPTS} attempts")

    def ideal_window(self):
        return None

    def localized(self, *_):
        raise UnsupportedOperation("coarsening primes exist only on the rank-2 valuation instance")

    localize = localize_core = localize_scalar = localized  # no coarsening prime: every P1 hook raises

    def fmt_gens(self, gens) -> str:
        return "<" + ", ".join(f"{self.K.fmt(c)}*t({self.group.fmt(g)})" for c, g in gens) + ">"

    def fmt(self, a) -> str:
        witness = self.fg_witness(a)
        if witness is not None:
            return self.fmt_gens(witness)
        tail = self.tail(a)
        return "K" if tail.is_whole() else f"t({self.group.fmt(tail.cut)})*M"


class _NumsgrEngine(_Engine):
    capabilities = frozenset({"noetherian", "local", "all_fg"})
    overring_atom = False  # the hull K[[x]] is neither an atom nor a landmark
    homogeneous = False
    spectrum_decidable = True

    def __init__(self, ring: NumericalSemigroup):
        self.ring = ring

    def unit(self):
        return numsgr.ring_ideal(self.ring)

    def maximal(self):
        return numsgr.maximal_ideal(self.ring)

    def add(self, a, b):
        return numsgr.ideal_sum(a, b)

    def mul(self, a, b):
        return numsgr.ideal_mul(a, b)

    def intersect(self, a, b):
        return numsgr.ideal_intersect(a, b)

    def colon(self, a, b):
        return numsgr.ideal_colon(a, b)

    def v(self, a):
        return numsgr.v_closure(a)

    def extend(self, tag, a):
        return numsgr.hull_extension(a) if tag in ("V", "ic") else self.whole()

    def whole(self):
        raise UnsupportedOperation("the full quotient field of a semigroup ring is not representable")

    def is_whole(self, a) -> bool:
        return False

    def leq(self, a, b):
        return numsgr.ideal_leq(a, b)

    def scale(self, a, scalar):
        return numsgr.ideal_shift(a, int(scalar))

    def fg_witness(self, a):
        return a.gens

    def finitely_generated(self, a) -> bool:
        return True

    def regenerate(self, witness):
        return numsgr.ideal_normalize(self.ring, witness)

    def canonical(self, a) -> bool:
        return numsgr.ideal_canonical(self.ring, a)

    def sample_scalar(self, rng, spec):
        return rng.randint(-spec.value_window, spec.value_window)

    def sample_ideal(self, rng, spec, integral=False):
        lo = 0 if integral else -spec.value_window
        hi = self.ring.conductor + 6
        n = rng.randint(1, spec.generator_bound)
        vals = [rng.randint(lo, hi) for _ in range(n)]
        return numsgr.ideal_normalize(self.ring, vals)

    def proper_subideal_samples(self, rng):
        raise UnsupportedOperation("no certified cofinal family below M for this ring")

    def ideal_window(self):
        return numsgr.enumerate_ideals(self.ring, 0, self.ring.conductor + 2)

    def landmark_pairs(self):
        if len(self.ring.generators) < 3:
            return []
        s1, s2, s3 = self.ring.generators[:3]
        return [(numsgr.ideal_normalize(self.ring, [s1, s2]), numsgr.ideal_normalize(self.ring, [s1, s3]))]

    def overring(self, dom):
        return semigroup_domain([1], name=f"{dom.name}^hull")

    def to_overring(self, e, over):
        if numsgr.hull_extension(e.payload) != e.payload:
            raise UnsupportedOperation("not an ideal of the overring")
        return make_handle(over, numsgr.ideal_normalize(over.payload, [min(e.payload.gens)]))

    def from_overring(self, dom, h):
        return make_handle(dom, numsgr.hull_extension(numsgr.ideal_shift(self.unit(), min(h.payload.gens))))

    def tail(self, a):
        raise UnsupportedOperation("semigroup-ring ideals have no segment view")

    hull = from_tail = tail

    def fmt_gens(self, gens) -> str:
        return "<" + ", ".join(f"x^{g}" for g in gens) + ">"

    def fmt(self, a) -> str:
        return self.fmt_gens(a.gens)


class _ValuationEngine(_Engine):
    overring_atom = True
    homogeneous = True  # every segment is a shift of the unit or the maximal ideal

    def __init__(self, vd: ValuationDomain):
        self.vd = vd
        self.group = vd.group
        self.K = vd.residue_ext

    @cached_property
    def capabilities(self) -> frozenset:
        return _VALUATION_CAPABILITIES | _group_capabilities(self.group)

    def unit(self):
        return self.vd.unit_segment()

    def maximal(self):
        return self.vd.maximal_segment()

    def add(self, a, b):
        return segment_union(a, b)  # module sum of chain ideals is union

    def mul(self, a, b):
        return segment_add(a, b)

    def intersect(self, a, b):
        return segment_intersect(a, b)

    def colon(self, a, b):
        out = segment_colon(a, b)
        if out.is_empty():
            raise AlgebraError("colon collapses to the zero module")
        return out

    def v(self, a):
        d = self.unit()
        return self.colon(d, self.colon(d, a))

    def extend(self, tag, a):
        return a if tag in ("V", "ic") else self.whole()  # integrally closed; V is the ring itself

    def whole(self):
        return Segment.whole(self.group)

    def is_whole(self, a) -> bool:
        return a.is_whole()

    def leq(self, a, b):
        return a.leq(b)

    def scale(self, a, scalar):
        return segment_shift(a, scalar)

    def fg_witness(self, a):
        c = a.minimum()
        return None if c is None else ((self.K.one, c),)

    def regenerate(self, witness):
        return Segment.closed(self.group, min(self.group.coerce(c) for _, c in witness))  # units of V drop out

    def canonical(self, a) -> bool:
        return a.group is self.group or a.group == self.group  # the groups module keeps segment keys canonical

    def sample_scalar(self, rng, spec):
        return self.group.rand(rng, spec.value_window, spec.denominator_bound)

    def sample_ideal(self, rng, spec, integral=False):
        cut = self.group.rand(rng, spec.value_window, spec.denominator_bound)
        if integral and cut < self.group.zero:
            cut = self.group.neg(cut)
        shape = "closed" if (self.group.discrete or rng.random() < 0.5) else "open"
        return Segment.make(self.group, shape, cut)

    def sample_fg_ideal(self, rng, spec, integral=False):
        s = self.sample_ideal(rng, spec, integral)
        if s.minimum() is None:
            s = Segment.closed(self.group, s.cut)
        return s

    def proper_subideal_samples(self, rng):
        return [Segment.closed(self.group, g) for g in _positive_levels(self.group, rng)]

    def landmark_pairs(self):
        return []

    def overring(self, dom):
        return dom

    def to_overring(self, e, over):
        return e

    def from_overring(self, dom, h):
        return h

    def localized(self, dom):
        if self.group.kind == "Z":
            return dom  # rank one: already the localized domain
        if self.group.kind != "ZxZ":
            raise UnsupportedOperation("spectral localization needs the rank-2 lex group")
        return valuation_domain(self.vd.residue_ext, "Z", name=f"{dom.name}@P1")

    def localize(self, a):
        """Project a lex-group payload to the localization at P1."""
        return dplusm.localize_at(a)

    def localize_core(self, a):
        """The largest submodule of a lex-group payload over the localization
        at P1, projected there."""
        return dplusm.localized_core(a)

    def localize_scalar(self, scalar):
        return scalar[0]  # the coarsened first coordinate

    def tail(self, a):
        return a

    hull = from_tail = tail


class _PullbackEngine(_Engine):
    overring_atom = True
    homogeneous = False

    def __init__(self, pd: PullbackDomain):
        self.pd = pd
        self.group = pd.group
        self.K = pd.residue_ext

    @cached_property
    def _unit(self):
        return dplusm.unit_module(self.pd)

    @cached_property
    def capabilities(self) -> frozenset:
        caps = frozenset({"local"}) | _group_capabilities(self.group)
        return caps if self.pd.is_proper else caps | _VALUATION_CAPABILITIES

    def unit(self):
        return self._unit

    def maximal(self):
        return dplusm.maximal_module(self.pd)

    def add(self, a, b):
        return dplusm.module_sum(a, b)

    def mul(self, a, b):
        return dplusm.module_mul(a, b)

    def intersect(self, a, b):
        return dplusm.module_intersect(a, b)

    def colon(self, a, b):
        return dplusm.module_colon(a, b)

    def v(self, a):
        return dplusm.v_closure_pullback(a, self._unit)

    def extend(self, tag, a):
        return dplusm.extend_to_V(a) if tag in ("V", "ic") else self.whole()

    def whole(self):
        return dplusm.whole_module(self.pd)

    def is_whole(self, a) -> bool:
        return dplusm.module_hull(a).is_whole()

    def leq(self, a, b):
        return dplusm.module_leq(a, b)

    def scale(self, a, scalar):
        coeff, level = scalar
        return dplusm.module_scale(a, coeff, level)

    def fg_witness(self, a):
        return dplusm.fg_witness(a)

    def regenerate(self, witness):
        return dplusm.module_from_generators(self.pd, list(witness))

    def canonical(self, a) -> bool:
        return dplusm.module_canonical(self.pd, a)

    def sample_scalar(self, rng, spec):
        return (self.K.rand_nonzero(rng, 4), self.group.rand(rng, spec.value_window, spec.denominator_bound))

    def sample_ideal(self, rng, spec, integral=False):
        K = self.K
        roll = rng.random()
        level = self.group.rand(rng, spec.value_window, spec.denominator_bound)
        zero = self.group.zero
        if integral:
            if level < zero:
                level = self.group.neg(level)
            if level <= zero:
                return self.unit() if roll < 0.5 else self.maximal()
        if roll < 0.55:
            gens = []
            for _ in range(rng.randint(1, spec.generator_bound)):
                gens.append((K.rand_nonzero(rng, 4), level))
            return dplusm.module_from_generators(self.pd, gens)
        shape = "closed" if (roll < 0.8 or self.group.discrete) else "open"
        return self.from_tail(Segment.make(self.group, shape, level))

    def proper_subideal_samples(self, rng):
        out = []
        for g in _positive_levels(self.group, rng):
            out.append(dplusm.module_from_generators(self.pd, [(self.K.one, g)]))
            out.append(self.from_tail(Segment.closed(self.group, g)))
        return out

    def landmark_pairs(self):
        """t D and (a t) D: principal ideals told apart only by k inside K."""
        if not self.pd.is_proper:
            return []
        one = _level_one(self.group)
        md = dplusm.module_from_generators(self.pd, [(self.K.one, one)])
        mxd = dplusm.module_from_generators(self.pd, [(self.K.gen(), one)])
        return [(md, mxd)]

    def overring(self, dom):
        return DomainHandle("valuation", self.pd.valuation, name=f"{dom.name}^V")

    def to_overring(self, e, over):
        seg = dplusm.full_segment(e.payload)
        if seg is None:
            raise UnsupportedOperation("not an ideal of the overring")
        return make_handle(over, seg)

    def from_overring(self, dom, h):
        return make_handle(dom, self.from_tail(h.payload))

    def tail(self, a):
        seg = dplusm.full_segment(a)
        if seg is None:
            raise ConsistencyError("finitely generated module slipped past the shortcut")
        return seg

    def hull(self, a):
        return dplusm.module_hull(a)

    def from_tail(self, seg):
        return dplusm.make_module(self.pd, seg)


_ENGINES = {"numsgr": _NumsgrEngine, "pullback": _PullbackEngine, "valuation": _ValuationEngine}


# ---------------------------------------------------------------------------
# evaluation: each operation is compiled once per domain

@dataclass(frozen=True)
class CompiledOp:
    """An operation compiled for one domain by `compile_op`."""

    kind: str  # identity | constant-K | colon-by | ft-of | inner | generic
    run: object  # IdealHandle -> IdealHandle
    form: "str | None" = None  # the closed form op_closed_form reports


_IDENTITY = CompiledOp("identity", lambda e: e, "identity")
_CONSTANT_K = CompiledOp("constant-K", lambda e: make_handle(e.domain, e.domain.engine.whole()), "constant-K")


def apply(op: SemistarOp, e: IdealHandle) -> IdealHandle:
    return e.domain.fact(compile_op, op).run(e)


def unit_image(op: SemistarOp, dom: DomainHandle) -> IdealHandle:
    """D^op, evaluated once per domain."""
    return dom.fact(_unit_image, op)


def _unit_image(op: SemistarOp, dom: DomainHandle) -> IdealHandle:
    return apply(op, dom.unit)


def compile_op(op: SemistarOp, dom: DomainHandle) -> CompiledOp:
    """The closure of op on dom.  What it raises, every apply of op on dom
    raises, at the same point of the evaluation."""
    if op.kind == "identity" or (op.kind == "spec" and op.tag == "M"):
        return _IDENTITY  # spec{M}: localization at the maximal ideal of a local domain
    if op.kind == "st" and op.tag == "K":
        return _constant_k(dom)
    if op.kind == "bar":
        return _compile_stable(op.inner, dom)
    if op.kind == "ft":
        return _compile_finite_type(op.inner, dom)
    if op.kind == "tilde":
        # local domain: E D_M = E when M is quasi-maximal, else E goes to K
        return _IDENTITY if quasi_star_maximals(op.inner, dom) else _constant_k(dom)
    if op.kind not in _GENERIC:
        raise UnsupportedOperation(f"unknown operation kind {op.kind!r}")
    run = _GENERIC[op.kind]
    # integrally closed: the V extension fixes every ideal
    form = "identity" if op.kind == "st" and dom.engine.homogeneous else None
    return CompiledOp("generic", lambda e: run(op, e), form)


def _constant_k(dom: DomainHandle) -> CompiledOp:
    dom.engine.whole()  # raises where the engine cannot represent K
    return _CONSTANT_K


def _delegate(inner: SemistarOp, compiled: CompiledOp, form: "str | None") -> CompiledOp:
    """Run the compiled inner operation: its own closure when that does no
    work (identity, constant-K), else through apply."""
    if compiled.kind in ("identity", "constant-K"):
        return compiled
    return CompiledOp("inner", lambda e: apply(inner, e), form)


def _compile_stable(inner: SemistarOp, dom: DomainHandle) -> CompiledOp:
    """bar(inner) is E -> (E : J), J the meet of the localizing system of
    inner, unless inner is stable already; then it runs the compiled inner."""
    compiled = dom.fact(compile_op, inner)
    if known_stable(inner, dom):
        return _delegate(inner, compiled, compiled.form)
    if dom.engine.is_whole(unit_image(inner, dom).payload):
        # the constant map to the quotient field, which is already stable
        return _delegate(inner, compiled, "constant-K")
    ls = localizing_system(inner, dom)
    if ls.trivial:
        return _IDENTITY  # J = D, and (E : D) = E
    meet = reduce(handle_intersect, ls.members)
    return CompiledOp("colon-by", lambda e: handle_colon(e, meet), "colon-M")


def _compile_finite_type(inner: SemistarOp, dom: DomainHandle) -> CompiledOp:
    """ft(inner) is inner on finitely generated ideals.  On dense-group
    families an open-tail module is exhausted by the principal closed-cut
    envelopes t^b V (b decreasing to the cut), whose images are shifts of
    (V)^inner; the union is again representable."""
    compiled = dom.fact(compile_op, inner)
    form = compiled.form if compiled.form in ("identity", "constant-K") else None  # finite-type maps already
    if "all_fg" in dom.capabilities:
        return _delegate(inner, compiled, form)
    eng = dom.engine

    def run(e):
        if e.finitely_generated:
            return apply(inner, e)
        hull = dom.fact(_envelope_hull, inner)
        if eng.is_whole(e.payload):
            return e  # shifts of the envelope image over arbitrarily low cuts cover the group
        return make_handle(dom, eng.from_tail(segment_add(eng.tail(e.payload), hull)))

    return CompiledOp("ft-of", run, form)


def _envelope_hull(inner: SemistarOp, dom: DomainHandle):
    """The hull of (V)^inner, which ft(inner) shifts."""
    return dom.engine.hull(apply(inner, dom.overring_unit).payload)


def _spectral_apply(op: SemistarOp, e: IdealHandle) -> IdealHandle:
    dom = e.domain
    over = dom.localized  # raises unless the domain has a coarsening prime
    if over is dom:
        return e  # already living over the localized domain
    return make_handle(over, dom.engine.localize(e.payload))


def _ascent_apply(op: SemistarOp, e: IdealHandle) -> IdealHandle:
    # the ascended operation only acts on modules over the overring; there it
    # is the restriction of the original map
    e.domain.engine.to_overring(e, e.domain.overring)  # raises if e is not an overring module
    return apply(op.inner, e)


def _descent_apply(op: SemistarOp, e: IdealHandle) -> IdealHandle:
    dom = e.domain
    eng = dom.engine
    extended = make_handle(dom, eng.extend("V", e.payload))
    over = eng.to_overring(extended, dom.overring)
    image = apply(op.inner, over)
    if image.domain != over.domain:
        raise UnsupportedOperation("descent through a domain-changing operation")
    return eng.from_overring(dom, image)


_GENERIC = {
    "v": lambda op, e: make_handle(e.domain, e.domain.engine.v(e.payload)),
    "st": lambda op, e: make_handle(e.domain, e.domain.engine.extend(op.tag, e.payload)),
    "spec": _spectral_apply, "asc": _ascent_apply, "desc": _descent_apply,
}


@dataclass(frozen=True)
class LocalizingSystemView:
    """F^op presented by a finite cofinal family of certified members."""

    members: tuple
    trivial: bool  # the system is {D}


def localizing_system(op: SemistarOp, dom: DomainHandle) -> LocalizingSystemView:
    return dom.fact(_localizing_system, op)


def _localizing_system(op: SemistarOp, dom: DomainHandle) -> LocalizingSystemView:
    """Cofinal family for {I integral : I^op = D^op} on a local domain.

    If M^op differs from D^op, monotonicity pins the system to {D}.  When
    they agree, {M} is cofinal provided no proper representable subideal of
    M lands on D^op; that exclusion is certified on a structured sample and
    by the principal-envelope argument (every proper subideal sits inside
    some x D with positive value, and x D^op is strictly below D^op once
    D^op is cut-based).
    """
    import random

    eng = dom.engine
    dstar = unit_image(op, dom)
    if eng.is_whole(dstar.payload):
        raise UnsupportedOperation("constant-field operation has no finite cofinal family")
    mstar = apply(op, maximal_handle(dom))
    if not handle_eq(mstar, dstar):
        return LocalizingSystemView((unit_handle(dom),), True)
    rng = random.Random(0xC0F1)
    for payload in eng.proper_subideal_samples(rng):
        sub = make_handle(dom, payload)
        if handle_eq(apply(op, sub), dstar):
            raise UnsupportedOperation("cofinal family {M} failed its exclusion guard")
    member = maximal_handle(dom)
    if not handle_eq(apply(op, member), dstar):
        raise ConsistencyError("certified member lost its defining property")
    return LocalizingSystemView((member,), False)


def quasi_star_ideal_check(op: SemistarOp, i: IdealHandle) -> bool:
    if not handle_is_integral(i):
        raise AlgebraError("quasi-ideal check needs an integral ideal")
    closed = apply(op, i)
    met = handle_intersect(closed, unit_handle(i.domain))
    return handle_eq(met, i)


def quasi_star_maximals(op: SemistarOp, dom: DomainHandle) -> tuple:
    """Quasi-maximal tags of the finite-type closure: ("M",) or ()."""
    return dom.fact(_quasi_star_maximals, op)


def _quasi_star_maximals(op: SemistarOp, dom: DomainHandle) -> tuple:
    ftop = ft_op(op)
    if quasi_star_ideal_check(ftop, maximal_handle(dom)):
        return ("M",)
    if dom.engine.is_whole(unit_image(ftop, dom).payload):
        return ()
    raise UnsupportedMaximalSpectrum(
        "M is not a quasi-ideal of the finite-type closure and the closure of D "
        "is not the quotient field; the quasi-maximal spectrum is not representable"
    )


# ---------------------------------------------------------------------------
# ordering and equality between operations

def op_leq_syntactic(a: SemistarOp, b: SemistarOp) -> "str | None":
    """A theorem tag when a <= b follows from term shape, else None."""
    if a == b:
        return "same-term"
    if a.kind == "identity":
        return "identity-minimal"
    if a.kind == "ft" and a.inner == b:
        return "finite-type-below"
    if a.kind == "bar" and a.inner == b:
        return "stable-closure-below"
    if a.kind == "tilde":
        if a.inner == b:
            return "tilde-below"
        if b.kind in ("ft", "bar") and b.inner == a.inner:
            return "tilde-below-derived"
    return None


def op_closed_form(op: SemistarOp, dom: DomainHandle) -> "str | None":
    """Reduce an operation to one of the closed forms the local families
    admit: "identity", "constant-K", or "colon-M" (the stable closure by the
    maximal ideal), as its compiled form records.  None when no exact
    reduction applies."""
    try:
        return dom.fact(compile_op, op).form
    except UnsupportedOperation:
        return None


def _universe_domain(universe) -> DomainHandle:
    """The domain of a universe led by D and M, which decide every operation
    on a valuation domain (Gilmer, Multiplicative Ideal Theory, 1972)."""
    dom = universe[0].domain if len(universe) else None
    if dom is None or tuple(universe[:2]) != (dom.unit, dom.maximal):
        raise AlgebraError("a comparison universe starts with D and M, as probe_ideals builds it")
    return dom


def ops_equal_on(op1: SemistarOp, op2: SemistarOp, universe) -> Verdict:
    """Equality of two operations, decided exactly where the family allows."""
    dom = _universe_domain(universe)
    if op1 == op2:
        return holds("same-term")
    for e in universe:
        if not handle_eq(apply(op1, e), apply(op2, e)):
            return refuted(e, detail="operations differ at this ideal")
    f1, f2 = op_closed_form(op1, dom), op_closed_form(op2, dom)
    if f1 is not None and f2 is not None:
        if f1 != f2:
            raise ConsistencyError(f"closed forms {f1} and {f2} differ but agree on D and M")
        return holds("closed-forms-agree", detail=f"both reduce to {f1}")
    if dom.engine.homogeneous:  # every ideal is a shift of D or M, and the walk saw both
        return holds("determined-by-unit-and-maximal")
    return unknown(len(universe), detail="agree on the whole universe")


def op_leq(op1: SemistarOp, op2: SemistarOp, universe) -> Verdict:
    dom = _universe_domain(universe)
    tag = op_leq_syntactic(op1, op2)
    if tag is not None:
        return holds(tag)
    for e in universe:
        if not handle_leq(apply(op1, e), apply(op2, e)):
            return refuted(e, detail="first operation is not below the second here")
    return holds("determined-by-unit-and-maximal") if dom.engine.homogeneous else unknown(len(universe))
