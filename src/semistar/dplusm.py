"""Valuation domains V = K + M and their pullbacks D = k + M.

Fractional D-submodules of the quotient field are leveled modules: the set
of elements whose coefficient at each value-group level lies in a prescribed
k-subspace of K.  Being a D-module forces either a V-ideal a V (full K at
every level) or x (W + M) for a k-subspace W of K (Bastida and Gilmer,
Michigan Math. J. 20, 1973), so a module is stored as its hull a V and the
space W at the hull's minimum.  Elements exist only as finite leading-term
expansions inside the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra.fields import AlgebraError, ExtensionField
from .algebra.groups import (
    Segment,
    ValueGroup,
    segment_add,
    segment_colon,
    segment_intersect,
    segment_shift,
    segment_union,
)
from .algebra.linalg import (
    Subspace,
    is_rref,
    subspace_intersect,
    subspace_product,
    subspace_scale,
    subspace_sum,
    transporter,
)


@dataclass(frozen=True)
class ValuationDomain:
    """V = K + M over an ordered value group; ideals of V are segments."""

    residue_ext: ExtensionField  # k inside K; degree 1 means k = K
    group: ValueGroup

    def maximal_segment(self) -> Segment:
        return Segment.open(self.group, self.group.zero)

    def unit_segment(self) -> Segment:
        return Segment.closed(self.group, self.group.zero)

    def __repr__(self):
        return f"V({self.residue_ext!r}; {self.group!r})"


@dataclass(frozen=True)
class PullbackDomain:
    """D = k + M inside V = K + M."""

    valuation: ValuationDomain

    @property
    def is_proper(self) -> bool:
        return self.valuation.residue_ext.degree >= 2

    @property
    def group(self) -> ValueGroup:
        return self.valuation.group

    @property
    def residue_ext(self) -> ExtensionField:
        return self.valuation.residue_ext

    def __repr__(self):
        return f"D(k+M of {self.valuation!r})"


@dataclass(frozen=True)
class LeveledModule:
    """A D-module stored as its hull a V (a segment) and, when the module has a
    proper jump, the k-subspace of K at the hull's minimum; K sits at every
    other level of the hull.  `space` is None exactly when there is no proper
    jump, so structural equality is semantic equality."""

    domain: PullbackDomain
    hull: Segment
    space: "Subspace | None" = None

    def __repr__(self):
        if self.space is None:
            return f"mod[K@{self.hull.fmt()}]"
        group = self.domain.group
        c = self.hull.cut
        basis = "{" + ",".join(self.domain.residue_ext.fmt(r) for r in self.space.rows) + "}"
        return f"mod[{basis}@{group.fmt(c)} | K@{Segment.open(group, c).fmt()}]"


def make_module(domain: PullbackDomain, hull: Segment, space: "Subspace | None" = None) -> LeveledModule:
    """The module with this hull and this space at the hull's minimum (None:
    all of K).  A full space is no jump; a zero space leaves the open hull
    above the minimum."""
    if hull.group != domain.group:
        raise AlgebraError("hull over the wrong value group")
    if hull.is_empty():
        raise AlgebraError("zero module is not representable")
    if space is None or space.is_full():
        return LeveledModule(domain, hull)
    if space.is_zero():
        return LeveledModule(domain, Segment.open(domain.group, hull.cut))
    if hull.minimum() is None:
        raise AlgebraError("a proper jump space needs a hull with a minimum")
    return LeveledModule(domain, hull, space)


def space_at(m: LeveledModule, g) -> Subspace:
    K = m.domain.residue_ext
    if not m.hull.contains(g):
        return Subspace.zero(K)
    if m.space is not None and m.hull.cut == m.domain.group.coerce(g):
        return m.space
    return Subspace.full(K)


def module_hull(m: LeveledModule) -> Segment:
    """m V, as a segment of the value group."""
    return m.hull


def full_segment(m: LeveledModule) -> "Segment | None":
    """The levels of m when m holds all of K at each of them, else None."""
    return m.hull if m.space is None else None


# -- constructors -----------------------------------------------------------

def module_from_generators(domain: PullbackDomain, gens) -> LeveledModule:
    """The D-module generated by monomials c * t^g, c nonzero in K."""
    K = domain.residue_ext
    group = domain.group
    if not gens:
        raise AlgebraError("a module needs at least one generator")
    coerced = []
    for c, g in gens:
        c = K.from_coeffs(c) if not isinstance(c, tuple) else c
        if K.is_zero(c):
            raise AlgebraError("zero coefficient in generator")
        coerced.append((c, group.coerce(g)))
    g0 = min(g for _, g in coerced)
    w = Subspace.span(K, [c for c, g in coerced if g == g0])
    return make_module(domain, Segment.closed(group, g0), w)


def unit_module(domain: PullbackDomain) -> LeveledModule:
    return module_from_generators(domain, [(domain.residue_ext.one, domain.group.zero)])


def maximal_module(domain: PullbackDomain) -> LeveledModule:
    return LeveledModule(domain, Segment.open(domain.group, domain.group.zero))


def whole_module(domain: PullbackDomain) -> LeveledModule:
    """The quotient field as a D-module."""
    return LeveledModule(domain, Segment.whole(domain.group))


# -- lattice and arithmetic ---------------------------------------------------

def module_leq(a: LeveledModule, b: LeveledModule) -> bool:
    if not a.hull.leq(b.hull):
        return False
    # only b's minimum can hold less than K, and a reaches it only with the same hull
    if b.space is None or a.hull != b.hull:
        return True
    return a.space is not None and a.space.leq(b.space)


def _space_at_minimum(combine, a: LeveledModule, b: LeveledModule, hull: Segment):
    """combine of the spaces of a and b at the minimum of hull, the hull of a
    sum or a meet; None (all of K) when neither has a jump or hull has no
    minimum, since every other level of hull is full in both."""
    c = hull.minimum()
    if c is None or (a.space is None and b.space is None):
        return None
    return combine(space_at(a, c), space_at(b, c))


def module_sum(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    hull = segment_union(a.hull, b.hull)
    return make_module(a.domain, hull, _space_at_minimum(subspace_sum, a, b, hull))


def module_intersect(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    hull = segment_intersect(a.hull, b.hull)
    return make_module(a.domain, hull, _space_at_minimum(subspace_intersect, a, b, hull))


def module_mul(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    hull = segment_add(a.hull, b.hull)
    if a.space is None or b.space is None:
        return LeveledModule(a.domain, hull)  # a nonzero space times K is K
    return make_module(a.domain, hull, subspace_product(a.space, b.space))


def module_scale(a: LeveledModule, coeff, level) -> LeveledModule:
    """Multiply by the monomial coeff * t^level (axiom (x E)^star = x E^star)."""
    if a.domain.residue_ext.is_zero(coeff):
        raise AlgebraError("scaling by zero")
    hull = segment_shift(a.hull, a.domain.group.coerce(level))
    return LeveledModule(a.domain, hull, None if a.space is None else subspace_scale(coeff, a.space))


def module_colon(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    """{z : z * b inside a}: by b's hull when b has no jump, else a shifted
    down by b's jump level, with a's space transported by b's."""
    group = a.domain.group
    if b.space is None:
        full = a.hull if a.space is None else Segment.open(group, a.hull.cut)
        quot = segment_colon(full, b.hull)
        if quot.is_empty():
            raise AlgebraError("colon collapses to the zero module")
        return LeveledModule(a.domain, quot)
    hull = segment_shift(a.hull, group.neg(b.hull.cut))
    return make_module(a.domain, hull, None if a.space is None else transporter(a.space, b.space))


def extend_to_V(a: LeveledModule) -> LeveledModule:
    """a * V: the hull, with all of K at every level."""
    return a if a.space is None else LeveledModule(a.domain, a.hull)


# -- finite generation --------------------------------------------------------

def fg_witness(a: LeveledModule):
    """A generator list regenerating a, or None when a is not finitely
    generated (open hull over a dense group, or the whole field)."""
    c = a.hull.minimum()
    if c is None:
        return None
    rows = a.domain.residue_ext.basis if a.space is None else a.space.rows
    return tuple((row, c) for row in rows)


def module_canonical(domain: PullbackDomain, m: LeveledModule) -> bool:
    """True exactly when m is the module its generators regenerate over
    domain, module_from_generators(domain, fg_witness(m)) == m, read off the
    fields: m lies over domain with a hull in its group, and a jump space
    sits at the hull's minimum, in K, of dimension strictly between 0 and
    [K : k], with rows in RREF.  A module without a minimum passes on the
    same fields; it has no jump."""
    if not (m.domain is domain or m.domain == domain):
        return False
    group = domain.group
    if not (m.hull.group is group or m.hull.group == group):
        return False
    w = m.space
    if w is None:
        return True
    K = domain.residue_ext
    return (
        m.hull.minimum() is not None
        and (w.ambient is K or w.ambient == K)
        and 0 < len(w.rows) < K.degree
        and is_rref(K.base, w.rows, K.degree)
    )


def localize_at(seg: Segment) -> Segment:
    """Project a lex-group segment to the coarsened (first-coordinate) group,
    the value group of the localization at the rank-2 domain's height-one prime.

    The projected cut is closed iff some preimage level at that projected
    value lies in the segment; with canonical (closed) lex segments this is
    always the case: {g >= (a, b)} contains (a, max(b, n)) for every n.
    """
    return _coarsened(seg, 0)


def localized_core(seg: Segment) -> Segment:
    """The reverse of `localize_at`: the largest module over the localization
    at the height-one prime inside a lex-group segment, projected the same
    way.  {g >= (a, b)} misses (a, b - 1), so that module is {g : g_1 >= a + 1};
    the whole group is its own."""
    return _coarsened(seg, 1)


def _coarsened(seg: Segment, step: int) -> Segment:
    """The first-coordinate image of a lex-group segment, its cut moved up by step."""
    if seg.group.kind != "ZxZ":
        raise AlgebraError("localization needs the rank-2 lex group")
    out_group = ValueGroup("Z")
    if seg.is_whole():
        return Segment.whole(out_group)
    if seg.is_empty():
        return Segment.empty(out_group)
    return Segment.closed(out_group, seg.cut[0] + step)
