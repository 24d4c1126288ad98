"""Valuation domains V = K + M and their pullbacks D = k + M.

Fractional D-submodules of the quotient field are leveled modules: the set
of elements whose coefficient at each value-group level lies in a prescribed
k-subspace of K.  Being a D-module forces the shape "one proper jump at the
minimal level, full K strictly above it" or "a plain segment of full-K
levels", which is exactly what the canonical form stores.  Elements exist
only as finite leading-term expansions inside the test oracles.
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
    """Canonical leveled module: at most one proper jump, then a full tail."""

    domain: PullbackDomain
    jumps: tuple  # () or ((level, Subspace),)
    tail: Segment

    def jump(self):
        return self.jumps[0] if self.jumps else None

    def __repr__(self):
        K = self.domain.residue_ext
        parts = []
        for g, w in self.jumps:
            basis = "{" + ",".join(K.fmt(r) for r in w.rows) + "}"
            parts.append(f"{basis}@{self.domain.group.fmt(g)}")
        parts.append(f"K@{self.tail.fmt()}")
        return "mod[" + " | ".join(parts) + "]"


def _check_domain(a: LeveledModule, b: LeveledModule):
    if a.domain != b.domain:
        raise AlgebraError("modules over different pullback domains")


def canonical(domain: PullbackDomain, jumps, tail: Segment) -> LeveledModule:
    """Normalize to the unique canonical shape, rejecting non-D-modules."""
    group = domain.group
    if tail.group != group:
        raise AlgebraError("tail over the wrong value group")
    kept = []
    for g, w in jumps:
        g = group.coerce(g)
        if w.is_zero() or tail.contains(g):
            continue
        kept.append((g, w))
    if len(kept) > 1:
        raise AlgebraError("a D-module admits at most one proper jump level")
    if not kept:
        if tail.is_empty():
            raise AlgebraError("zero module is not representable")
        return LeveledModule(domain, (), tail)
    g, w = kept[0]
    above = Segment.open(group, g)
    if not tail.eq(above):
        raise AlgebraError("jump must sit directly under a full tail")
    if w.is_full():
        return LeveledModule(domain, (), Segment.closed(group, g))
    return LeveledModule(domain, ((g, w),), above)


def space_at(m: LeveledModule, g) -> Subspace:
    K = m.domain.residue_ext
    if m.tail.contains(g):
        return Subspace.full(K)
    j = m.jump()
    if j is not None and j[0] == m.domain.group.coerce(g):
        return j[1]
    return Subspace.zero(K)


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
    return canonical(domain, [(g0, w)], Segment.open(group, g0))


def unit_module(domain: PullbackDomain) -> LeveledModule:
    return module_from_generators(domain, [(domain.residue_ext.one, domain.group.zero)])


def maximal_module(domain: PullbackDomain) -> LeveledModule:
    return canonical(domain, (), Segment.open(domain.group, domain.group.zero))


def whole_module(domain: PullbackDomain) -> LeveledModule:
    """The quotient field as a D-module."""
    return LeveledModule(domain, (), Segment.whole(domain.group))


# -- lattice and arithmetic ---------------------------------------------------

def module_leq(a: LeveledModule, b: LeveledModule) -> bool:
    _check_domain(a, b)
    if not a.tail.leq(b.tail):
        return False
    j = a.jump()
    if j is None:
        return True
    g, w = j
    return w.leq(space_at(b, g))


def module_eq(a: LeveledModule, b: LeveledModule) -> bool:
    _check_domain(a, b)
    return a == b  # canonical form makes structural equality semantic


def module_sum(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    _check_domain(a, b)
    tail = segment_union(a.tail, b.tail)
    levels = {}
    for m in (a, b):
        j = m.jump()
        if j is not None and not tail.contains(j[0]):
            levels.setdefault(j[0], []).append(j[1])
    jumps = []
    for g, spaces in levels.items():
        w = spaces[0]
        for extra in spaces[1:]:
            w = subspace_sum(w, extra)
        w = subspace_sum(w, space_at(a, g))
        w = subspace_sum(w, space_at(b, g))
        jumps.append((g, w))
    return canonical(a.domain, jumps, tail)


def module_intersect(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    _check_domain(a, b)
    tail = segment_intersect(a.tail, b.tail)
    jumps = []
    for m in (a, b):
        j = m.jump()
        if j is not None and not tail.contains(j[0]):
            g = j[0]
            w = subspace_intersect(space_at(a, g), space_at(b, g))
            jumps.append((g, w))
    # duplicate candidate levels collapse to the same space
    seen = {}
    for g, w in jumps:
        seen[g] = w
    return canonical(a.domain, list(seen.items()), tail)


def _hull(m: LeveledModule) -> Segment:
    j = m.jump()
    if j is None:
        return m.tail
    return Segment.closed(m.domain.group, j[0])


def module_mul(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    _check_domain(a, b)
    ja, jb = a.jump(), b.jump()
    if ja is not None and jb is not None:
        g = a.domain.group.add(ja[0], jb[0])
        w = subspace_product(ja[1], jb[1])
        return canonical(a.domain, [(g, w)], Segment.open(a.domain.group, g))
    return canonical(a.domain, (), segment_add(_hull(a), _hull(b)))


def module_scale(a: LeveledModule, coeff, level) -> LeveledModule:
    """Multiply by the monomial coeff * t^level (axiom (x E)^star = x E^star)."""
    K = a.domain.residue_ext
    group = a.domain.group
    if K.is_zero(coeff):
        raise AlgebraError("scaling by zero")
    level = group.coerce(level)
    tail = segment_shift(a.tail, level)
    j = a.jump()
    jumps = []
    if j is not None:
        jumps.append((group.add(j[0], level), subspace_scale(coeff, j[1])))
    return canonical(a.domain, jumps, tail)


def module_colon(a: LeveledModule, b: LeveledModule) -> LeveledModule:
    """{z : z * b inside a}, computed from the finitely many critical levels."""
    _check_domain(a, b)
    group = a.domain.group
    jb = b.jump()
    if jb is None:
        t0 = segment_colon(a.tail, b.tail)
        if t0.is_empty():
            raise AlgebraError("colon collapses to the zero module")
        return canonical(a.domain, (), t0)
    gb, u = jb
    tail = segment_shift(a.tail, group.neg(gb))
    ja = a.jump()
    jumps = []
    if ja is not None:
        h = group.sub(ja[0], gb)
        jumps.append((h, transporter(ja[1], u)))
    return canonical(a.domain, jumps, tail)


def extend_to_V(a: LeveledModule) -> LeveledModule:
    """a * V: clear the jump down to a closed full tail at its level."""
    j = a.jump()
    if j is None:
        return a
    return canonical(a.domain, (), Segment.closed(a.domain.group, j[0]))


def v_closure_pullback(a: LeveledModule) -> LeveledModule:
    d = unit_module(a.domain)
    return module_colon(d, module_colon(d, a))


# -- finite generation --------------------------------------------------------

def fg_witness(a: LeveledModule):
    """A generator list regenerating a, or None when a is not finitely
    generated (open tail with no jump over a dense group, or the whole field)."""
    K = a.domain.residue_ext
    j = a.jump()
    if j is not None:
        g, w = j
        return tuple((row, g) for row in w.rows)
    c = a.tail.minimum()
    if c is not None:
        return tuple((row, c) for row in K.basis)
    return None


def localize_at(seg: Segment) -> Segment:
    """Project a lex-group segment to the coarsened (first-coordinate) group,
    the value group of the localization at the rank-2 domain's height-one prime.

    The projected cut is closed iff some preimage level at that projected
    value lies in the segment; with canonical (closed) lex segments this is
    always the case.
    """
    if seg.group.kind != "ZxZ":
        raise AlgebraError("localization needs the rank-2 lex group")
    out_group = ValueGroup("Z")
    if seg.is_whole():
        return Segment.whole(out_group)
    if seg.is_empty():
        return Segment.empty(out_group)
    # {g >= (a, b)} contains (a, max(b, n)) for every n, so value a projects in
    return Segment.closed(out_group, seg.cut[0])

