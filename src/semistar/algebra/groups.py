"""Ordered abelian value groups and their upper-set segments.

Groups: Z, Q, and Z x Z ordered lexicographically.  A Segment is an upper
set cut at a group element, open or closed, plus the degenerate Whole and
Empty shapes.  In discrete groups Open(c) is normalized to Closed(c + 1)
so that structural equality is semantic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import AlgebraError


class ValueGroup:
    """A totally ordered abelian group: "Z", "Q", or "ZxZ" (lex order)."""

    KINDS = ("Z", "Q", "ZxZ")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise AlgebraError(f"unknown value group {kind!r}")
        self.kind = kind
        self.discrete = kind in ("Z", "ZxZ")
        self.zero = (0, 0) if kind == "ZxZ" else (0 if kind == "Z" else Fraction(0))

    def coerce(self, g):
        if self.kind == "Z":
            if isinstance(g, Fraction):
                if g.denominator != 1:
                    raise AlgebraError("non-integer level in Z")
                return int(g)
            return int(g)
        if self.kind == "Q":
            return g if isinstance(g, Fraction) else Fraction(g)
        if isinstance(g, (tuple, list)) and len(g) == 2:
            return (int(g[0]), int(g[1]))
        raise AlgebraError("lex group elements are integer pairs")

    def add(self, a, b):
        if self.kind == "ZxZ":
            return (a[0] + b[0], a[1] + b[1])
        return a + b

    def neg(self, a):
        if self.kind == "ZxZ":
            return (-a[0], -a[1])
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def le(self, a, b) -> bool:
        return a <= b  # tuples compare lexicographically

    def lt(self, a, b) -> bool:
        return a < b

    def successor(self, a):
        if not self.discrete:
            raise AlgebraError("successor only exists in discrete groups")
        if self.kind == "ZxZ":
            return (a[0], a[1] + 1)
        return a + 1

    def rand(self, rng, window: int = 8, denbound: int = 12):
        if self.kind == "Z":
            return rng.randint(-window, window)
        if self.kind == "Q":
            return Fraction(rng.randint(-window, window), rng.randint(1, denbound))
        return (rng.randint(-window, window), rng.randint(-window, window))

    def fmt(self, a) -> str:
        if self.kind == "ZxZ":
            return f"{a[0]},{a[1]}"
        return str(a)

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return isinstance(other, ValueGroup) and other.kind == self.kind

    def __hash__(self):
        return hash(("group", self.kind))


@dataclass(frozen=True)
class Segment:
    """The upper set {g : g >= cut} (closed) or {g : g > cut} (open)."""

    group: ValueGroup
    shape: str  # "whole" | "empty" | "closed" | "open"
    cut: object = None

    @staticmethod
    def make(group: ValueGroup, shape: str, cut=None) -> "Segment":
        if shape in ("whole", "empty"):
            return Segment(group, shape, None)
        cut = group.coerce(cut)
        if shape == "open" and group.discrete:
            return Segment(group, "closed", group.successor(cut))
        if shape not in ("open", "closed"):
            raise AlgebraError(f"bad segment shape {shape!r}")
        return Segment(group, shape, cut)

    @staticmethod
    def closed(group, cut):
        return Segment.make(group, "closed", cut)

    @staticmethod
    def open(group, cut):
        return Segment.make(group, "open", cut)

    @staticmethod
    def whole(group):
        return Segment(group, "whole", None)

    @staticmethod
    def empty(group):
        return Segment(group, "empty", None)

    def is_empty(self) -> bool:
        return self.shape == "empty"

    def is_whole(self) -> bool:
        return self.shape == "whole"

    def contains(self, g) -> bool:
        if self.shape == "whole":
            return True
        if self.shape == "empty":
            return False
        g = self.group.coerce(g)
        if self.shape == "closed":
            return self.group.le(self.cut, g)
        return self.group.lt(self.cut, g)

    def leq(self, other: "Segment") -> bool:
        """Subset test: self a subset of other."""
        _same_group(self, other)
        if self.shape == "empty" or other.shape == "whole":
            return True
        if self.shape == "whole" or other.shape == "empty":
            return False
        if other.shape == "closed":
            # {>=a} or {>a} inside {>=b}
            return self.group.le(other.cut, self.cut)
        # other open {>b}
        if self.shape == "closed":
            return self.group.lt(other.cut, self.cut)
        return self.group.le(other.cut, self.cut)

    def eq(self, other: "Segment") -> bool:
        return self.leq(other) and other.leq(self)

    def fmt(self) -> str:
        if self.shape == "whole":
            return "all"
        if self.shape == "empty":
            return "none"
        op = ">=" if self.shape == "closed" else ">"
        return f"{op}{self.group.fmt(self.cut)}"


def _same_group(s: Segment, t: Segment):
    if s.group != t.group:
        raise AlgebraError("segments over different value groups")


def segment_add(s: Segment, t: Segment) -> Segment:
    """Minkowski sum; models the product of the corresponding valuation ideals."""
    _same_group(s, t)
    if s.is_empty() or t.is_empty():
        return Segment.empty(s.group)
    if s.is_whole() or t.is_whole():
        return Segment.whole(s.group)
    cut = s.group.add(s.cut, t.cut)
    shape = "closed" if (s.shape == "closed" and t.shape == "closed") else "open"
    return Segment.make(s.group, shape, cut)


def segment_colon(s: Segment, t: Segment) -> Segment:
    """{g : g + t <= s} (colon of valuation ideals, exact in dense groups)."""
    _same_group(s, t)
    if t.is_empty():
        raise AlgebraError("segment colon by the empty segment")
    if s.is_whole():
        return Segment.whole(s.group)
    if t.is_whole():
        return Segment.empty(s.group)
    if s.is_empty():
        return Segment.empty(s.group)
    cut = s.group.sub(s.cut, t.cut)
    # In canonical form discrete segments are closed, so these rules cover
    # every case: closed:closed and open:open give closed, open:closed open.
    if s.shape == "closed":
        shape = "closed"
    else:
        shape = "closed" if t.shape == "open" else "open"
    return Segment.make(s.group, shape, cut)


def segment_intersect(s: Segment, t: Segment) -> Segment:
    _same_group(s, t)
    if s.leq(t):
        return s
    if t.leq(s):
        return t
    raise AlgebraError("segments failed the chain property")


def segment_union(s: Segment, t: Segment) -> Segment:
    _same_group(s, t)
    if s.leq(t):
        return t
    if t.leq(s):
        return s
    raise AlgebraError("segments failed the chain property")


def segment_shift(s: Segment, g) -> Segment:
    if s.shape in ("whole", "empty"):
        return s
    return Segment.make(s.group, s.shape, s.group.add(s.cut, g))
