"""Ordered abelian value groups and their upper-set segments.

Groups: Z, Q, and Z x Z ordered lexicographically.  A Segment is an upper
set of its group, stored as one totally ordered key:

    (-1,)        the whole group
    (0, c, 0)    {g : g >= c}
    (0, c, 1)    {g : g > c}
    (1,)         the empty set

The upper sets of a totally ordered group form a chain, and a larger key is
a smaller set, so inclusion is key order and meet and join are max and min
of keys.  In discrete groups {g > c} is stored as {g >= c'}, c' the
successor of c, so that structural equality is semantic equality.
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


_WHOLE, _EMPTY = (-1,), (1,)


@dataclass(frozen=True)
class Segment:
    """An upper set of group, named by its key (see the module docstring)."""

    group: ValueGroup
    key: tuple

    @staticmethod
    def make(group: ValueGroup, shape: str, cut=None) -> "Segment":
        """The segment of shape "whole", "empty", "closed" ({g >= cut}) or
        "open" ({g > cut})."""
        if shape == "whole":
            return Segment(group, _WHOLE)
        if shape == "empty":
            return Segment(group, _EMPTY)
        if shape not in ("open", "closed"):
            raise AlgebraError(f"bad segment shape {shape!r}")
        cut = group.coerce(cut)
        if shape == "closed":
            return Segment(group, (0, cut, 0))
        if group.discrete:
            return Segment(group, (0, group.successor(cut), 0))
        return Segment(group, (0, cut, 1))

    @staticmethod
    def closed(group, cut):
        return Segment(group, (0, group.coerce(cut), 0))

    @staticmethod
    def open(group, cut):
        return Segment.make(group, "open", cut)

    @staticmethod
    def whole(group):
        return Segment(group, _WHOLE)

    @staticmethod
    def empty(group):
        return Segment(group, _EMPTY)

    @property
    def cut(self):
        """The boundary element; None for the whole group and the empty set."""
        return self.key[1] if len(self.key) == 3 else None

    def minimum(self):
        """The least element, or None when there is none."""
        return self.key[1] if len(self.key) == 3 and self.key[2] == 0 else None

    def is_empty(self) -> bool:
        return self.key == _EMPTY

    def is_whole(self) -> bool:
        return self.key == _WHOLE

    def contains(self, g) -> bool:
        if len(self.key) == 1:
            return self.key == _WHOLE
        return self.key <= (0, self.group.coerce(g), 0)  # {h >= g} inside self

    def leq(self, other: "Segment") -> bool:
        """Subset test: self a subset of other."""
        return self.key >= other.key

    def fmt(self) -> str:
        if self.is_whole():
            return "all"
        if self.is_empty():
            return "none"
        _, cut, strict = self.key
        return (">" if strict else ">=") + self.group.fmt(cut)


def segment_add(s: Segment, t: Segment) -> Segment:
    """Minkowski sum; models the product of the corresponding valuation ideals."""
    if s.is_empty() or t.is_empty():
        return Segment.empty(s.group)
    if s.is_whole() or t.is_whole():
        return Segment.whole(s.group)
    (_, a, f), (_, b, h) = s.key, t.key
    return Segment(s.group, (0, s.group.add(a, b), max(f, h)))


def segment_colon(s: Segment, t: Segment) -> Segment:
    """{g : g + t <= s} (colon of valuation ideals, exact in dense groups)."""
    if t.is_empty():
        raise AlgebraError("segment colon by the empty segment")
    if s.is_whole():
        return Segment.whole(s.group)
    if t.is_whole() or s.is_empty():
        return Segment.empty(s.group)
    (_, a, f), (_, b, h) = s.key, t.key
    return Segment(s.group, (0, s.group.sub(a, b), max(0, f - h)))


def segment_intersect(s: Segment, t: Segment) -> Segment:
    return s if s.key >= t.key else t


def segment_union(s: Segment, t: Segment) -> Segment:
    return t if s.key >= t.key else s


def segment_shift(s: Segment, g) -> Segment:
    if len(s.key) == 1:
        return s
    _, cut, strict = s.key
    return Segment(s.group, (0, s.group.coerce(s.group.add(cut, g)), strict))
