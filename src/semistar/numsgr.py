"""Numerical semigroup rings K[[S]] and their monomial fractional ideals.

An ideal is a finite set of integer generator values g; the represented
value set is the union of the translates g + S.  The coefficient field
never enters: monomial ideal arithmetic only sees values.  The v closure
is read off the Apery set of S, checked when S is built, and checks that
it is extensive; colon and intersection walk windows of conductor size,
and their window bounds carry an explicit tail-stability check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .algebra.fields import AlgebraError


# Colon and intersection walk windows of conductor size.  At this cap the
# CLI's "inv(<x^0>)" over <173,175> (Frobenius number 29,927) takes 0.37 s
# on a 2-CPU machine with Python 3.11.
MAX_FROBENIUS = 30_000

# The Apery round robin and the table check of `NumericalSemigroup` each walk
# every residue mod the smallest generator once per generator.  At this cap
# 64 generators from 30,001 up take about 0.26 s before the Frobenius cap
# rejects them, and "v(<x^0>)" over <1363, ..., 1426> (Frobenius number
# 29,985) takes 0.30 s through the CLI, 9 ms of it the check (2 CPUs, 3.11).
MAX_GENERATORS = 64


def _apery(gens) -> list:
    """The Apery set of S at its smallest generator m: entry r is the least
    element of S congruent to r mod m.  These are shortest paths from 0 over
    the residues mod m, one edge of length g for each generator g, found by
    Bocker and Liptak's round-robin pass: each generator goes once round
    each of its residue cycles, from the cycle's least entry so far."""
    m = gens[0]
    best = [0] + [None] * (m - 1)
    for g in gens[1:]:
        d = gcd(g, m)
        for p in range(d):
            reached = [best[r] for r in range(p, m, d) if best[r] is not None]
            if not reached:
                continue
            n = min(reached)
            for _ in range(m // d - 1):
                n += g
                r = n % m
                if best[r] is not None and best[r] < n:
                    n = best[r]
                best[r] = n
    return best


@dataclass(frozen=True)
class NumericalSemigroup:
    """The additive submonoid of N generated by a gcd-1 set of positives."""

    generators: tuple
    gaps: tuple = field(compare=False)  # the generators determine it, and it can be long: hash and == skip it
    frobenius: int
    apery: tuple = field(compare=False)  # entry r: the least element of S that is r mod m

    def __post_init__(self):  # also under dataclasses.replace
        """The Apery table holds the shortest paths from 0 over the residues mod
        m: ap[0] = 0, each other ap[r] is r mod m and min_g ap[(r - g) mod m] + g."""
        ap, gens, m = self.apery, self.generators, self.generators[0]
        if len(ap) != m or ap[0] != 0 or any(
                a % m != r or a != min(ap[(r - g) % m] + g for g in gens) for r, a in enumerate(ap) if r):
            raise AlgebraError(f"{ap[:8]} is not the Apery table of {self!r}")

    @staticmethod
    def create(generators) -> "NumericalSemigroup":
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or any(g <= 0 for g in gens):
            raise AlgebraError("semigroup generators must be positive")
        if len(gens) > MAX_GENERATORS:
            raise AlgebraError(f"{len(gens)} generators, above the cap {MAX_GENERATORS}")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise AlgebraError("semigroup generators must have gcd 1")
        m = gens[0]
        if m - 1 > MAX_FROBENIUS:  # 1, ..., m - 1 are gaps
            raise AlgebraError(f"Frobenius number at least {m - 1}, above the cap {MAX_FROBENIUS}")
        apery = _apery(gens)
        frob = max(apery) - m
        if frob > MAX_FROBENIUS:
            raise AlgebraError(f"Frobenius number {frob} above the cap {MAX_FROBENIUS}")
        gaps = tuple(n for n in range(frob + 1) if n < apery[n % m])
        return NumericalSemigroup(gens, gaps, frob, tuple(apery))

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @cached_property
    def _gapset(self) -> frozenset:
        return frozenset(self.gaps)

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return n not in self._gapset

    def __repr__(self):
        return "<" + ",".join(str(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class MonomialIdeal:
    """A nonzero monomial fractional ideal, kept with minimal generators."""

    ring: NumericalSemigroup
    gens: tuple

    def min_value(self) -> int:
        return self.gens[0]

    def __repr__(self):
        return "(" + ",".join(f"x^{g}" for g in self.gens) + ")"


def ideal_normalize(ring: NumericalSemigroup, values) -> MonomialIdeal:
    vals = sorted(set(int(v) for v in values))
    if not vals:
        raise AlgebraError("a monomial ideal needs at least one generator")
    kept = []
    for v in vals:
        if not any(ring.member(v - g) for g in kept):
            kept.append(v)
    return MonomialIdeal(ring, tuple(kept))


def ideal_canonical(ring: NumericalSemigroup, a: MonomialIdeal) -> bool:
    """True exactly when a is ideal_normalize(ring, a.gens), read off the
    generators: a lies over ring, and its generators are nonempty, strictly
    increasing and minimal (no difference g_j - g_i lies in S)."""
    if not (a.ring is ring or a.ring == ring):
        return False
    gens = a.gens
    if not gens:
        return False
    gaps = ring._gapset  # a positive difference lies in S exactly when it is no gap
    for j in range(1, len(gens)):
        g = gens[j]
        if g <= gens[j - 1]:
            return False
        for h in gens[:j]:
            if g - h not in gaps:
                return False
    return True


def ideal_membership(a: MonomialIdeal, z: int) -> bool:
    return any(a.ring.member(z - g) for g in a.gens)


def ring_ideal(ring: NumericalSemigroup) -> MonomialIdeal:
    return MonomialIdeal(ring, (0,))


def maximal_ideal(ring: NumericalSemigroup) -> MonomialIdeal:
    return ideal_normalize(ring, ring.generators)


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return ideal_normalize(a.ring, a.gens + b.gens)


def ideal_mul(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return ideal_normalize(a.ring, [x + y for x in a.gens for y in b.gens])


def ideal_shift(a: MonomialIdeal, h: int) -> MonomialIdeal:
    return MonomialIdeal(a.ring, tuple(g + h for g in a.gens))


def ideal_intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    c = a.ring.conductor
    lo = max(a.min_value(), b.min_value())
    hi = lo + c
    vals = [z for z in range(lo, hi) if ideal_membership(a, z) and ideal_membership(b, z)]
    # all z >= hi lie in both translates of the minimal generators; assert it
    for z in range(hi, hi + c + 1):
        if not (ideal_membership(a, z) and ideal_membership(b, z)):
            raise AlgebraError("intersection window tail not stable")
    vals.extend(range(hi, hi + c + 1))
    return ideal_normalize(a.ring, vals)


def ideal_colon(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """(a : b) = {z : z + values(b) inside values(a)}."""
    c = a.ring.conductor
    lo = a.min_value() - max(b.gens) - c
    hi = a.min_value() - b.min_value() + c

    def ok(z):
        return all(ideal_membership(a, z + g) for g in b.gens)

    vals = [z for z in range(lo, hi) if ok(z)]
    for z in range(hi, hi + c + 1):
        if not ok(z):
            raise AlgebraError("colon window tail not stable")
    vals.extend(range(hi, hi + c + 1))
    return ideal_normalize(a.ring, vals)


def v_closure(a: MonomialIdeal) -> MonomialIdeal:
    """(S : (S : a)) from the Apery set ap of S at m, as z lies in S exactly when
    z >= ap[z mod m]: (S : a) has residue minima t[r] = max_g ap[(r + g) mod m] - g
    over the generators g of a, and v(a) has u[s] = max_r ap[(s + t[r]) mod m] - t[r]."""
    ap = a.ring.apery
    m = len(ap)
    t = [max(ap[(r + g) % m] - g for g in a.gens) for r in range(m)]
    va = ideal_normalize(a.ring, [max(ap[(s + x) % m] - x for x in t) for s in range(m)])
    if not ideal_leq(a, va):
        raise AlgebraError("v closure not extensive: the Apery table is wrong")
    return va


def hull_extension(a: MonomialIdeal) -> MonomialIdeal:
    """a * K[[X]]: the full tail {z >= min a}, as an ideal of the ring."""
    m = a.min_value()
    return ideal_normalize(a.ring, range(m, m + a.ring.conductor + 1))


def ideal_leq(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """a a subset of b, decided on generators."""
    return all(ideal_membership(b, g) for g in a.gens)


def enumerate_ideals(ring: NumericalSemigroup, lo: int, hi: int):
    """Every normalized ideal with all generators in [lo, hi], no duplicates.

    Normalized generator sets are exactly the antichains of the divisibility
    order v <= w iff w - v in S, built here by increasing value.
    """
    out = []
    stack = [((), lo)]  # (chosen, the least value that may extend it), popped depth first
    while stack:
        chosen, start = stack.pop()
        if chosen:
            out.append(MonomialIdeal(ring, chosen))
        for w in range(hi, start - 1, -1):  # pushed largest first, so the smallest is extended first
            if not any(ring.member(w - g) for g in chosen):
                stack.append((chosen + (w,), w + 1))
    return out
