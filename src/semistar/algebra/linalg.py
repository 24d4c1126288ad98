"""Subspace lattice of a finite field extension, over the base field.

A Subspace stores a reduced row echelon basis of coefficient vectors, so
structural equality coincides with set equality.  Everything is exact.

Row reduction runs on Python integers, with a kernel chosen by the base
field.  Over Q each row is scaled to integers by the lcm of its
denominators and eliminated fraction-free: cross-multiply, then divide out
the row's gcd (integer-preserving elimination after Bareiss, Math. Comp. 22,
1968); each pivot row is divided by its pivot once, at the end.  Over F_p
the same loop runs on residues with one modular inverse per pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .fields import AlgebraError, ExtensionField, common_denominator


def eliminate(rows, width, p=0):
    """Gauss-Jordan elimination on integer rows, pivoting in the first width columns.

    Over F_p (p prime) entries are residues, each pivot row is scaled to a
    pivot of 1, and the result is the RREF.  Over Q (p = 0) elimination is
    fraction-free and each row keeps the scale of its pivot: dividing row r
    by its entry at pivots[r] gives the RREF.  Returns (rows, pivots).
    """
    m = [[v % p for v in r] for r in rows] if p else [list(r) for r in rows]
    pivots = []
    pr = 0
    for pc in range(width):
        for r in range(pr, len(m)):
            if m[r][pc]:
                break
        else:
            continue
        m[pr], m[r] = m[r], m[pr]
        if p:
            inv = pow(m[pr][pc], -1, p)
            m[pr] = [v * inv % p for v in m[pr]]
        prow = m[pr]
        pivot = prow[pc]
        for r, row in enumerate(m):
            c = row[pc]
            if c and r != pr:
                if p:
                    m[r] = [(v - c * w) % p for v, w in zip(row, prow)]
                else:
                    row = [pivot * v - c * w for v, w in zip(row, prow)]
                    g = gcd(*row)
                    m[r] = [v // g for v in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return m[:pr], pivots


def rref(base, rows, width):
    """Reduced row echelon form over Q or F_p; returns (rows, pivot columns)."""
    if base.kind == "Fp":
        red, pivots = eliminate(rows, width, base.p)
        return tuple(map(tuple, red)), tuple(pivots)
    red, pivots = eliminate([common_denominator(r)[0] for r in rows], width)
    zero, one = base.zero, base.one  # shared: most entries of an RREF are 0 or a pivot
    out = tuple(
        tuple([zero if not v else one if v == row[pc] else Fraction(v, row[pc]) for v in row])
        for row, pc in zip(red, pivots)
    )
    return out, tuple(pivots)


def is_rref(base, rows, width) -> bool:
    """True when rows are their own reduced row echelon form, as rref returns
    it: every row has the given width and a leading one, the pivot columns
    increase, each pivot is alone in its column, and over F_p every entry is
    a residue in [0, p).  Builds nothing."""
    p = base.p if base.kind == "Fp" else 0
    one = base.one
    last = -1
    for r, row in enumerate(rows):
        if len(row) != width or (p and not all(0 <= v < p for v in row)):
            return False
        pc = next((i for i, v in enumerate(row) if v), None)
        if pc is None or pc <= last or row[pc] != one:
            return False
        # the rows below lead further right, so only the rows above can share the column
        if any(rows[s][pc] for s in range(r)):
            return False
        last = pc
    return True


def _annihilator(base, red, pivots, width):
    """Basis of {x : M x = 0} for a matrix M already in RREF with these pivots."""
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        v = [base.zero] * width
        v[fc] = base.one
        for r, pc in enumerate(pivots):
            v[pc] = base.neg(red[r][fc])
        basis.append(tuple(v))
    return tuple(basis)


def nullspace(base, rows, width):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(base, rows, width)
    return _annihilator(base, red, pivots, width)


def _dot(base, u, v):
    s = base.zero
    for a, b in zip(u, v):
        s = base.add(s, base.mul(a, b))
    return s


def _solves(base, eqs, x) -> bool:
    """N x = 0 for the equation rows N."""
    return all(base.is_zero(_dot(base, eq, x)) for eq in eqs)


@dataclass(frozen=True)
class Subspace:
    """A base-field subspace of an extension field K, in canonical RREF form."""

    ambient: ExtensionField
    rows: tuple

    @staticmethod
    def span(ambient: ExtensionField, vectors) -> "Subspace":
        red, _ = rref(ambient.base, list(vectors), ambient.degree)
        return Subspace(ambient, red)

    @staticmethod
    def zero(ambient: ExtensionField) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: ExtensionField) -> "Subspace":
        return Subspace(ambient, ambient.basis)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient.degree

    def _equations(self):
        """Rows N with: x in self iff N x = 0, read off the RREF pivots."""
        base = self.ambient.base
        pivots = [next(i for i, v in enumerate(row) if not base.is_zero(v)) for row in self.rows]
        return _annihilator(base, self.rows, pivots, self.ambient.degree)

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        eqs = other._equations()  # derived once for every row
        return all(_solves(self.ambient.base, eqs, r) for r in self.rows)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise AlgebraError("subspace ambient fields differ")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_ambient(b)
    return Subspace.span(a.ambient, list(a.rows) + list(b.rows))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    a._check_ambient(b)
    eqs = a._equations() + b._equations()
    return Subspace.span(a.ambient, nullspace(a.ambient.base, eqs, a.ambient.degree))


def subspace_scale(c, w: Subspace) -> Subspace:
    K = w.ambient
    if K.is_zero(c):
        raise AlgebraError("scaling a subspace by zero is not allowed")
    return Subspace.span(K, [K.mul(c, row) for row in w.rows])


def subspace_product(a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise products of elements of a and b."""
    a._check_ambient(b)
    K = a.ambient
    prods = [K.mul(x, y) for x in a.rows for y in b.rows]
    return Subspace.span(K, prods)


def transporter(target: Subspace, source: Subspace) -> Subspace:
    """{c in K : c * source <= target}, as a subspace of K."""
    target._check_ambient(source)
    K = target.ambient
    base = K.base
    d = K.degree
    if source.is_zero():
        return Subspace.full(K)
    eqs_target = target._equations()
    if not eqs_target:
        return Subspace.full(K)
    constraints = []
    for u in source.rows:
        # column j of (c -> c*u) in coordinates
        cols = [K.mul(e, u) for e in K.basis]
        for eq in eqs_target:
            constraints.append(tuple(_dot(base, eq, cols[j]) for j in range(d)))
    return Subspace.span(K, nullspace(base, constraints, d))
