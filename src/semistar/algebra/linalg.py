"""Subspace lattice of a finite field extension, over the base field.

A Subspace stores a reduced row echelon basis of coefficient vectors, so
structural equality coincides with set equality.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import AlgebraError, ExtensionField


def rref(base, rows, width):
    """Reduced row echelon form over an exact base field; returns a tuple of rows."""
    m = [list(r) for r in rows]
    pivots = []
    pr = 0
    for pc in range(width):
        pivot_row = None
        for r in range(pr, len(m)):
            if not base.is_zero(m[r][pc]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = base.inv(m[pr][pc])
        m[pr] = [base.mul(inv, v) for v in m[pr]]
        for r in range(len(m)):
            if r != pr and not base.is_zero(m[r][pc]):
                c = m[r][pc]
                m[r] = [base.sub(v, base.mul(c, w)) for v, w in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return tuple(tuple(r) for r in m[:pr]), tuple(pivots)


def nullspace(base, rows, width):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(base, rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [base.zero] * width
        v[fc] = base.one
        for r, pc in enumerate(pivots):
            v[pc] = base.neg(red[r][fc])
        basis.append(tuple(v))
    return tuple(basis)


def _membership_equations(base, rows, width):
    """Rows N with: x in rowspace(rows) iff N x = 0 (double annihilator)."""
    return nullspace(base, rows, width)


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
        base = ambient.base
        rows = []
        for i in range(ambient.degree):
            v = [base.zero] * ambient.degree
            v[i] = base.one
            rows.append(tuple(v))
        return Subspace(ambient, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient.degree

    def _equations(self):
        return _membership_equations(self.ambient.base, self.rows, self.ambient.degree)

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
    base = a.ambient.base
    width = a.ambient.degree
    eqs = _membership_equations(base, a.rows, width) + _membership_equations(base, b.rows, width)
    return Subspace.span(a.ambient, nullspace(base, eqs, width))


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
    eqs_target = _membership_equations(base, target.rows, d)
    if not eqs_target:
        return Subspace.full(K)
    constraints = []
    unit_vectors = Subspace.full(K).rows
    for u in source.rows:
        # column j of (c -> c*u) in coordinates
        cols = [K.mul(e, u) for e in unit_vectors]
        for eq in eqs_target:
            constraints.append(tuple(_dot(base, eq, cols[j]) for j in range(d)))
    return Subspace.span(K, nullspace(base, constraints, d))
