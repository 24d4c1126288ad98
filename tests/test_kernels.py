"""The integer kernels of fields and linalg against the generic references.

Row reduction, extension-field products and inverses, primality and
irreducibility are each checked against the restatement in oracles.py:
elimination through the base field's methods, polynomial division, and
trial division.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semistar.algebra import AlgebraError, ExtensionField, PrimeField, Rationals, Subspace
from semistar.algebra.fields import (
    SAMPLE_ATTEMPTS,
    _irreducible_over_prime_field,
    _irreducible_over_rationals,
    _is_prime,
)
from semistar.algebra.linalg import nullspace, rref
from semistar.exprs import parse_domain

from oracles import (
    ext_inv_reference,
    ext_mul_reference,
    irreducible_over_rationals_reference,
    irreducible_reference,
    is_prime_reference,
    monic_polys,
    rref_reference,
)

QQ = Rationals()
F5 = PrimeField(5)
FIELDS = {
    "Q(sqrt2)": ExtensionField(QQ, [-2, 0, 1]),
    "Q(cbrt2)": ExtensionField(QQ, [-2, 0, 0, 1]),
    "Q(sqrt1/2)": ExtensionField(QQ, [Fraction(-1, 2), 0, 1]),
    "F125": ExtensionField(F5, [1, 1, 0, 1]),
    "F16": ExtensionField(PrimeField(2), [1, 1, 0, 0, 1]),
}
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


def _scalars(base):
    return rationals if base is QQ else st.integers(0, base.p - 1)


@st.composite
def matrices(draw, base):
    width = draw(st.integers(1, 4))
    row = st.tuples(*[_scalars(base)] * width)
    return draw(st.lists(row, max_size=4)), width


@st.composite
def field_elements(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    K = FIELDS[name]
    element = st.tuples(*[_scalars(K.base)] * K.degree)
    return K, draw(element), draw(element)


# ---------------------------------------------------------------------------
# row reduction and subspace equations

@PROPERTY
@given(matrices(QQ))
def test_rref_over_q_matches_the_generic_elimination(matrix):
    rows, width = matrix
    assert rref(QQ, rows, width) == rref_reference(QQ, rows, width)


@PROPERTY
@given(matrices(F5))
def test_rref_over_f5_matches_the_generic_elimination(matrix):
    rows, width = matrix
    assert rref(F5, rows, width) == rref_reference(F5, rows, width)


def test_rref_keeps_the_scalar_types():
    red, _ = rref(QQ, [(Fraction(2), Fraction(4)), (Fraction(1, 3), Fraction(0))], 2)
    assert all(type(v) is Fraction for row in red for v in row)
    red, _ = rref(F5, [(2, 4)], 2)
    assert red == ((1, 2),) and all(type(v) is int for v in red[0])


@st.composite
def spanning_sets(draw):
    K = FIELDS[draw(st.sampled_from(["Q(cbrt2)", "F125"]))]
    vector = st.tuples(*[_scalars(K.base)] * K.degree)
    return K, draw(st.lists(vector, max_size=4))


@PROPERTY
@given(spanning_sets())
def test_equations_are_the_nullspace_of_the_rows(case):
    K, vectors = case
    space = Subspace.span(K, vectors)
    assert space._equations() == nullspace(K.base, space.rows, K.degree)


# ---------------------------------------------------------------------------
# extension-field products and inverses

@PROPERTY
@given(field_elements())
def test_product_and_inverse_match_polynomial_division(case):
    K, x, y = case
    assert K.mul(x, y) == ext_mul_reference(K, x, y)
    if not K.is_zero(x):
        assert K.inv(x) == ext_inv_reference(K, x)


def test_products_keep_the_scalar_types():
    for K in FIELDS.values():
        scalar = Fraction if K.base is QQ else int
        x = K.gen() if K.degree > 1 else K.one
        assert all(type(v) is scalar for v in K.mul(x, x) + K.inv(x))


# ---------------------------------------------------------------------------
# primality and irreducibility over F_p

def test_miller_rabin_matches_trial_division():
    for p in range(3000):
        assert _is_prime(p) == is_prime_reference(p), p


def test_miller_rabin_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 23 and 37 respectively
    for n, factors in ((3825123056546413051, (149491, 747451, 34233211)),
                       (318665857834031151167461, (399165290221, 798330580441))):
        assert n == prod(factors)
        assert not _is_prime(n)


def test_huge_characteristic_fails_clearly():
    with pytest.raises(AlgebraError, match="primes below"):
        PrimeField(2**127 - 1)


@pytest.mark.parametrize("p,top", [(2, 4), (3, 4), (5, 3)])
def test_rabin_matches_trial_division(p, top):
    base = PrimeField(p)
    for degree in range(1, top + 1):
        for f in monic_polys(base, degree):
            assert _irreducible_over_prime_field(base, f) == irreducible_reference(base, f), f


def _times_linear(f, r):
    """(x - r) f, coefficients lowest degree first."""
    shifted = [Fraction(0)] + list(f)
    return [s - r * c for s, c in zip(shifted, list(f) + [Fraction(0)])]


small_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def rational_moduli(draw):
    """Monic moduli of degree 2 or 3 over Q with small terms: free ones, and
    products (x - r) g with g monic, which have the rational root r."""
    degree = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return tuple(draw(st.lists(small_rationals, min_size=degree, max_size=degree))) + (Fraction(1),)
    g = tuple(draw(st.lists(small_rationals, min_size=degree - 1, max_size=degree - 1))) + (Fraction(1),)
    return tuple(_times_linear(g, draw(small_rationals)))


@settings(derandomize=True, database=None, deadline=2000, max_examples=200)
@given(rational_moduli())
@example((Fraction(2), Fraction(3), Fraction(1)))  # (x+1)(x+2): discriminant 1
@example((Fraction(2), Fraction(-3), Fraction(0), Fraction(1)))  # (x-1)^2 (x+2): a root at a critical point
@example((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))  # x^3 - 2
@example((Fraction(1, 4), Fraction(0), Fraction(-1), Fraction(1)))  # x^3 - x^2 + 1/4
def test_rational_irreducibility_matches_trial_division(modulus):
    assert _irreducible_over_rationals(modulus) == irreducible_over_rationals_reference(modulus), modulus


@pytest.mark.parametrize("text", [
    "family=pullback base_field=Fp:1000003 extension=a^4+a+1 group=Z",
    "family=pullback base_field=Fp:1000003 extension=a^2+1 group=Z",
    "family=pullback base_field=Fp:1000000000000000003 extension=a+1 group=Z",
])
def test_large_prime_fields_parse_fast(text):
    start = time.perf_counter()
    try:
        parse_domain(text)
    except AlgebraError:
        pass
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# bounded sampling

class _ZeroRng:
    """Every draw is the value nearest 0 in its range (a rational draws
    0/1), so every sampled element is zero.  A draw past the cap's worth
    raises, so an unbounded loop fails instead of hanging."""

    def __init__(self, limit):
        self.left = limit

    def _draw(self, lo=0):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("sampling loop ran past its cap")
        return max(lo, 0)

    def randint(self, lo, hi):
        return self._draw(lo)

    def randrange(self, n):
        return self._draw()


@pytest.mark.parametrize("name", ["Q(sqrt2)", "F16"])
def test_rand_nonzero_stops_at_its_cap(name):
    K = FIELDS[name]
    draws_per_element = 2 * K.degree  # at most two draws per coefficient
    rng = _ZeroRng(draws_per_element * SAMPLE_ATTEMPTS)
    with pytest.raises(AlgebraError, match=f"{SAMPLE_ATTEMPTS} attempts"):
        K.rand_nonzero(rng, 4)
