"""Exact scalar arithmetic: rationals, prime fields, and finite field extensions.

Field objects carry the arithmetic; elements stay plain hashable values
(Fraction for Q, small ints for F_p, coefficient tuples for extensions).
No floating point is used anywhere.

Extension products run on integers: a table of a^k mod the modulus, built
once per field, turns a product into one convolution and one pass over the
table, over Q on integer numerators with one common denominator.  Inverses
solve the multiplication matrix with the row-reduction kernel of
``linalg``.  Primality is deterministic Miller-Rabin, irreducibility over
F_p is Rabin's test (SIAM J. Comput. 9, 1980), and irreducibility over Q
(degree at most 3) is the absence of a rational root, decided in O(log)
exact evaluations.  Each base field caps the extension degree it accepts.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


class AlgebraError(ValueError):
    """Structurally invalid algebra input (bad modulus, zero inverse, mismatch)."""


SAMPLE_ATTEMPTS = 1000  # rejection-sampling cap; a hit raises instead of hanging

# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < _MR_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        raise AlgebraError(f"characteristic limited to primes below {_MR_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def common_denominator(v):
    """Integers n and one denominator D with v[i] == n[i] / D, for rationals v."""
    den = lcm(*[c.denominator for c in v])
    return [c.numerator * (den // c.denominator) for c in v], den


class Rationals:
    """The field Q. Elements are fractions.Fraction."""

    kind = "Q"
    extension_degree_cap = 3  # irreducibility is decided by rational roots alone

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise AlgebraError("zero has no inverse")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def rand(self, rng, bound=6):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The field F_p. Elements are ints reduced into [0, p)."""

    kind = "Fp"
    # Rabin's test and the construction-time self-check cost O(d^3 log p):
    # degree 16 over p = 2^61 - 1 constructs in about 0.1 s
    extension_degree_cap = 16

    def __init__(self, p: int):
        if not _is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise AlgebraError("denominator divisible by characteristic")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise AlgebraError("zero has no inverse")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def rand(self, rng, bound=None):
        return rng.randrange(self.p)

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


# ---------------------------------------------------------------------------
# polynomials over a base field, as coefficient tuples (index = degree)

def poly_trim(base, coeffs):
    c = list(coeffs)
    while c and base.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def poly_divmod(base, f, g):
    if not g:
        raise AlgebraError("polynomial division by zero")
    f = list(f)
    q = [base.zero] * max(0, len(f) - len(g) + 1)
    inv_lead = base.inv(g[-1])
    while len(f) >= len(g) and poly_trim(base, f):
        if base.is_zero(f[-1]):
            f.pop()
            continue
        shift = len(f) - len(g)
        c = base.mul(f[-1], inv_lead)
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = base.sub(f[shift + i], base.mul(c, b))
        f.pop()
    return poly_trim(base, q), poly_trim(base, f)


def _reduction_table(base, modulus):
    """Coefficient rows of a^k mod modulus for d <= k < 2d - 1 (d = degree)."""
    d = len(modulus) - 1
    top = [base.neg(c) for c in modulus[:-1]]  # a^d
    table = [top]
    while len(table) < d - 1:  # a^(k+1) = a * a^k, its top coefficient folded back
        row = table[-1]
        lead = row[-1]
        table.append([base.add(low, base.mul(lead, t)) for low, t in zip([base.zero] + row[:-1], top)])
    return table[: d - 1]


def _product(x, y, table, scale):
    """scale * (x * y mod modulus) on integer coefficient vectors.

    table[k] holds scale * (a^(d+k) mod modulus) on integers, so the product
    is one convolution and one pass over the table: no polynomial division.
    """
    d = len(x)
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                conv[i + j] += a * b
    out = conv[:d] if scale == 1 else [c * scale for c in conv[:d]]
    for row, c in zip(table, conv[d:]):
        if c:
            for i, t in enumerate(row):
                out[i] += c * t
    return out


def _pow_mod_p(x, e, table, p):
    """x^e mod (modulus, p) for e >= 1, by square and multiply."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else [v % p for v in _product(result, x, table, 1)]
        e >>= 1
        if e:
            x = [v % p for v in _product(x, x, table, 1)]
    return result


def _irreducible_over_prime_field(base, modulus) -> bool:
    """Rabin's test: a monic f of degree d over F_p is irreducible iff
    x^(p^d) = x mod f and gcd(x^(p^(d/q)) - x, f) = 1 for each prime q | d."""
    d = len(modulus) - 1
    if d == 1:
        return True
    p = base.p
    table = _reduction_table(base, modulus)
    x = [0] * d
    x[1] = 1
    frobenius = [x]  # frobenius[i] = x^(p^i) mod f
    for _ in range(d):
        frobenius.append(_pow_mod_p(frobenius[-1], p, table, p))
    if frobenius[d] != x:
        return False
    for q in {q for q in range(2, d + 1) if d % q == 0 and _is_prime(q)}:
        h = poly_trim(base, [(c - e) % p for c, e in zip(frobenius[d // q], x)])
        f = modulus
        while h:
            f, h = h, poly_divmod(base, f, h)[1]
        if len(f) != 1:
            return False
    return True


def _integer_root_on(g, lo: int, hi: int, sign: int) -> bool:
    """Has the integer polynomial g a root in [lo, hi], where sign * g is
    nondecreasing there?  Exact bisection: O(log(hi - lo)) evaluations."""
    def at(y):
        return sign * sum(c * y**i for i, c in enumerate(g))

    while lo < hi:  # the least y in [lo, hi] with sign * g(y) >= 0, if any
        mid = (lo + hi) // 2
        if at(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo == hi and at(lo) == 0


def _irreducible_over_rationals(modulus) -> bool:
    """Degree <= 3 over Q: reducible exactly when there is a rational root.
    After clearing denominators, f = a x^2 + b x + c has one exactly when
    b^2 - 4ac is a square; a cubic f = a x^3 + b x^2 + c x + e has one
    exactly when its monic integer transform g(y) = a^2 f(y / a) =
    y^3 + b y^2 + ac y + a^2 e has an integer root, searched by bisection on
    the monotone pieces of g between its critical points."""
    d = len(modulus) - 1
    if d == 1:
        return True
    ints, _ = common_denominator(modulus)
    if ints[0] == 0:
        return False  # root at 0
    if d == 2:
        c, b, a = ints
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    e, c, b, a = ints
    g = (a * a * e, a * c, b, 1)
    bound = 1 + max(abs(x) for x in g)  # every real root lies in (-bound, bound)
    # g' = 3y^2 + 2by + ac has real roots r1 <= r2 when D = 4b^2 - 12ac >= 0;
    # floor(r1) = floor((-2b - sqrt D) / 6) and floor(r2) = floor((-2b + sqrt D) / 6)
    crit = 4 * b * b - 12 * a * c
    if crit <= 0:
        return not _integer_root_on(g, -bound, bound, 1)
    root = isqrt(crit)
    k1 = (-2 * b - root - (root * root != crit)) // 6
    k2 = (-2 * b + root) // 6
    pieces = ((-bound, k1, 1), (k1 + 1, k2, -1), (k2 + 1, bound, 1))
    return not any(_integer_root_on(g, max(lo, -bound), min(hi, bound), sign) for lo, hi, sign in pieces)


class ExtensionField:
    """A finite extension K = k[a]/(modulus), elements as coefficient tuples.

    The modulus must be monic and irreducible over the base, of degree at
    most the base's `extension_degree_cap` (3 over Q, 16 over F_p); this is
    checked at construction (Rabin's test over F_p, rational-root test over
    Q).  A degree-1 modulus gives K = k, which the valuation-domain side
    uses for the k = K case.

    Products use a table of a^k mod modulus for k < 2d - 1 built here: one
    integer convolution, then one pass over the table.  Over Q the operands
    are put on integer numerators over one common denominator, so a product
    builds d Fractions; over F_p it reduces mod p once per coefficient.
    Inverses solve the d x d multiplication matrix with the integer
    row-reduction kernel of ``linalg``.
    """

    def __init__(self, base, modulus, name: str = "a"):
        self.base = base
        mod = poly_trim(base, tuple(base.coerce(c) for c in modulus))
        if len(mod) < 2:
            raise AlgebraError("modulus must have degree >= 1")
        if len(mod) - 1 > base.extension_degree_cap:
            raise AlgebraError(f"extension degree over {base!r} limited to {base.extension_degree_cap}")
        if not base.eq(mod[-1], base.one):
            raise AlgebraError("modulus must be monic")
        self.modulus = mod
        self.degree = len(mod) - 1
        self.name = name
        if isinstance(base, PrimeField):
            ok = _irreducible_over_prime_field(base, mod)
        else:
            ok = _irreducible_over_rationals(mod)
        if not ok:
            raise AlgebraError("modulus is reducible")
        d = self.degree
        table = _reduction_table(base, mod)
        if isinstance(base, PrimeField):
            self._p, self._table, self._scale = base.p, table, 1
        else:
            ints, self._scale = common_denominator([c for row in table for c in row])
            self._p, self._table = 0, [ints[k : k + d] for k in range(0, len(ints), d)]
        self._hash = hash((base, mod))  # immutable, and hashed on every payload lookup
        self.zero = tuple([base.zero] * d)
        self.one = self.embed(base.one)
        # the unit vectors 1, a, ..., a^(d-1)
        self.basis = tuple(tuple([base.one if i == j else base.zero for j in range(d)]) for i in range(d))
        self._self_check()

    # -- element construction ------------------------------------------------

    def embed(self, c):
        v = [self.base.zero] * self.degree
        v[0] = self.base.coerce(c)
        return tuple(v)

    def gen(self):
        """The adjoined root a (for degree 1 this is the root of the modulus)."""
        if self.degree == 1:
            return (self.base.neg(self.modulus[0]),)
        v = [self.base.zero] * self.degree
        v[1] = self.base.one
        return tuple(v)

    def from_coeffs(self, coeffs):
        c = [self.base.coerce(x) for x in coeffs]
        if len(c) > self.degree:
            raise AlgebraError("too many coefficients")
        c += [self.base.zero] * (self.degree - len(c))
        return tuple(c)

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        return tuple(self.base.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.base.sub(a, b) for a, b in zip(x, y))

    def neg(self, x):
        return tuple(self.base.neg(a) for a in x)

    def mul(self, x, y):
        p = self._p
        if p:
            return tuple([v % p for v in _product(x, y, self._table, 1)])
        xs, dx = common_denominator(x)
        ys, dy = common_denominator(y)
        den = dx * dy * self._scale
        zero = self.base.zero
        return tuple([Fraction(v, den) if v else zero for v in _product(xs, ys, self._table, self._scale)])

    def inv(self, x):
        """Solve x * c = 1: column j of the matrix is x * a^j."""
        from .linalg import eliminate  # linalg imports this module

        if self.is_zero(x):
            raise AlgebraError("zero has no inverse")
        d, p = self.degree, self._p
        if p:
            xs, rhs = x, 1
        else:
            xs, dx = common_denominator(x)
            rhs = dx * self._scale
        units = [[int(i == j) for i in range(d)] for j in range(d)]
        cols = [_product(xs, u, self._table, self._scale) for u in units]
        red, pivots = eliminate([[col[i] for col in cols] + [rhs * (i == 0)] for i in range(d)], d, p)
        if len(pivots) != d:
            raise AlgebraError("element not invertible; modulus reducible?")
        if p:
            return tuple([row[d] for row in red])
        return tuple([Fraction(row[d], row[i]) for i, row in enumerate(red)])

    def is_zero(self, x) -> bool:
        return all(self.base.is_zero(a) for a in x)

    def eq(self, x, y) -> bool:
        return all(self.base.eq(a, b) for a, b in zip(x, y))

    def rand(self, rng, bound=6):
        return tuple(self.base.rand(rng, bound) for _ in range(self.degree))

    def rand_nonzero(self, rng, bound=6):
        for _ in range(SAMPLE_ATTEMPTS):
            x = self.rand(rng, bound)
            if not self.is_zero(x):
                return x
        raise AlgebraError(f"no nonzero sample in {SAMPLE_ATTEMPTS} attempts")

    # -- printing ------------------------------------------------------------

    def fmt(self, x) -> str:
        terms = []
        for i, c in enumerate(x):
            if self.base.is_zero(c):
                continue
            cs = self.base.fmt(c)
            if i == 0:
                terms.append(cs)
            else:
                var = self.name if i == 1 else f"{self.name}^{i}"
                terms.append(var if cs == "1" else f"{cs}*{var}")
        if not terms:
            return "0"
        return "+".join(terms).replace("+-", "-")

    def __repr__(self):
        mod = "+".join(
            f"{self.base.fmt(c)}*{self.name}^{i}" for i, c in enumerate(self.modulus)
            if not self.base.is_zero(c)
        )
        return f"{self.base!r}[{self.name}]/({mod})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    # -- construction-time sanity -------------------------------------------

    def _self_check(self):
        """Sampled associativity/commutativity/inverse checks, deterministic."""
        import random

        rng = random.Random(10_007 + self.degree)
        for _ in range(12):
            x, y, z = (self.rand(rng, 4) for _ in range(3))
            if not self.eq(self.mul(self.mul(x, y), z), self.mul(x, self.mul(y, z))):
                raise AlgebraError("multiplication not associative")
            if not self.eq(self.mul(x, y), self.mul(y, x)):
                raise AlgebraError("multiplication not commutative")
            if not self.is_zero(x):
                if not self.eq(self.mul(x, self.inv(x)), self.one):
                    raise AlgebraError("inverse failed")
