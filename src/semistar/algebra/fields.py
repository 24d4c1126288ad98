"""Exact scalar arithmetic: rationals, prime fields, and finite field extensions.

Field objects carry the arithmetic; elements stay plain hashable values
(Fraction for Q, small ints for F_p, coefficient tuples for extensions).
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class AlgebraError(ValueError):
    """Structurally invalid algebra input (bad modulus, zero inverse, mismatch)."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Rationals:
    """The field Q. Elements are fractions.Fraction."""

    kind = "Q"

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


def poly_add(base, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else base.zero
        b = g[i] if i < len(g) else base.zero
        out.append(base.add(a, b))
    return poly_trim(base, out)


def poly_scale(base, c, f):
    return poly_trim(base, [base.mul(c, a) for a in f])


def poly_mul(base, f, g):
    if not f or not g:
        return ()
    out = [base.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return poly_trim(base, out)


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


def poly_ext_gcd(base, f, g):
    """Return (d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = poly_trim(base, f), poly_trim(base, g)
    s0, s1 = (base.one,), ()
    t0, t1 = (), (base.one,)
    while r1:
        q, r = poly_divmod(base, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(base, s0, poly_scale(base, base.neg(base.one), poly_mul(base, q, s1)))
        t0, t1 = t1, poly_add(base, t0, poly_scale(base, base.neg(base.one), poly_mul(base, q, t1)))
    if not r0:
        raise AlgebraError("gcd of zero polynomials")
    c = base.inv(r0[-1])
    return poly_scale(base, c, r0), poly_scale(base, c, s0), poly_scale(base, c, t0)


def _monic_polys(base, degree):
    """All monic polynomials of the given degree over a prime field."""
    p = base.p
    if degree == 0:
        yield (base.one,)
        return
    coeffs = [0] * degree
    while True:
        yield tuple(coeffs) + (base.one,)
        i = 0
        while i < degree:
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return


def _irreducible_over_prime_field(base, modulus) -> bool:
    d = len(modulus) - 1
    for e in range(1, d // 2 + 1):
        for g in _monic_polys(base, e):
            _, r = poly_divmod(base, modulus, g)
            if not r:
                return False
    return True


def _irreducible_over_rationals(modulus) -> bool:
    # Degree <= 3 only: reducibility forces a rational (linear) factor,
    # found by the rational root theorem after clearing denominators.
    d = len(modulus) - 1
    if d == 1:
        return True
    if d > 3:
        raise AlgebraError("rational extension degree limited to 3")
    from math import lcm

    denom = lcm(*[Fraction(c).denominator for c in modulus])
    ints = [int(Fraction(c) * denom) for c in modulus]
    if ints[0] == 0:
        return False  # root at 0
    lead, const = abs(ints[-1]), abs(ints[0])

    def divisors(n):
        out = []
        k = 1
        while k * k <= n:
            if n % k == 0:
                out.append(k)
                out.append(n // k)
            k += 1
        return out

    for p in divisors(const):
        for q in divisors(lead):
            for sign in (1, -1):
                x = Fraction(sign * p, q)
                val = sum(Fraction(c) * x**i for i, c in enumerate(ints))
                if val == 0:
                    return False
    return True


class ExtensionField:
    """A finite extension K = k[a]/(modulus), elements as coefficient tuples.

    The modulus must be monic and irreducible over the base; this is checked
    at construction (trial factorization over F_p, rational-root test over Q
    where the degree is capped at 3).  A degree-1 modulus gives K = k, which
    the valuation-domain side uses for the k = K case.
    """

    def __init__(self, base, modulus, name: str = "a"):
        self.base = base
        mod = poly_trim(base, tuple(base.coerce(c) for c in modulus))
        if len(mod) < 2:
            raise AlgebraError("modulus must have degree >= 1")
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
        self.zero = tuple([base.zero] * self.degree)
        self.one = self.embed(base.one)
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
        prod = poly_mul(self.base, poly_trim(self.base, x), poly_trim(self.base, y))
        _, r = poly_divmod(self.base, prod, self.modulus)
        return tuple(r) + tuple([self.base.zero] * (self.degree - len(r)))

    def inv(self, x):
        xt = poly_trim(self.base, x)
        if not xt:
            raise AlgebraError("zero has no inverse")
        g, s, _ = poly_ext_gcd(self.base, xt, self.modulus)
        if len(g) != 1:
            raise AlgebraError("element not invertible; modulus reducible?")
        s = poly_scale(self.base, self.base.inv(g[0]), s)
        _, r = poly_divmod(self.base, s, self.modulus)
        return tuple(r) + tuple([self.base.zero] * (self.degree - len(r)))

    def is_zero(self, x) -> bool:
        return all(self.base.is_zero(a) for a in x)

    def eq(self, x, y) -> bool:
        return all(self.base.eq(a, b) for a, b in zip(x, y))

    def rand(self, rng, bound=6):
        return tuple(self.base.rand(rng, bound) for _ in range(self.degree))

    def rand_nonzero(self, rng, bound=6):
        while True:
            x = self.rand(rng, bound)
            if not self.is_zero(x):
                return x

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
        return hash((self.base, self.modulus))

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
