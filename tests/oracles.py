"""Test oracles: independent models the engine is checked against.

Nothing in the package uses them.  Finite leading-term expansions stand for
elements of k + M pullbacks; bitmasks on a fixed window stand for value
sets of monomial ideals of numerical semigroup rings; value-group segments
are membership tests read off their definition.  Row reduction and
extension-field arithmetic are restated through the base field's generic
methods, primality and irreducibility over F_p by trial division, and
irreducibility over Q by the rational root theorem with trial-division
divisors, as references for the integer kernels.  The cancellation search
is restated as a closing walk over every triple within its budget.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from semistar import dplusm
from semistar.algebra import AlgebraError, Segment
from semistar.algebra.linalg import Subspace
from semistar.algebra.fields import SAMPLE_ATTEMPTS, common_denominator, poly_divmod, poly_trim
from semistar.classify import _induced_by_valuation_overring, probe_ideals
from semistar.dplusm import LeveledModule, PullbackDomain, make_module
from semistar.numsgr import NumericalSemigroup
from semistar.operations import IdealHandle, LocalizingSystemView, apply, handle_leq, handle_mul, make_handle
from semistar.verdict import holds, refuted, unknown


# ---------------------------------------------------------------------------
# element expansions over k + M pullbacks

def exp_normalize(domain: PullbackDomain, terms) -> tuple:
    K = domain.residue_ext
    group = domain.group
    acc = {}
    for c, g in terms:
        g = group.coerce(g)
        acc[g] = K.add(acc.get(g, K.zero), c)
    out = [(g, c) for g, c in acc.items() if not K.is_zero(c)]
    out.sort(key=lambda t: t[0])
    return tuple(out)


def exp_add(domain, x, y):
    return exp_normalize(domain, [(c, g) for g, c in x] + [(c, g) for g, c in y])


def exp_mul(domain, x, y):
    K = domain.residue_ext
    group = domain.group
    terms = []
    for g1, c1 in x:
        for g2, c2 in y:
            terms.append((K.mul(c1, c2), group.add(g1, g2)))
    return exp_normalize(domain, terms)


def overring_module(domain: PullbackDomain) -> LeveledModule:
    """V itself, as a D-module."""
    return make_module(domain, Segment.closed(domain.group, domain.group.zero))


def scalar_mul(K, c, x):
    """c x for c in the base field of K and x in K."""
    c = K.base.coerce(c)
    return tuple(K.base.mul(c, a) for a in x)


def contains_vector(space: Subspace, x) -> bool:
    """x lies in the subspace: the line it spans sits below it."""
    return Subspace.span(space.ambient, [x]).leq(space)


def exp_member(m: LeveledModule, x) -> bool:
    """Greedy leading-term elimination: strip terms lowest level first, each
    coefficient must reduce inside the module's space at its level."""
    remaining = list(x)
    while remaining:
        g, c = remaining[0]
        if not contains_vector(dplusm.space_at(m, g), c):
            return False
        remaining = remaining[1:]
    return True


def random_domain_element(domain: PullbackDomain, rng, terms=3, window=4):
    """A random element of D = k + M as a finite expansion."""
    K = domain.residue_ext
    group = domain.group
    base = K.base
    out = [(K.embed(base.rand(rng, 4)), group.zero)]
    for _ in range(rng.randint(0, terms)):
        g = group.rand(rng, window)
        while g <= group.zero:
            g = group.rand(rng, window)
        out.append((K.rand(rng, 4), g))
    return exp_normalize(domain, [(c, g) for c, g in out])


def jump_and_tail(m: LeveledModule):
    """The proper jump (level, space) of m, or None, and the segment of levels
    where m holds all of K."""
    hull = dplusm.module_hull(m)
    if dplusm.full_segment(m) is not None:
        return None, hull
    return (hull.cut, dplusm.space_at(m, hull.cut)), Segment.open(m.domain.group, hull.cut)


def random_module_element(m: LeveledModule, rng, terms=3, window=4):
    """A random member of m, built from monomials the module provably holds."""
    K = m.domain.residue_ext
    group = m.domain.group
    picks = []
    j, tail = jump_and_tail(m)
    if j is not None and rng.random() < 0.7:
        g, w = j
        c = K.zero
        for row in w.rows:
            c = K.add(c, scalar_mul(K, K.base.rand(rng, 4), row))
        if not K.is_zero(c):
            picks.append((c, g))
    cut_probe = 0
    while len(picks) < 1 + rng.randint(0, terms):
        if tail.is_whole():
            g = group.rand(rng, window)
        elif tail.minimum() is not None:
            g = group.add(tail.cut, _small_nonneg(group, rng, window))
        else:
            g = group.add(tail.cut, _small_positive(group, rng, window))
        picks.append((K.rand_nonzero(rng, 4), g))
        cut_probe += 1
        if cut_probe > 20:
            break
    return exp_normalize(m.domain, picks)


def _small_nonneg(group, rng, window):
    g = group.rand(rng, window)
    zero = group.zero
    if g < zero:
        g = group.neg(g)
    return g


def _small_positive(group, rng, window):
    for _ in range(SAMPLE_ATTEMPTS):
        g = _small_nonneg(group, rng, window)
        if group.zero < g:
            return g
    raise AlgebraError(f"no positive sample in {SAMPLE_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# value-group segments as membership tests

def upper_set(group, shape: str, cut=None):
    """Membership in the whole group, the empty set, {g >= cut} ("closed")
    or {g > cut} ("open"), read off the definition."""
    if shape in ("whole", "empty"):
        return lambda g: shape == "whole"
    cut = group.coerce(cut)
    return (lambda g: cut <= g) if shape == "closed" else (lambda g: cut < g)


def set_sum(group, s, t, witnesses):
    """g is in s + t when g = x + y with x in s and y in t, x a witness."""
    return lambda g: any(s(x) and t(group.sub(g, x)) for x in witnesses)


def set_colon(group, s, t, witnesses):
    """g is in (s : t) when g + y lies in s for every witness y in t."""
    return lambda g: all(s(group.add(g, y)) for y in witnesses if t(y))


def set_shift(group, s, h):
    return lambda g: s(group.sub(g, h))


def value_grids(group, radius: int):
    """Probe points and witness points for segments whose cuts lie in
    [-radius, radius], in Q on multiples of 1/2.

    Membership of a probe then decides inclusion exactly: the probes reach
    3 * radius on both sides and, in Q, lie on multiples of 1/4, so every
    cut within 2 * radius (those of sums, colons and shifts included) has
    a probe on it and probes on either side.  The witnesses reach 5 * radius
    on multiples of 1/8, which holds the least element of each summand or
    colon divisor, a point just above each open cut, and a point far enough
    below a probe that a colon by the whole group leaves every proper
    segment."""
    if group.kind == "Z":
        return list(range(-3 * radius, 3 * radius + 1)), list(range(-5 * radius, 5 * radius + 1))
    if group.kind == "Q":
        return ([Fraction(n, 4) for n in range(-12 * radius, 12 * radius + 1)],
                [Fraction(n, 8) for n in range(-40 * radius, 40 * radius + 1)])
    box = range(-3 * radius, 3 * radius + 1)
    wide = range(-5 * radius, 5 * radius + 1)
    return [(a, b) for a in box for b in box], [(a, b) for a in wide for b in wide]


def ls_contains(ls: LocalizingSystemView, i: IdealHandle) -> bool:
    return ls.contains(i)


# ---------------------------------------------------------------------------
# generic reference arithmetic over a base field

def rref_reference(base, rows, width):
    """Gauss-Jordan elimination through base.add/base.mul: (rows, pivots)."""
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


def poly_ext_gcd(base, f, g):
    """Return (d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = poly_trim(base, f), poly_trim(base, g)
    s0, s1 = (base.one,), ()
    t0, t1 = (), (base.one,)
    minus_one = base.neg(base.one)
    while r1:
        q, r = poly_divmod(base, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(base, s0, poly_scale(base, minus_one, poly_mul(base, q, s1)))
        t0, t1 = t1, poly_add(base, t0, poly_scale(base, minus_one, poly_mul(base, q, t1)))
    c = base.inv(r0[-1])
    return poly_scale(base, c, r0), poly_scale(base, c, s0), poly_scale(base, c, t0)


def _padded(K, r):
    return tuple(r) + tuple([K.base.zero] * (K.degree - len(r)))


def ext_mul_reference(K, x, y):
    """x * y in K: polynomial product, then division by the modulus."""
    base = K.base
    _, r = poly_divmod(base, poly_mul(base, poly_trim(base, x), poly_trim(base, y)), K.modulus)
    return _padded(K, r)


def ext_inv_reference(K, x):
    """x^-1 in K by the extended Euclidean algorithm against the modulus."""
    base = K.base
    g, s, _ = poly_ext_gcd(base, poly_trim(base, x), K.modulus)
    if len(g) != 1:
        raise AlgebraError("element not invertible")
    _, r = poly_divmod(base, s, K.modulus)
    return _padded(K, r)


def is_prime_reference(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def monic_polys(base, degree):
    """All monic polynomials of the given degree over a prime field."""
    for i in range(base.p**degree):
        coeffs = []
        for _ in range(degree):
            i, c = divmod(i, base.p)
            coeffs.append(c)
        yield tuple(coeffs) + (base.one,)


def irreducible_reference(base, modulus) -> bool:
    """Trial division by every monic polynomial of degree at most d/2."""
    d = len(modulus) - 1
    for e in range(1, d // 2 + 1):
        for g in monic_polys(base, e):
            _, r = poly_divmod(base, modulus, g)
            if not r:
                return False
    return True


def _divisors(n: int):
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            out.append(n // k)
        k += 1
    return out


def irreducible_over_rationals_reference(modulus) -> bool:
    """Degree 2 or 3 over Q: irreducible iff no rational root, every
    candidate p/q read off the divisors of the cleared constant and leading
    terms by trial division."""
    ints, _ = common_denominator([Fraction(c) for c in modulus])
    if ints[0] == 0:
        return False
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            for sign in (1, -1):
                x = Fraction(sign * p, q)
                if sum(c * x**i for i, c in enumerate(ints)) == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# the cancellation search, closing every walked triple

def cancellation_reference(domain, op, spec, star_domain, fg_only: bool):
    """`classify.cancellation_verdict` as a plain walk: every triple within
    the budget with E finitely generated (and F, G too when fg_only) has its
    products formed and closed, E = D included."""
    if star_domain.is_holds:
        return holds("star-domain-cancellation", detail=star_domain.reason)
    if _induced_by_valuation_overring(op, domain):
        return holds("valuation-overring-ab")
    window = domain.engine.ideal_window()
    if window is not None:
        ideals = [make_handle(domain, i) for i in window]
    else:
        ideals = probe_ideals(domain, spec, n=24, fg=fg_only)
    budget = min(spec.count * 40, len(ideals) ** 3)
    checked = 0
    closed = {}  # (i, j) -> (E_i F_j)^op and (None, j) -> F_j^op

    def star(i, j):
        if (i, j) not in closed:
            closed[i, j] = apply(op, ideals[j] if i is None else handle_mul(ideals[i], ideals[j]))
        return closed[i, j]

    for (a, e), (b, f), (c, g) in itertools.product(enumerate(ideals), repeat=3):
        if checked >= budget:
            break
        checked += 1
        if not e.finitely_generated:
            continue
        if fg_only and not (f.finitely_generated and g.finitely_generated):
            continue
        if handle_leq(star(a, b), star(a, c)) and not handle_leq(star(None, b), star(None, c)):
            return refuted(e, f, g, detail="cancellation failure")
    return unknown(checked)


# ---------------------------------------------------------------------------
# independent bitmask oracle for numerical semigroup ideals

class BitsetOracle:
    """Value sets as bitmasks on a fixed window [offset, offset + width).

    Bit i of a mask stands for the value offset + i.  Operations are plain
    set arithmetic on the masks, independent of the generator-level
    normalize/colon algebra of semistar.numsgr.  Every mask fed to mul/colon must end in
    an all-ones run longer than the conductor (tail_ok), which makes the
    off-window behaviour determined.
    """

    def __init__(self, ring: NumericalSemigroup, offset: int, width: int):
        self.ring = ring
        self.offset = offset
        self.width = width
        self.window_mask = (1 << width) - 1

    def expand(self, gens) -> int:
        out = 0
        for i in range(self.width):
            v = self.offset + i
            if any(self.ring.member(v - g) for g in gens):
                out |= 1 << i
        return out

    def tail_ok(self, x: int) -> bool:
        run = self.ring.conductor + 1
        high = ((1 << run) - 1) << (self.width - run)
        return (x & high) == high

    def _shifted(self, x: int, s: int) -> int:
        """Mask whose bit j answers: is the value at bit j+s in x, where bits
        above the window count as present (tail_ok required on x)."""
        if s >= self.width:
            return self.window_mask
        if s >= 0:
            fill = self.window_mask & ~((1 << (self.width - s)) - 1)
            return ((x >> s) | fill) & self.window_mask
        return (x << -s) & self.window_mask

    def sum(self, x: int, y: int) -> int:
        return (x | y) & self.window_mask

    def mul(self, x: int, y: int) -> int:
        """Minkowski sum of value sets; operands must vanish below value 0."""
        if self.offset < 0:
            low = -self.offset
            if (x & ((1 << low) - 1)) or (y & ((1 << low) - 1)):
                raise AlgebraError("oracle mul needs nonnegative value sets")
        out = 0
        for i in range(self.width):
            if x >> i & 1:
                out |= y << (self.offset + i) if self.offset + i >= 0 else y >> -(self.offset + i)
        return out & self.window_mask

    def intersect(self, x: int, y: int) -> int:
        return x & y

    def colon(self, x: int, y: int) -> int:
        """{z : z + y inside x} on the window; x and y must be tail_ok."""
        out = self.window_mask
        top = self.offset + self.width
        for w in range(self.offset, top):
            if y >> (w - self.offset) & 1:
                out &= self._shifted(x, w)
        # values of y beyond the window (present by tail_ok) still constrain
        # window positions when the window extends below zero
        for w in range(top, self.width):
            out &= self._shifted(x, w)
        return out

    def minimal_generators(self, mask: int):
        gens = []
        for i in range(self.width):
            if not (mask >> i & 1):
                continue
            v = self.offset + i
            if not any(self.ring.member(v - g) for g in gens):
                gens.append(v)
        return tuple(gens)
