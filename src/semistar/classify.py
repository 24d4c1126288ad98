"""Predicates of multiplicative ideal theory, with verdicts and witnesses.

Every universally quantified predicate returns Holds only through a named
structural theorem about the family, Refuted with a replayable witness, and
Unknown otherwise.  Refutations of non-existence claims rest on two exact
certificates: the cut-parity argument (an open tail with no jump cannot be
the closure image of a finitely generated module once the overring envelope
is fixed by the operation) and exhausted finite windows in semigroup rings.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction

from .algebra.fields import AlgebraError
from .algebra.groups import Segment
from .operations import (
    ConsistencyError,
    DomainHandle,
    IdealHandle,
    SemistarOp,
    UnsupportedMaximalSpectrum,
    UnsupportedOperation,
    apply,
    bar_op,
    ft_op,
    handle_eq,
    handle_intersect,
    handle_inverse,
    handle_is_integral,
    handle_leq,
    handle_mul,
    known_finite_type,
    known_stable,
    localizing_system,
    make_handle,
    maximal_handle,
    ops_equal_on,
    quasi_star_ideal_check,
    quasi_star_maximals,
    tilde_op,
    unit_handle,
    unit_image,
)
from .verdict import SampleSpec, Verdict, holds, refuted, unknown


# ---------------------------------------------------------------------------
# sampling universes

class _Stream:
    """The drawn prefix of one seeded stream, its rng, and the failure that
    ended it (type and arguments), if any."""

    __slots__ = ("domain", "rng", "drawn", "error")

    def __init__(self, domain, rng):
        self.domain = domain  # keeps id(domain) from being reused while the entry lives
        self.rng = rng
        self.drawn = []
        self.error = None


def seeded(domain: DomainHandle, spec: SampleSpec, salt: str, draw, n: int):
    """The first n items of the seeded stream draw(rng), draw(rng), ... with
    rng = spec.rng(salt), each index drawn once per spec: the first consumer
    to reach an index draws it, every later one replays it, so each consumer
    reads the same items in the same order however far it reads, and n <= 0
    reads none.  The salt must name the draw.  An AlgebraError or
    ConsistencyError at index k is kept as its type and arguments and raised
    afresh at index k on every replay."""
    key = (id(domain), salt)
    stream = spec.draws.get(key)
    if stream is None:
        stream = spec.draws[key] = _Stream(domain, spec.rng(salt))
    drawn = stream.drawn
    for k in range(n):
        if k == len(drawn) and stream.error is None:
            try:
                drawn.append(draw(stream.rng))
            except (AlgebraError, ConsistencyError) as exc:
                stream.error = (type(exc), exc.args)
        if k == len(drawn):
            error, args = stream.error
            raise error(*args)
        yield drawn[k]


def _sampler(domain: DomainHandle, spec: SampleSpec, fg=True, integral=False):
    """One seeded draw of the domain's engine, as a handle."""
    sample = domain.engine.sample_fg_ideal if fg else domain.engine.sample_ideal
    return lambda rng: make_handle(domain, sample(rng, spec, integral=integral))


def probe_stream(domain: DomainHandle, spec: SampleSpec, n=None, integral=False, fg=False):
    """Canonical landmarks, then seeded samples, drawn in seed order only as
    the caller consumes them: a search that stops at its first decision
    draws no further sample, and sees a prefix of `probe_ideals`."""
    landmarks = [unit_handle(domain), maximal_handle(domain)]
    if domain.engine.overring_atom:
        v = domain.overring_unit
        if not handle_eq(v, landmarks[0]):
            landmarks.append(v)
    want = n if n is not None else spec.count
    drawn = seeded(domain, spec, f"probe/{domain.name}/{integral}/{fg}", _sampler(domain, spec, fg, integral),
                   want + 2 - len(landmarks))
    for h in itertools.chain(landmarks, drawn):
        if (not integral or handle_is_integral(h)) and (not fg or h.finitely_generated):
            yield h


def probe_ideals(domain: DomainHandle, spec: SampleSpec, n=None, integral=False, fg=False):
    """Deterministic list of ideals: canonical landmarks plus seeded samples,
    the whole of `probe_stream`.  Searches iterate the stream instead: it
    draws in the same seed order and stops at the first decision, so their
    results are identical to a search over this full list.  The samples are
    drawn once per spec: a smaller `n` reads a prefix of a larger one, and a
    second call replays the first call's handles."""
    return list(probe_stream(domain, spec, n, integral, fg))


def fg_pair_stream(domain: DomainHandle, spec: SampleSpec, n=None):
    """Seeded pairs of finitely generated integral ideals (both nonzero),
    drawn in seed order only as the caller consumes them."""
    draw = _sampler(domain, spec, integral=True)
    return seeded(domain, spec, f"pairs/{domain.name}", lambda rng: (draw(rng), draw(rng)),
                  n if n is not None else spec.count)


def fg_ideal_pairs(domain: DomainHandle, spec: SampleSpec, n=None):
    """The whole of `fg_pair_stream` as a list."""
    return list(fg_pair_stream(domain, spec, n))


# ---------------------------------------------------------------------------
# invertibility and finiteness

def is_star_invertible(op: SemistarOp, i: IdealHandle) -> bool:
    dom = i.domain
    prod = handle_mul(i, handle_inverse(i))
    return handle_eq(apply(op, prod), unit_image(op, dom))


def _envelope_fixed(op: SemistarOp, dom: DomainHandle) -> bool:
    """True when the operation maps the overring V to itself, which pins the
    minimal support level of every finitely generated module's image.
    Callers ask only on families with a segment view (not all_fg)."""
    v = dom.overring_unit
    return handle_eq(apply(op, v), v)


def _no_min_support(h: IdealHandle) -> bool:
    """True when the payload has no minimal support level (open tail with no
    jump, or the whole quotient field)."""
    return h.domain.engine.hull(h.payload).minimum() is None


def is_star_finite(op: SemistarOp, i: IdealHandle, spec: SampleSpec, within: bool = False) -> Verdict:
    """Is there a finitely generated J with J^op = i^op (within: J inside i)?"""
    dom = i.domain
    if i.finitely_generated:
        return holds("self-witness")
    if "all_fg" in dom.capabilities:
        return holds("all-representable-ideals-finitely-generated")
    image = apply(op, i)
    if _envelope_fixed(op, dom):
        if _no_min_support(image):
            return refuted(i, image, detail="cut-parity: image of any finitely generated module has a minimal support level")
        # the open tail of i against the minimal support level of the image
        tail, hull = dom.engine.tail(i.payload), dom.engine.hull(image.payload)
        if within and tail.minimum() is None and not hull.leq(tail):
            return refuted(
                i, image,
                detail="support-below-envelope: the image reaches a level no subideal's closure can",
            )
    # search for an explicit witness, drawing samples only until one is found
    drawn = seeded(dom, spec, f"finite/{dom.name}", _sampler(dom, spec), spec.count)
    landmarks = [] if within else [unit_handle(dom), dom.overring_unit]
    for j in itertools.chain(landmarks, drawn):
        if within and not handle_leq(j, i):
            continue
        if handle_eq(apply(op, j), image):
            return holds("witness-found", detail=repr(j))
    return unknown(spec.count)


# ---------------------------------------------------------------------------
# star-domains and their relatives

def is_star_domain(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    if "valuation" in domain.capabilities:
        return holds("valuation-fg-principal", detail="every finitely generated ideal is principal, hence invertible under any operation")
    for i in probe_stream(domain, spec, n=spec.count, fg=True):
        if not is_star_invertible(op, i):
            return refuted(i, detail="finitely generated ideal that is not star-invertible")
    return unknown(spec.count)


def _agreed(verdicts: dict, what: str):
    """The name of the first refuted verdict, else of the first that holds,
    else None; a holds beside a refuted raises ConsistencyError."""
    decided_holds = [k for k, v in verdicts.items() if v.is_holds]
    decided_refuted = [k for k, v in verdicts.items() if v.is_refuted]
    if decided_holds and decided_refuted:
        raise ConsistencyError(f"{what} disagree: {verdicts}")
    return (decided_refuted or decided_holds or [None])[0]


def pstarmd_verdict(ft_route: Verdict, tilde_route: Verdict, spec: SampleSpec) -> Verdict:
    """The P*MD verdict from the star-domain verdicts of the finite-type
    closure and of the tilde closure, which must agree."""
    routes = {"finite-type-route": ft_route, "tilde-route": tilde_route}
    name = _agreed(routes, "pstarmd routes")
    return routes[name] if name else unknown(spec.count)


def is_pstarmd(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    """P*MD: every finitely generated ideal is invertible under the
    finite-type closure of op (the finite-type route), equivalently under
    its tilde closure (the tilde route)."""
    return pstarmd_verdict(is_star_domain(domain, ft_op(op), spec), is_star_domain(domain, tilde_op(op), spec), spec)


def _induced_by_valuation_overring(op: SemistarOp, domain: DomainHandle) -> bool:
    if op.kind == "st" and op.tag in ("V", "ic"):
        return True  # V, or the hull ring of a semigroup ring, is a valuation ring
    if op.kind == "desc":
        return op.inner.kind == "identity"
    return False


def cancellation_verdict(domain, op, spec, star_domain: Verdict, fg_only: bool) -> Verdict:
    """The a.b. verdict (e.a.b. when fg_only) given the star-domain verdict of
    op: a star-domain cancels, otherwise search for a cancellation failure.

    The search walks the triples (E, F, G) of the ideal list in
    lexicographic order, E outermost, until the budget runs out, and
    refutes at the first (EF)^op <= (EG)^op with F^op not <= G^op.  Every
    walked triple counts toward the budget, but a block whose E is not
    finitely generated, or is D itself, is decided without building
    anything: DF = F, so its failure test reads `X and not X`."""
    if star_domain.is_holds:
        return holds("star-domain-cancellation", detail=star_domain.reason)
    if _induced_by_valuation_overring(op, domain):
        return holds("valuation-overring-ab")
    window = domain.engine.ideal_window()
    if window is not None:
        ideals = [make_handle(domain, i) for i in window]
    else:
        ideals = probe_ideals(domain, spec, n=24, fg=fg_only)
    n = len(ideals)
    budget = min(spec.count * 40, n**3)
    unit = unit_handle(domain)
    checked = 0
    closed = {}  # (i, j) -> (E_i F_j)^op and (None, j) -> F_j^op, for this call only

    def star(i, j):
        if (i, j) not in closed:
            closed[i, j] = apply(op, ideals[j] if i is None else handle_mul(ideals[i], ideals[j]))
        return closed[i, j]

    for a, e in enumerate(ideals):
        block = min(n * n, budget - checked)  # the triples (e, *, *) within budget
        if block <= 0:
            break
        if not e.finitely_generated or handle_eq(e, unit):
            checked += block
            continue
        for (b, f), (c, g) in itertools.islice(itertools.product(enumerate(ideals), repeat=2), block):
            checked += 1
            if fg_only and not (f.finitely_generated and g.finitely_generated):
                continue
            if handle_leq(star(a, b), star(a, c)) and not handle_leq(star(None, b), star(None, c)):
                return refuted(e, f, g, detail="cancellation failure")
    return unknown(checked)


def is_eab(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    return cancellation_verdict(domain, op, spec, is_star_domain(domain, op, spec), fg_only=True)


def is_ab(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    return cancellation_verdict(domain, op, spec, is_star_domain(domain, op, spec), fg_only=False)


# ---------------------------------------------------------------------------
# coherence variants

EXTRACOHERENT = "Extracoherent"
COHERENT = "Coherent"
TRULY_COHERENT = "TrulyCoherent"
QUASI_COHERENT = "QuasiCoherent"


def _maps_into_chain(op: SemistarOp, domain: DomainHandle) -> bool:
    """True when every image of the operation is a module over a valuation
    overring, so that images are totally ordered by inclusion.  Valuation
    domains never ask: coherence_check decides them first."""
    if op.kind == "st" and op.tag in ("V", "ic") or op.kind == "desc":
        return True
    if op.kind == "ft":
        return _maps_into_chain(op.inner, domain)
    return False


def _coherent_pool(domain, op, spec):
    """The 24 seeded fg candidates of a Coherent check with their images,
    each drawn and closed once, on first need, and replayable from the
    start by every pair (`copy.copy` of a tee shares its buffer)."""
    drawn = seeded(domain, spec, f"coh/{domain.name}", _sampler(domain, spec), 24)
    return itertools.tee(((j, apply(op, j)) for j in drawn if j.finitely_generated), 1)[0]


def _coherent_pair_witness(domain, op, e, f, pool) -> "Verdict":
    """Existence of fg J with J^op = e^op meet f^op, decided per pair.  The
    candidates are e, f, the meet and the pool, tried in that (seed) order;
    the search stops at the first witness, as a full draw would."""
    x = handle_intersect(apply(op, e), apply(op, f))
    head = ((j, apply(op, j)) for j in (e, f, x) if j.finitely_generated)
    for j, image in itertools.chain(head, copy.copy(pool)):
        if handle_eq(image, x):
            return holds("witness-found", detail=repr(j))
    if _envelope_fixed(op, domain) and _no_min_support(x):
        return refuted(e, f, detail="cut-parity: the intersection of the images is an open tail")
    return unknown(24)


def landmark_pairs(domain: DomainHandle):
    """Canonical finitely generated integral pairs whose interplay the
    worked families hinge on."""
    out = [(make_handle(domain, e), make_handle(domain, f)) for e, f in domain.engine.landmark_pairs()]
    m = maximal_handle(domain)
    if m.finitely_generated:
        out.append((unit_handle(domain), m))
    return out


def coherence_check(domain: DomainHandle, kind: str, op: SemistarOp, spec: SampleSpec) -> Verdict:
    if "valuation" in domain.capabilities:
        # finitely generated ideals are principal; the chain order makes the
        # meet of any two of them one of the two, hence its own witness
        return holds("chain-meet-finitely-generated")
    landmarks = landmark_pairs(domain)
    npairs = len(landmarks) + spec.count
    pairs = itertools.chain(landmarks, fg_pair_stream(domain, spec))  # drawn as consumed
    if kind == QUASI_COHERENT:
        if "all_fg" in domain.capabilities:
            return holds("all-representable-ideals-finitely-generated")
        for f, _ in pairs:
            inv = handle_inverse(f)
            sub = is_star_finite(op, inv, spec)
            if sub.is_refuted:
                return refuted(f, detail=f"(D:F) not star-finite: {sub.detail}")
        return unknown(npairs)

    if kind == TRULY_COHERENT:
        if "all_fg" in domain.capabilities:
            return holds("all-representable-ideals-finitely-generated")
        for e, f in pairs:
            meet = handle_intersect(e, f)
            sub = is_star_finite(op, meet, spec)
            if sub.is_refuted:
                return refuted(e, f, detail=f"E meet F not star-finite: {sub.detail}")
        return unknown(npairs)

    if kind == COHERENT:
        if "all_fg" in domain.capabilities:
            return holds("all-representable-ideals-finitely-generated",
                         detail="the meet of two closed images is representable and finitely generated")
        chain = _maps_into_chain(op, domain)
        pool = _coherent_pool(domain, op, spec)
        for e, f in pairs:
            sub = _coherent_pair_witness(domain, op, e, f, pool)
            if sub.is_refuted:
                return refuted(*sub.witness, detail=sub.detail)
            if chain and not sub.is_holds:
                raise ConsistencyError("chain-image family failed to exhibit a witness")
        if chain:
            return holds("overring-chain-images",
                         detail="images are ideals of a valuation overring, so either image is the meet")
        return unknown(npairs)

    if kind == EXTRACOHERENT:
        for e, f in pairs:
            meet = handle_intersect(e, f)
            gap_lhs = apply(op, meet)
            gap_rhs = handle_intersect(apply(op, e), apply(op, f))
            if not handle_eq(gap_lhs, gap_rhs):
                return refuted(e, f, detail="strict-gap: (E meet F)^op sits strictly below E^op meet F^op, and any J inside E meet F closes below it")
            sub = is_star_finite(op, meet, spec, within=True)
            if sub.is_refuted:
                return refuted(e, f, detail=f"no finitely generated J inside the meet closes onto it: {sub.detail}")
        if known_stable(op, domain) and "all_fg" in domain.capabilities:
            # stability kills the gap and the meet is its own witness
            return holds("stable-all-fg", detail="J = E meet F is finitely generated and closes onto the meet of the images")
        return unknown(npairs)

    raise AlgebraError(f"unknown coherence kind {kind!r}")


# ---------------------------------------------------------------------------
# H and I domains

def _raw_quasi_maximals(op: SemistarOp, domain: DomainHandle):
    """Quasi-op-maximal tags, exact on rank-1 families where the nonzero
    prime spectrum is just {M}; None when not decidable (rank 2)."""
    m = maximal_handle(domain)
    if quasi_star_ideal_check(op, m):
        return ("M",)
    return () if domain.engine.spectrum_decidable else None


def h_clauses(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> dict:
    """The decidable clauses of the finite-character equivalence, each exact
    on these families (the nonzero prime spectrum is {M} in rank one)."""
    out = {}
    dstar = unit_image(op, domain)
    m = maximal_handle(domain)

    # clause: the localizing systems of op and its finite-type closure agree
    try:
        ls_full = localizing_system(op, domain)
        ls_fin = localizing_system(ft_op(op), domain)
        if ls_full.trivial == ls_fin.trivial:
            out["systems-equal"] = holds("cofinal-families-agree")
        else:
            wit = m if not ls_full.trivial else unit_handle(domain)
            out["systems-equal"] = refuted(wit, detail="the two localizing systems have different cofinal families")
    except UnsupportedOperation:
        pass

    # clause: tilde and bar coincide
    universe = probe_ideals(domain, spec, n=24)
    try:
        out["tilde-equals-bar"] = ops_equal_on(tilde_op(op), bar_op(op), universe)
    except (UnsupportedOperation, UnsupportedMaximalSpectrum):
        pass

    # clause: every nonzero prime with P^op = D^op has an fg subideal doing the same
    if domain.engine.spectrum_decidable:
        mstar = apply(op, m)
        if not handle_eq(mstar, dstar):
            out["prime-witness"] = holds("no-qualifying-prime", detail="the only nonzero prime does not close onto D^op")
        else:
            sub = is_star_finite(op, m, spec, within=True)
            if sub.is_refuted:
                out["prime-witness"] = refuted(m, detail=sub.detail)
            elif sub.is_holds:
                out["prime-witness"] = holds("prime-finitely-witnessed", detail=sub.detail)

    # clause: quasi-maximal spectra of op and its finite-type closure agree
    try:
        raw = _raw_quasi_maximals(op, domain)
        fin = quasi_star_maximals(op, domain)
        if raw is not None:
            if raw == fin:
                out["maximal-spectra-agree"] = holds("spectra-coincide", detail=f"both are {set(fin) or 'empty'}")
            else:
                out["maximal-spectra-agree"] = refuted(m, detail=f"quasi-maximals differ: {raw} vs {fin}")
    except (UnsupportedOperation, UnsupportedMaximalSpectrum):
        pass

    return out


def _h_by_theorem(domain: DomainHandle, op: SemistarOp):
    """The H verdict when a structural theorem gives it, else None."""
    if known_finite_type(op):
        return holds("finite-type", detail="finite-type operations satisfy the finite-character condition trivially")
    if "all_fg" in domain.capabilities:
        return holds("all-representable-ideals-finitely-generated")
    return None


def h_verdict(domain: DomainHandle, op: SemistarOp, clauses: dict) -> Verdict:
    """The H verdict given the `h_clauses` of op: a structural theorem when
    one applies, else the decided clauses, which must agree."""
    by_theorem = _h_by_theorem(domain, op)
    if by_theorem is not None:
        return by_theorem
    name = _agreed(clauses, "H clauses")
    if name is None:
        return unknown(len(clauses))
    v = clauses[name]
    if v.is_refuted:
        return refuted(*v.witness, detail=f"{name}: {v.detail}")
    return holds(v.reason, detail=f"{name}: {v.detail}")


def is_H_domain(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    by_theorem = _h_by_theorem(domain, op)
    if by_theorem is not None:
        return by_theorem
    return h_verdict(domain, op, h_clauses(domain, op, spec))


def _i_by_theorem(domain: DomainHandle, op: SemistarOp):
    """The I verdict when a structural theorem gives it, else None."""
    if known_finite_type(op):
        return holds("finite-type", detail="invertibility under op and its finite-type closure coincide syntactically")
    if "valuation" in domain.capabilities:
        return holds("valuation-fg-principal", detail="finitely generated ideals are principal and invertible under every operation")
    return None


def i_verdict(domain: DomainHandle, op: SemistarOp, spec: SampleSpec, h: Verdict) -> Verdict:
    """The I verdict given the H verdict h of op: a structural theorem, the
    finite-character condition, else a search for an fg ideal invertible
    under op but not under its finite-type closure."""
    by_theorem = _i_by_theorem(domain, op)
    if by_theorem is not None:
        return by_theorem
    if h.is_holds:
        return holds("finite-character", detail="the finite-character condition forces the invertibility classes to agree")
    fop = ft_op(op)
    for i in probe_stream(domain, spec, fg=True):
        if is_star_invertible(op, i) and not is_star_invertible(fop, i):
            return refuted(i, detail="invertible under op but not under its finite-type closure")
    return unknown(spec.count)


def is_I_domain(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    by_theorem = _i_by_theorem(domain, op)
    if by_theorem is not None:
        return by_theorem
    return i_verdict(domain, op, spec, is_H_domain(domain, op, spec))


# ---------------------------------------------------------------------------
# chain conditions

def is_star_noetherian(domain: DomainHandle, op: SemistarOp, chain_length: int = 8) -> Verdict:
    if "noetherian" in domain.capabilities:
        return holds("noetherian")
    group = domain.payload_group
    cuts = []
    if group.kind == "Q":
        cuts = [Fraction(1, n) for n in range(1, chain_length + 1)]
    elif group.kind == "ZxZ":
        cuts = [(1, -n) for n in range(1, chain_length + 1)]
    if not cuts:
        return unknown(0)
    chain = [make_handle(domain, domain.engine.from_tail(Segment.closed(group, c))) for c in cuts]
    for h in chain:
        if not handle_is_integral(h) or not quasi_star_ideal_check(op, h):
            return unknown(len(chain), detail="standard ascending chain left the quasi-ideal class")
    for lo, hi in zip(chain, chain[1:]):
        if not (handle_leq(lo, hi) and not handle_eq(lo, hi)):
            raise ConsistencyError("chain is not strictly ascending")
    return refuted(*chain, detail="strictly ascending chain of quasi-ideals")


def is_star_dedekind(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> Verdict:
    p = is_pstarmd(domain, op, spec)
    n = is_star_noetherian(domain, op)
    s = is_star_domain(domain, op, spec)
    return dedekind_verdict(p, n, s, spec)


def dedekind_verdict(p: Verdict, n: Verdict, s: Verdict, spec: SampleSpec) -> Verdict:
    """The star-Dedekind verdict from the P*MD (p), star-noetherian (n) and
    star-domain (s) verdicts: a star-Dedekind domain is a noetherian P*MD,
    equivalently a noetherian star-domain."""
    # the two routes of the equivalence must not contradict each other
    if p.is_holds and n.is_holds and s.is_refuted:
        raise ConsistencyError("P*MD with refuted star-domain")
    if s.is_holds and n.is_holds and p.is_refuted:
        raise ConsistencyError("noetherian star-domain with refuted P*MD")
    if n.is_refuted:
        return refuted(*n.witness, detail="not star-noetherian")
    if p.is_refuted:
        return refuted(*p.witness, detail="not a P*MD")
    if p.is_holds and n.is_holds:
        return holds("pstarmd-and-noetherian")
    return unknown(spec.count)
