"""Predicates of multiplicative ideal theory, with verdicts and witnesses.

Every universally quantified predicate returns Holds only through a named
structural theorem about the family, Refuted with a replayable witness, and
Unknown otherwise.  Refutations of non-existence claims rest on two exact
certificates: the cut-parity argument (an open tail with no jump cannot be
the closure image of a finitely generated module once the overring envelope
is fixed by the operation) and exhausted finite windows in semigroup rings.
Every sampled search runs through one kernel, `verdict.search`: the first
decision over a lazily drawn stream of candidates, else `unknown(samples)`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra.fields import AlgebraError
from .algebra.groups import Segment
from .operations import (
    ConsistencyError,
    DomainHandle,
    IdealHandle,
    ImageTable,
    Replay,
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
from .verdict import SampleSpec, Verdict, holds, refuted, search, unknown


# ---------------------------------------------------------------------------
# sampling universes

def seeded(domain: DomainHandle, spec: SampleSpec, salt: str, draw, n: int):
    """The first n items (none for n <= 0) of the seeded stream draw(rng),
    draw(rng), ... with rng = spec.rng(salt), a `Replay` kept on the spec:
    each index is drawn once per spec, and equal domains share the stream.
    The salt must name the draw."""
    key = (domain, salt)
    if key not in spec.draws:
        spec.draws[key] = Replay(map(draw, itertools.repeat(spec.rng(salt))))
    return itertools.islice(spec.draws[key], max(n, 0))


def _sampler(domain: DomainHandle, spec: SampleSpec, fg=True, integral=False):
    """One seeded draw of the domain's engine, as a handle.  It holds the spec
    weakly, as the spec keeps the stream that keeps the draw: no cycle."""
    from weakref import ref

    sample, held = domain.engine.sample_fg_ideal if fg else domain.engine.sample_ideal, ref(spec)
    return lambda rng: make_handle(domain, sample(rng, held(), integral=integral))


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
    the whole of `probe_stream`, which searches read instead.  The samples are
    drawn once per spec: a smaller `n` reads a prefix of a larger one, and a
    second call replays the first call's handles."""
    return list(probe_stream(domain, spec, n, integral, fg))


def fg_pair_stream(domain: DomainHandle, spec: SampleSpec, n=None):
    """Seeded pairs of finitely generated integral ideals (both nonzero),
    drawn in seed order only as the caller consumes them."""
    draw = _sampler(domain, spec, integral=True)
    return seeded(domain, spec, f"pairs/{domain.name}", lambda rng: (draw(rng), draw(rng)),
                  n if n is not None else spec.count)


# ---------------------------------------------------------------------------
# invertibility and finiteness

def is_star_invertible(op: SemistarOp, i: IdealHandle, prod: "IdealHandle | None" = None) -> bool:
    prod = handle_mul(i, handle_inverse(i)) if prod is None else prod  # F (D:F), from a table when held
    return handle_eq(apply(op, prod), unit_image(op, i.domain))


def invertibility_products(domain: DomainHandle, spec: SampleSpec) -> Replay:
    """(F, F (D:F)) over the fg probes of a star-domain search, each built once, on first need."""
    return Replay((i, handle_mul(i, handle_inverse(i))) for i in probe_stream(domain, spec, n=spec.count, fg=True))


def _envelope_fixed(op: SemistarOp, dom: DomainHandle) -> bool:
    """True when the operation maps the overring V to itself, which pins the
    minimal support level of every finitely generated module's image.
    Callers ask only on families with a segment view (not all_fg)."""
    v = dom.overring_unit
    return handle_eq(apply(op, v), v)


def _witness_of(target: IdealHandle):
    """The decision of a star-finiteness search at a candidate (J, J^op):
    a witness when J^op is the target, else nothing."""
    return lambda j, image: holds("witness-found", detail=repr(j)) if handle_eq(image, target) else None


def is_star_finite(op: SemistarOp, i: IdealHandle, spec: SampleSpec, within: bool = False) -> Verdict:
    """Is there a finitely generated J with J^op = i^op (within: J inside i)?"""
    dom = i.domain
    if i.finitely_generated:
        return holds("self-witness")
    if "all_fg" in dom.capabilities:
        return holds("all-representable-ideals-finitely-generated")
    image = apply(op, i)
    if _envelope_fixed(op, dom):
        if not image.finitely_generated:  # no minimal support level: an open tail or the quotient field
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
    candidates = ((j, apply(op, j)) for j in itertools.chain(landmarks, drawn) if not within or handle_leq(j, i))
    return search(candidates, _witness_of(image), spec.count)


# ---------------------------------------------------------------------------
# star-domains and their relatives

def is_star_domain(domain: DomainHandle, op: SemistarOp, spec: SampleSpec, products: "Replay | None" = None) -> Verdict:
    """Refuted at the first fg probe F with (F (D:F))^op != D^op, read from a
    suite's `invertibility_products` when given, else built afresh."""
    if "valuation" in domain.capabilities:
        return holds("valuation-fg-principal", detail="every finitely generated ideal is principal, hence invertible under any operation")

    def not_invertible(i, prod):
        if not is_star_invertible(op, i, prod):
            return refuted(i, detail="finitely generated ideal that is not star-invertible")
    return search(products or invertibility_products(domain, spec), not_invertible, spec.count)


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

    The search walks the first `budget` triples (E, F, G) of the ideal list
    in lexicographic order, E outermost, and refutes at the first
    (EF)^op <= (EG)^op with F^op not <= G^op.  A block whose E is not
    finitely generated, or is D itself, is passed over without building
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
    n = len(ideals)  # at least 1: D is in every list
    budget = min(spec.count * 40, n**3)
    unit = unit_handle(domain)
    closed = {}  # (i, j) -> (E_i F_j)^op and (None, j) -> F_j^op, for this call only

    def star(i, j):
        if (i, j) not in closed:
            closed[i, j] = apply(op, ideals[j] if i is None else handle_mul(ideals[i], ideals[j]))
        return closed[i, j]

    def triples():  # (a, b, c) for (E_a, F_b, G_c), in walk order, the skipped blocks left out
        for a, first in enumerate(range(0, budget, n * n)):  # first: the walk index of (E_a, D, D)
            if ideals[a].finitely_generated and not handle_eq(ideals[a], unit):
                for b, c in itertools.islice(itertools.product(range(n), repeat=2), budget - first):
                    yield a, b, c

    def fails(a, b, c):
        e, f, g = ideals[a], ideals[b], ideals[c]
        if (not fg_only or f.finitely_generated and g.finitely_generated) \
                and handle_leq(star(a, b), star(a, c)) and not handle_leq(star(None, b), star(None, c)):
            return refuted(e, f, g, detail="cancellation failure")
    return search(triples(), fails, budget)


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
_POOL = 24  # the seeded fg candidates of a Coherent check, replayed to every pair


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
    """The `_POOL` seeded fg candidates of a Coherent check with their images,
    each drawn and closed once, on first need, and replayed to every pair."""
    drawn = seeded(domain, spec, f"coh/{domain.name}", _sampler(domain, spec), _POOL)
    return Replay((j, apply(op, j)) for j in drawn if j.finitely_generated)


def _coherent_pair_witness(domain, op, e, f, pool) -> "Verdict":
    """Existence of fg J with J^op = e^op meet f^op, decided per pair.  The
    candidates are e, f, the meet and the pool, tried in that (seed) order."""
    e_image, f_image = apply(op, e), apply(op, f)
    x = handle_intersect(e_image, f_image)

    def candidates():
        yield from ((j, image) for j, image in ((e, e_image), (f, f_image)) if j.finitely_generated)
        if x.finitely_generated:
            yield x, apply(op, x)  # closed only once e and f have failed
        yield from pool

    found = search(candidates(), _witness_of(x), _POOL)
    if found.is_unknown and _envelope_fixed(op, domain) and not x.finitely_generated:
        return refuted(e, f, detail="cut-parity: the intersection of the images is an open tail")
    return found


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
    if kind in (QUASI_COHERENT, TRULY_COHERENT):
        if "all_fg" in domain.capabilities:
            return holds("all-representable-ideals-finitely-generated")
        quasi = kind == QUASI_COHERENT

        def not_star_finite(e, f):  # Quasi asks it of (D:F) with F the first member, Truly of the meet
            sub = is_star_finite(op, handle_inverse(e) if quasi else handle_intersect(e, f), spec)
            if sub.is_refuted:
                what, witness = ("(D:F)", (e,)) if quasi else ("E meet F", (e, f))
                return refuted(*witness, detail=f"{what} not star-finite: {sub.detail}")
        return search(pairs, not_star_finite, npairs)

    if kind == COHERENT:
        if "all_fg" in domain.capabilities:
            return holds("all-representable-ideals-finitely-generated",
                         detail="the meet of two closed images is representable and finitely generated")
        chain = _maps_into_chain(op, domain)
        pool = _coherent_pool(domain, op, spec)

        def no_witness(e, f):
            sub = _coherent_pair_witness(domain, op, e, f, pool)
            if chain and sub.is_unknown:
                raise ConsistencyError("chain-image family failed to exhibit a witness")
            return sub if sub.is_refuted else None
        found = search(pairs, no_witness, npairs)
        if chain and found.is_unknown:
            return holds("overring-chain-images",
                         detail="images are ideals of a valuation overring, so either image is the meet")
        return found

    if kind == EXTRACOHERENT:
        def gap_or_not_finite(e, f):
            meet = handle_intersect(e, f)
            if not handle_eq(apply(op, meet), handle_intersect(apply(op, e), apply(op, f))):
                return refuted(e, f, detail="strict-gap: (E meet F)^op sits strictly below E^op meet F^op, and any J inside E meet F closes below it")
            sub = is_star_finite(op, meet, spec, within=True)
            if sub.is_refuted:
                return refuted(e, f, detail=f"no finitely generated J inside the meet closes onto it: {sub.detail}")
        found = search(pairs, gap_or_not_finite, npairs)
        if found.is_unknown and known_stable(op, domain) and "all_fg" in domain.capabilities:
            # stability kills the gap and the meet is its own witness
            return holds("stable-all-fg", detail="J = E meet F is finitely generated and closes onto the meet of the images")
        return found

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


def h_clauses(domain: DomainHandle, op: SemistarOp, spec: SampleSpec, images: "ImageTable | None" = None) -> dict:
    """The decidable clauses of the finite-character equivalence, each exact
    on these families (the nonzero prime spectrum is {M} in rank one)."""
    out = {}
    dstar = unit_image(op, domain)
    m = maximal_handle(domain)

    # clause: the localizing systems of op and its finite-type closure agree
    try:
        full, fin = localizing_system(op, domain), localizing_system(ft_op(op), domain)
        if handle_eq(full, fin):
            out["systems-equal"] = holds("cofinal-families-agree")
        else:
            out["systems-equal"] = refuted(full, detail="the two localizing systems have different cofinal families")
    except UnsupportedOperation:
        pass

    # clause: tilde and bar coincide, walked over a suite's `images` when given
    universe = probe_ideals(domain, spec, n=24)
    try:
        out["tilde-equals-bar"] = ops_equal_on(tilde_op(op), bar_op(op), universe, images)
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


def i_verdict(domain: DomainHandle, op: SemistarOp, spec: SampleSpec, h: Verdict, products: "Replay | None" = None) -> Verdict:
    """The I verdict given the H verdict h of op: a structural theorem, the
    finite-character condition, else a search, over `products` when given,
    for an fg ideal invertible under op but not under its finite-type closure."""
    by_theorem = _i_by_theorem(domain, op)
    if by_theorem is not None:
        return by_theorem
    if h.is_holds:
        return holds("finite-character", detail="the finite-character condition forces the invertibility classes to agree")
    fop = ft_op(op)

    def only_under_op(i, prod):
        if is_star_invertible(op, i, prod) and not is_star_invertible(fop, i, prod):
            return refuted(i, detail="invertible under op but not under its finite-type closure")
    return search(products or invertibility_products(domain, spec), only_under_op, spec.count)


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
