"""Executable implication lattice between the classification predicates.

Each check evaluates both sides of one proved implication or identity on a
concrete (domain, operation) instance.  A line is a VIOLATION only when the
hypothesis side definitely holds while the conclusion side is definitely
refuted; that combination would contradict a theorem, so it flags an
implementation bug rather than a mathematical discovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classify
from .classify import (
    COHERENT,
    EXTRACOHERENT,
    QUASI_COHERENT,
    TRULY_COHERENT,
    probe_ideals,
)
from .operations import (
    DomainHandle,
    ImageTable,
    SemistarOp,
    UnsupportedOperation,
    apply,
    bar_op,
    ft_op,
    handle_add,
    handle_colon,
    handle_eq,
    handle_intersect,
    handle_inverse,
    handle_leq,
    handle_mul,
    op_leq,
    ops_equal_on,
    tilde_op,
    unit_handle,
)
from .verdict import SampleSpec, Verdict, holds, unknown

OK = "ok"
VIOLATION = "violation"
VACUOUS = "vacuous"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class SuiteLine:
    check: str
    outcome: str
    detail: str = ""


@dataclass
class SuiteReport:
    domain: DomainHandle
    op: SemistarOp
    lines: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(line.outcome != VIOLATION for line in self.lines)

    def render(self) -> str:
        out = [f"theorem suite: {self.domain!r} with {self.op!r}"]
        for line in sorted(self.lines, key=lambda l: l.check):
            out.append(f"  [{line.outcome.upper():9s}] {line.check}" + (f" :: {line.detail}" if line.detail else ""))
        return "\n".join(out)

    def to_rows(self):
        rows = []
        for line in sorted(self.lines, key=lambda l: l.check):
            rows.append({
                "instance": self.domain.name,
                "op": repr(self.op),
                "check": line.check,
                "anchor": line.check,
                "outcome": line.outcome,
                "detail": line.detail,
            })
        return rows


def _implication(check: str, lhs: Verdict, rhs: Verdict) -> SuiteLine:
    if lhs.is_holds and rhs.is_refuted:
        return SuiteLine(check, VIOLATION, f"hypothesis {lhs.summary()} but conclusion {rhs.summary()}")
    if lhs.is_holds:
        return SuiteLine(check, OK, f"{lhs.summary()} => {rhs.summary()}")
    if lhs.is_refuted:
        return SuiteLine(check, VACUOUS, f"hypothesis fails: {lhs.summary()}")
    return SuiteLine(check, UNDECIDED, f"hypothesis undecided ({lhs.summary()})")


def _biconditional(check: str, lhs: Verdict, rhs: Verdict) -> SuiteLine:
    if lhs.is_holds and rhs.is_refuted or lhs.is_refuted and rhs.is_holds:
        return SuiteLine(check, VIOLATION, f"{lhs.summary()} vs {rhs.summary()}")
    if lhs.is_unknown or rhs.is_unknown:
        return SuiteLine(check, UNDECIDED, f"{lhs.summary()} / {rhs.summary()}")
    return SuiteLine(check, OK, f"{lhs.summary()} == {rhs.summary()}")


def _sampled_identity(check: str, bad) -> SuiteLine:
    return SuiteLine(check, OK if bad is None else VIOLATION, "" if bad is None else f"identity failed at {bad}")


def _first_failure(pairs, identity):
    """The first pair (e, f) at which identity(e, f) fails, or None."""
    return next(((e, f) for e, f in pairs if not identity(e, f)), None)


def theorem_suite(domain: DomainHandle, op: SemistarOp, spec: SampleSpec) -> SuiteReport:
    """Every check on one (domain, operation) instance.  Two tables live for
    this call only, each filled on first need: `images` closes each compared
    operation once over the universe, `products` builds each F (D:F) once."""
    report = SuiteReport(domain, op)
    lines = report.lines
    universe = probe_ideals(domain, spec, n=32)
    images = ImageTable(universe)
    products = classify.invertibility_products(domain, spec)
    pairs = list(classify.fg_pair_stream(domain, spec, n=min(spec.count, 60)))
    star_domains = {}  # op -> its star-domain verdict, for this call only

    def star_domain_of(o):
        if o not in star_domains:
            star_domains[o] = classify.is_star_domain(domain, o, spec, products)
        return star_domains[o]

    def pstarmd_of(o):
        return classify.pstarmd_verdict(star_domain_of(ft_op(o)), star_domain_of(tilde_op(o)), spec)

    star_domain = star_domain_of(op)
    pstarmd = pstarmd_of(op)
    coh = {k: classify.coherence_check(domain, k, op, spec)
           for k in (EXTRACOHERENT, COHERENT, TRULY_COHERENT, QUASI_COHERENT)}

    # --- comparison plumbing used by several checks
    tilde_vs_ft = ops_equal_on(tilde_op(op), ft_op(op), universe, images)
    try:
        tilde_vs_barft = ops_equal_on(tilde_op(op), ft_op(bar_op(op)), universe, images)
    except UnsupportedOperation:
        tilde_vs_barft = None
    try:
        barft_vs_ft = ops_equal_on(ft_op(bar_op(op)), ft_op(op), universe, images)
    except UnsupportedOperation:
        barft_vs_ft = None

    # --- monotone transfer of the star-domain property
    for smaller, tag in ((ft_op(op), "finite-type"), (bar_op(op), "stable-closure")):
        if smaller == op or not op_leq(smaller, op, universe, images).is_holds:
            continue
        try:
            sd_small = star_domain_of(smaller)
        except UnsupportedOperation:
            continue
        lines.append(_implication(f"star-domain-monotone-{tag}", sd_small, star_domain))

    # --- P*MD basics
    lines.append(_implication("pstarmd-implies-star-domain", pstarmd, star_domain))
    try:
        sd_bar = star_domain_of(bar_op(op))
        lines.append(_biconditional("star-domain-iff-stable-closure", star_domain, sd_bar))
    except UnsupportedOperation:
        pass
    ab = classify.cancellation_verdict(domain, op, spec, star_domain, fg_only=False)
    eab = classify.cancellation_verdict(domain, op, spec, star_domain, fg_only=True)
    lines.append(_implication("star-domain-implies-ab", star_domain, ab))
    lines.append(_implication("pstarmd-implies-eab", pstarmd, eab))

    # --- the invertibility characterization (F(E:F))^op = E^op
    if star_domain.is_holds:
        lines.append(_sampled_identity("star-domain-colon-product-identity", _first_failure(
            pairs[:40], lambda e, f: handle_eq(apply(op, handle_mul(f, handle_colon(e, f))), apply(op, e)))))
        # and the quotient form (E F^{-1})^op = (E^op : F)
        lines.append(_sampled_identity("star-domain-inverse-colon-identity", _first_failure(
            pairs[:40], lambda e, f: handle_eq(apply(op, handle_mul(e, handle_inverse(f))),
                                               handle_colon(apply(op, e), f)))))
        # a star-domain is quasi-star-integrally closed; only the nontrivial
        # containment (each (F^op : F^op) inside D^op) is decidable from samples
        unit = unit_handle(domain)
        dstar = apply(op, unit)
        bad = _first_failure(pairs[:40], lambda e, f: handle_leq(handle_colon(apply(op, e), apply(op, e)), dstar))
        lines.append(_sampled_identity("quasi-integrally-closed-containment", None if bad is None else bad[0]))
        # restricted colon transfer on integrally closed star-domains
        if "integrally_closed" in domain.capabilities:
            lines.append(_sampled_identity("restricted-colon-transfer", _first_failure(
                pairs[:40], lambda e, f: handle_eq(apply(op, handle_intersect(handle_colon(e, f), unit)),
                                                   handle_intersect(handle_colon(apply(op, e), f), dstar)))))
    else:
        lines.append(SuiteLine("star-domain-colon-product-identity", VACUOUS, "not established as a star-domain"))

    # --- coherence lattice
    lines.append(_implication("extracoherent-implies-coherent", coh[EXTRACOHERENT], coh[COHERENT]))
    lines.append(_implication("extracoherent-implies-truly-coherent", coh[EXTRACOHERENT], coh[TRULY_COHERENT]))
    lines.append(_implication("truly-coherent-implies-quasi-coherent", coh[TRULY_COHERENT], coh[QUASI_COHERENT]))
    lines.append(_biconditional(
        "extracoherent-iff-finite-type-extracoherent",
        coh[EXTRACOHERENT],
        classify.coherence_check(domain, EXTRACOHERENT, ft_op(op), spec) if ft_op(op) != op else coh[EXTRACOHERENT],
    ))
    if barft_vs_ft is not None and barft_vs_ft.is_holds:
        lines.append(_biconditional("stable-case-truly-equals-coherent", coh[TRULY_COHERENT], coh[COHERENT]))

    # --- a P*MD satisfies the intersection-product identity under tilde
    top = tilde_op(op)
    bad = _first_failure(pairs, lambda e, f: handle_eq(apply(top, handle_mul(handle_add(e, f), handle_intersect(e, f))),
                                                       apply(top, handle_mul(e, f))))
    if pstarmd.is_holds:
        lines.append(_sampled_identity("pstarmd-sum-meet-product-identity", bad))
    else:
        lines.append(SuiteLine(
            "pstarmd-sum-meet-product-identity",
            VACUOUS if bad is not None else OK,
            "identity holds anyway" if bad is None else "not a P*MD; identity may fail",
        ))

    # --- main characterization: quasi-coherent star-domain is a P*MD
    both = _conj(star_domain, coh[QUASI_COHERENT])
    lines.append(_implication("quasi-coherent-star-domain-implies-pstarmd", both, pstarmd))
    lines.append(_implication("pstarmd-implies-extracoherent", pstarmd, coh[EXTRACOHERENT]))
    lines.append(_implication("extracoherent-implies-tilde-equals-finite-type",
                              coh[EXTRACOHERENT], tilde_vs_ft))

    # --- Dedekind corollary; its two routes are cross-checked in dedekind_verdict
    noeth = classify.is_star_noetherian(domain, op)
    ded = classify.dedekind_verdict(pstarmd, noeth, star_domain, spec)
    lines.append(_biconditional("dedekind-iff-noetherian-star-domain", ded, _conj(noeth, star_domain)))

    # --- finite-character section
    clause_verdicts = classify.h_clauses(domain, op, spec, images)
    h = classify.h_verdict(domain, op, clause_verdicts)
    i = classify.i_verdict(domain, op, spec, h, products)
    lines.append(_implication("h-domain-implies-i-domain", h, i))
    decided = {k: v for k, v in clause_verdicts.items() if not v.is_unknown}
    if decided:
        kinds = {v.is_holds for v in decided.values()}
        lines.append(SuiteLine(
            "h-clauses-pairwise-agreement",
            OK if len(kinds) == 1 else VIOLATION,
            ", ".join(f"{k}={v.outcome}" for k, v in sorted(decided.items())),
        ))
    if tilde_vs_barft is not None:
        truly_ft = coh[TRULY_COHERENT] if ft_op(op) == op else classify.coherence_check(
            domain, TRULY_COHERENT, ft_op(op), spec)
        lines.append(_implication("truly-ft-coherent-implies-tilde-equals-stable-ft", truly_ft, tilde_vs_barft))
        lines.append(_implication("h-domain-implies-tilde-equals-stable-ft", h, tilde_vs_barft))
        lines.append(_implication("tilde-equals-stable-ft-implies-i-domain", tilde_vs_barft, i))
    lines.append(_implication("star-domain-and-i-domain-implies-pstarmd", _conj(star_domain, i), pstarmd))
    try:
        pstarmd_bar = pstarmd_of(bar_op(op))
        lines.append(_biconditional("pstarmd-iff-stable-closure-pstarmd", pstarmd, pstarmd_bar))
    except UnsupportedOperation:
        pass

    # --- final equivalence: P*MD iff a.b./e.a.b. plus tilde = finite type
    lines.append(_implication("pstarmd-implies-ab-with-tilde-eq-ft", pstarmd, _conj(ab, tilde_vs_ft)))
    lines.append(_implication("eab-with-tilde-eq-ft-implies-pstarmd", _conj(eab, tilde_vs_ft), pstarmd))
    lines.append(_implication("star-domain-with-tilde-eq-ft-implies-pstarmd",
                              _conj(star_domain, tilde_vs_ft), pstarmd))

    return report


def _conj(a: Verdict, b: Verdict) -> Verdict:
    if a.is_refuted:
        return a
    if b.is_refuted:
        return b
    if a.is_holds and b.is_holds:
        return holds(f"{a.reason}+{b.reason}")
    return unknown(max(a.samples, b.samples))
