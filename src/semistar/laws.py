"""Closure-operation laws checked on seeded random inputs, exactly.

check_axioms covers homogeneity, monotonicity, extensivity and idempotency;
check_basic_formulas covers the four product/sum/colon/intersection chains
that every closure of this kind must satisfy.  Both return a list of failure
descriptions (empty means every sampled instance passed).
"""

from __future__ import annotations

from .algebra.fields import AlgebraError
from .operations import (
    DomainHandle,
    SemistarOp,
    apply,
    handle_add,
    handle_colon,
    handle_eq,
    handle_intersect,
    handle_leq,
    handle_mul,
    make_handle,
)
from .verdict import SampleSpec


def _sample(domain: DomainHandle, rng, spec: SampleSpec):
    return make_handle(domain, domain.engine.sample_ideal(rng, spec))


def _scale(h, scalar):
    return make_handle(h.domain, h.domain.engine.scale(h.payload, scalar))


def check_axioms(domain: DomainHandle, op: SemistarOp, spec: SampleSpec, count=None):
    failures = []
    rng = spec.rng(f"axioms/{domain.name}/{op!r}")
    n = count if count is not None else spec.count
    eng = domain.engine
    for k in range(n):
        e = _sample(domain, rng, spec)
        f = handle_add(e, _sample(domain, rng, spec))  # guarantees e <= f
        x = eng.sample_scalar(rng, spec)
        try:
            image = apply(op, e)
        except AlgebraError as exc:
            failures.append(f"#{k}: evaluation failed on {e!r}: {exc}")
            continue
        # homogeneity (x E)^op = x E^op
        lhs = apply(op, _scale(e, x))
        # an image over a spectral localization is scaled by the projected scalar
        rhs = _scale(image, x if image.domain == domain else eng.localize_scalar(x))
        if not handle_eq(lhs, rhs):
            failures.append(f"#{k}: homogeneity failed at {e!r} with scalar {x!r}")
        # monotonicity
        if not handle_leq(image, apply(op, f)):
            failures.append(f"#{k}: monotonicity failed at {e!r} <= {f!r}")
        # extensivity and idempotency
        if not handle_leq(e, image):
            failures.append(f"#{k}: extensivity failed at {e!r}")
        if not handle_eq(apply(op, image), image):
            failures.append(f"#{k}: idempotency failed at {e!r}")
    return failures


def check_basic_formulas(domain: DomainHandle, op: SemistarOp, spec: SampleSpec, count=None):
    failures = []
    rng = spec.rng(f"formulas/{domain.name}/{op!r}")
    n = count if count is not None else spec.count
    star = (lambda h: apply(op, h))
    for k in range(n):
        e = _sample(domain, rng, spec)
        f = _sample(domain, rng, spec)
        es, fs = apply(op, e), apply(op, f)
        # a spectral image lives over the localized domain, where op is the
        # identity; only operands over one domain are combined
        pairs = [(x, y) for x, y in ((es, f), (e, fs), (es, fs)) if x.domain == y.domain]

        prod = star(handle_mul(e, f))
        if not all(handle_eq(prod, star(handle_mul(x, y))) for x, y in pairs):
            failures.append(f"#{k}: product formula failed at {e!r}, {f!r}")

        tot = star(handle_add(e, f))
        if not all(handle_eq(tot, star(handle_add(x, y))) for x, y in pairs):
            failures.append(f"#{k}: sum formula failed at {e!r}, {f!r}")

        try:
            quot = star(handle_colon(e, f))
        except AlgebraError:
            quot = None
        if quot is not None:
            rhs = handle_colon(es, fs)
            ok = handle_leq(quot, rhs) and (es.domain != f.domain or (
                handle_eq(rhs, handle_colon(es, f)) and handle_eq(rhs, star(handle_colon(es, f)))))
            if not ok:
                failures.append(f"#{k}: colon formula failed at {e!r}, {f!r}")

        meet = star(handle_intersect(e, f))
        rhs = handle_intersect(es, fs)
        if not handle_leq(meet, rhs):
            failures.append(f"#{k}: intersection formula failed at {e!r}, {f!r}")
        elif not handle_eq(rhs, star(rhs)):
            failures.append(f"#{k}: intersection closure failed at {e!r}, {f!r}")
    return failures
