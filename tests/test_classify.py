"""Predicate verdicts on the worked instances, with witness replay."""

from __future__ import annotations

import pytest

from semistar.classify import (
    COHERENT,
    EXTRACOHERENT,
    QUASI_COHERENT,
    TRULY_COHERENT,
    coherence_check,
    h_clauses,
    is_H_domain,
    is_I_domain,
    is_ab,
    is_eab,
    is_pstarmd,
    is_star_dedekind,
    is_star_domain,
    is_star_finite,
    is_star_invertible,
    is_star_noetherian,
    probe_ideals,
)
from semistar.operations import (
    apply,
    bar_op,
    d_op,
    handle_eq,
    handle_inverse,
    handle_intersect,
    handle_leq,
    handle_mul,
    maximal_handle,
    quasi_star_ideal_check,
    st_op,
    t_op,
    unit_handle,
    v_op,
)
from semistar.verdict import SampleSpec

SPEC = SampleSpec(seed=5, count=60)


# ---------------------------------------------------------------------------
# invertibility and finiteness

def test_invertibility(dom_pvd, dom_345, dom_vq):
    st = st_op("V")
    assert not is_star_invertible(st, maximal_handle(dom_pvd))
    # principal ideals are invertible under every operation
    rng = SPEC.rng("inv")
    for domain, op in ((dom_pvd, st), (dom_345, v_op()), (dom_vq, v_op())):
        principal = probe_ideals(domain, SPEC, n=10, fg=True)
        for h in principal:
            if h.fg_witness and len(h.fg_witness) == 1:
                assert is_star_invertible(op, h)
    e = dom_345.engine
    from semistar.numsgr import ideal_normalize

    from semistar.operations import make_handle

    eh = make_handle(dom_345, ideal_normalize(dom_345.payload, [3, 4]))
    assert not is_star_invertible(v_op(), eh)


def test_star_finiteness(dom_318, dom_vq):
    st = st_op("V")
    md = _mk_module(dom_318, 1, one=True)
    mxd = _mk_module(dom_318, 1, one=False)
    mm = handle_intersect(md, mxd)
    verdict = is_star_finite(st, mm, SPEC)
    assert verdict.is_refuted and "cut-parity" in verdict.detail
    assert is_star_finite(st, md, SPEC).is_holds  # self-witness
    # M over the dense valuation domain: v-finite (D itself works) but not
    # within-finite, and t-finiteness fails by parity
    m = maximal_handle(dom_vq)
    assert is_star_finite(v_op(), m, SPEC).is_holds
    within = is_star_finite(v_op(), m, SPEC, within=True)
    assert within.is_refuted and "support-below-envelope" in within.detail
    assert is_star_finite(t_op(), m, SPEC, within=True).is_refuted


def _mk_module(domain, level, one: bool):
    from semistar.dplusm import module_from_generators
    from semistar.operations import make_handle

    K = domain.payload.residue_ext
    coeff = K.one if one else K.gen()
    return make_handle(domain, module_from_generators(domain.payload, [(coeff, level)]))


# ---------------------------------------------------------------------------
# star-domain family

def test_star_domain_verdicts(dom_pvd, dom_318, dom_345, dom_vq):
    st = st_op("V")
    v1 = is_star_domain(dom_pvd, st, SPEC)
    assert v1.is_refuted and handle_eq(v1.witness[0], maximal_handle(dom_pvd))
    assert is_star_domain(dom_318, st, SPEC).is_refuted
    assert is_star_domain(dom_345, v_op(), SPEC).is_refuted
    assert is_star_domain(dom_vq, v_op(), SPEC).is_holds


def test_star_domain_witness_replay(dom_pvd):
    st = st_op("V")
    verdict = is_star_domain(dom_pvd, st, SPEC)
    witness = verdict.witness[0]
    prod = handle_mul(witness, handle_inverse(witness))
    assert not handle_eq(apply(st, prod), apply(st, unit_handle(dom_pvd)))


def test_pstarmd_routes_consistent(dom_pvd, dom_318, dom_345, dom_vq, dom_vz, dom_lex):
    cases = [
        (dom_pvd, st_op("V"), "refuted"),
        (dom_318, st_op("V"), "refuted"),
        (dom_345, v_op(), "refuted"),
        (dom_vq, v_op(), "holds"),
        (dom_vz, v_op(), "holds"),
        (dom_lex, v_op(), "holds"),
    ]
    for domain, op, expected in cases:
        verdict = is_pstarmd(domain, op, SPEC)
        assert verdict.outcome == expected, f"{domain.name}: {verdict}"


def test_ab_eab(dom_pvd, dom_vq, dom_345):
    assert is_ab(dom_pvd, st_op("V"), SPEC).is_holds
    assert is_ab(dom_vq, v_op(), SPEC).is_holds
    assert is_eab(dom_vq, d_op(), SPEC).is_holds
    verdict = is_eab(dom_345, d_op(), SPEC)
    assert verdict.is_refuted
    e, f, g = verdict.witness
    # replay the cancellation failure
    assert handle_leq(apply(d_op(), handle_mul(e, f)), apply(d_op(), handle_mul(e, g)))
    assert not handle_leq(apply(d_op(), f), apply(d_op(), g))


# ---------------------------------------------------------------------------
# coherence

def test_coherence_numsgr(dom_345):
    v = v_op()
    extra = coherence_check(dom_345, EXTRACOHERENT, v, SPEC)
    assert extra.is_refuted and "strict-gap" in extra.detail
    e, f = extra.witness
    assert sorted(e.payload.gens) == [3, 4] and sorted(f.payload.gens) == [3, 5]
    # replay: the gap is strict
    meet = handle_intersect(e, f)
    assert not handle_eq(apply(v, meet), handle_intersect(apply(v, e), apply(v, f)))
    for kind in (COHERENT, TRULY_COHERENT, QUASI_COHERENT):
        assert coherence_check(dom_345, kind, v, SPEC).is_holds


def test_coherence_318(dom_318):
    st = st_op("V")
    assert coherence_check(dom_318, COHERENT, st, SPEC).is_holds
    truly = coherence_check(dom_318, TRULY_COHERENT, st, SPEC)
    assert truly.is_refuted
    e, f = truly.witness[:2]
    meet = handle_intersect(e, f)
    assert is_star_finite(st, meet, SPEC).is_refuted  # replay
    assert coherence_check(dom_318, EXTRACOHERENT, st, SPEC).is_refuted
    # (D : mV) is an open-tail module, so the domain is not even
    # quasi-coherent for this operation; coherent does not imply
    # quasi-coherent without stability
    quasi = coherence_check(dom_318, QUASI_COHERENT, st, SPEC)
    assert quasi.is_refuted and "cut-parity" in quasi.detail


def test_coherent_pair_closes_each_member_once(monkeypatch, K_quad):
    """The landmark pair t D, (a t) D under st[V]: both images are t V, so e
    is its own witness and the search closes e and f once each."""
    from semistar import classify
    from semistar.operations import pullback_domain

    dom = pullback_domain(K_quad, "Q", "p318-pair-once")
    st = st_op("V")
    e, f = classify.landmark_pairs(dom)[0]
    pool = classify._coherent_pool(dom, st, SPEC)
    closed = []
    original = classify.apply

    def counted(op, j):
        closed.append(j)
        return original(op, j)

    monkeypatch.setattr(classify, "apply", counted)
    verdict = classify._coherent_pair_witness(dom, st, e, f, pool)
    assert verdict.is_holds and verdict.detail == repr(e)
    assert closed == [e, f]


def test_coherence_valuation(dom_vq):
    for kind in (EXTRACOHERENT, COHERENT, TRULY_COHERENT, QUASI_COHERENT):
        assert coherence_check(dom_vq, kind, v_op(), SPEC).is_holds


def test_coherence_lattice(dom_345, dom_pvd, dom_318, dom_vq):
    for domain, op in ((dom_345, v_op()), (dom_pvd, st_op("V")), (dom_318, st_op("V")), (dom_vq, v_op())):
        verdicts = {k: coherence_check(domain, k, op, SPEC)
                    for k in (EXTRACOHERENT, COHERENT, TRULY_COHERENT, QUASI_COHERENT)}
        if verdicts[EXTRACOHERENT].is_holds:
            assert not verdicts[COHERENT].is_refuted
            assert not verdicts[TRULY_COHERENT].is_refuted
        if verdicts[TRULY_COHERENT].is_holds:
            assert not verdicts[QUASI_COHERENT].is_refuted


# ---------------------------------------------------------------------------
# H / I conditions

def test_h_domain(dom_vq, dom_345, dom_pvd):
    verdict = is_H_domain(dom_vq, v_op(), SPEC)
    assert verdict.is_refuted
    clauses = h_clauses(dom_vq, v_op(), SPEC)
    decided = {k: v for k, v in clauses.items() if not v.is_unknown}
    assert len(decided) >= 3
    assert all(v.is_refuted for v in decided.values())
    assert is_H_domain(dom_345, v_op(), SPEC).is_holds
    assert is_H_domain(dom_pvd, st_op("V"), SPEC).is_holds  # finite type


def test_h_witness_replay(dom_vq):
    """The H-refutation witness M belongs to F^v but no finitely generated
    subideal reaches the same closure."""
    m = maximal_handle(dom_vq)
    assert handle_eq(apply(v_op(), m), apply(v_op(), unit_handle(dom_vq)))
    assert is_star_finite(v_op(), m, SPEC, within=True).is_refuted


def test_i_domain(dom_vq, dom_pvd):
    assert is_I_domain(dom_vq, v_op(), SPEC).is_holds
    assert is_I_domain(dom_pvd, st_op("V"), SPEC).is_holds


def test_noetherian_and_dedekind(dom_345, dom_vq, dom_vz, dom_lex, dom_pvd):
    assert is_star_noetherian(dom_345, v_op()).is_holds
    assert is_star_noetherian(dom_pvd, st_op("V")).is_holds
    chain = is_star_noetherian(dom_vq, v_op())
    assert chain.is_refuted
    for lo, hi in zip(chain.witness, chain.witness[1:]):
        assert handle_leq(lo, hi) and not handle_eq(lo, hi)
        assert quasi_star_ideal_check(v_op(), lo)
    assert is_star_noetherian(dom_lex, d_op()).is_refuted
    assert is_star_dedekind(dom_vz, d_op(), SPEC).is_holds
    assert is_star_dedekind(dom_vq, v_op(), SPEC).is_refuted
    assert is_star_dedekind(dom_345, v_op(), SPEC).is_refuted  # noetherian non-P*MD


def test_quasi_chain_members_integral(dom_vq):
    chain = is_star_noetherian(dom_vq, v_op()).witness
    d = unit_handle(dom_vq)
    for h in chain:
        assert handle_leq(h, d)


def test_theorem_suite_computes_each_fact_once(monkeypatch, K_quad, K_triv):
    """One suite runs the a.b. and the e.a.b. search once each and builds
    each (domain, op) localizing system once, a failed one included."""
    from semistar import classify, operations, theorems
    from semistar.operations import UnsupportedOperation, pullback_domain, semigroup_domain, valuation_domain

    calls = {"ab": 0, "eab": 0}
    original = classify.cancellation_verdict

    def counted(domain, op, spec, star_domain, fg_only):
        calls["eab" if fg_only else "ab"] += 1
        return original(domain, op, spec, star_domain, fg_only)

    monkeypatch.setattr(classify, "cancellation_verdict", counted)
    systems = []
    original_ls = operations._localizing_system

    def counted_ls(op, dom):
        systems.append((dom, op, "failed"))  # keeps dom alive, so ids stay distinct
        out = original_ls(op, dom)
        systems[-1] = (dom, op, "built")
        return out

    monkeypatch.setattr(operations, "_localizing_system", counted_ls)
    spec = SampleSpec(seed=0, count=2)
    vq = valuation_domain(K_triv, "Q", "v-q-count")
    for domain, op in ((pullback_domain(K_quad, "Z", "pvd-count"), v_op()),
                       (semigroup_domain([3, 4, 5], "numsgr-count"), v_op()),
                       (vq, v_op()), (vq, st_op("K"))):
        calls.update(ab=0, eab=0)
        theorems.theorem_suite(domain, op, spec)
        assert calls == {"ab": 1, "eab": 1}
    keys = [(id(d), op) for d, op, _ in systems]
    assert len(keys) == len(set(keys))
    assert {outcome for _, _, outcome in systems} == {"built", "failed"}
    # a stored failure is raised afresh, with its message
    with pytest.raises(UnsupportedOperation, match="constant-field"):
        operations.localizing_system(st_op("K"), vq)
    assert len(systems) == len(keys)


def test_theorem_suite_decides_each_star_domain_once(monkeypatch, K_quad, K_triv):
    """One suite runs is_star_domain at most once per operation: op, ft(op),
    tilde(op), bar(op), ft(bar op) and tilde(bar op)."""
    from semistar import classify, theorems
    from semistar.operations import pullback_domain, semigroup_domain, valuation_domain

    asked = []
    tables = []
    original = classify.is_star_domain

    def counted(domain, op, spec, products):
        asked.append(op)
        tables.append(products)
        return original(domain, op, spec, products)

    monkeypatch.setattr(classify, "is_star_domain", counted)
    spec = SampleSpec(seed=0, count=2)
    vq = valuation_domain(K_triv, "Q", "v-q-star-once")
    for domain, op in ((pullback_domain(K_quad, "Z", "pvd-star-once"), v_op()),
                       (semigroup_domain([3, 4, 5], "numsgr-star-once"), v_op()),
                       (vq, v_op()), (vq, st_op("K"))):
        asked.clear()
        tables.clear()
        theorems.theorem_suite(domain, op, spec)
        assert {op, bar_op(op)} <= set(asked)
        assert len(asked) == len(set(asked)), f"{domain.name} with {op!r}: {asked}"
        # every operation reads the one product table of this suite
        assert tables[0] is not None and all(t is tables[0] for t in tables)


def test_theorem_suite_checks_each_coherence_once(monkeypatch, K_quad, K_triv):
    """One suite runs coherence_check at most once per (kind, op), also when
    ft(op) is op itself."""
    from semistar import classify, theorems
    from semistar.operations import pullback_domain, semigroup_domain, valuation_domain

    asked = []
    original = classify.coherence_check

    def counted(domain, kind, op, spec):
        asked.append((kind, op))
        return original(domain, kind, op, spec)

    monkeypatch.setattr(classify, "coherence_check", counted)
    spec = SampleSpec(seed=0, count=2)
    for domain in (pullback_domain(K_quad, "Z", "pvd-coherence-once"),
                   semigroup_domain([3, 4, 5], "numsgr-coherence-once"),
                   valuation_domain(K_triv, "Q", "v-q-coherence-once")):
        for op in (v_op(), t_op(), d_op()):
            asked.clear()
            theorems.theorem_suite(domain, op, spec)
            assert len(asked) == len(set(asked)), f"{domain.name} with {op!r}: {asked}"


def test_combined_verdicts_reject_a_holds_beside_a_refuted(monkeypatch, dom_vq):
    from semistar import classify
    from semistar.classify import dedekind_verdict, pstarmd_verdict
    from semistar.operations import ConsistencyError
    from semistar.verdict import holds, refuted, unknown

    yes, no, open_ = holds("t"), refuted(unit_handle(dom_vq)), unknown(1)
    assert pstarmd_verdict(yes, open_, SPEC) is yes
    assert pstarmd_verdict(open_, no, SPEC) is no
    with pytest.raises(ConsistencyError, match="pstarmd routes disagree"):
        pstarmd_verdict(yes, no, SPEC)
    with pytest.raises(ConsistencyError, match="P\\*MD with refuted star-domain"):
        dedekind_verdict(yes, yes, no, SPEC)
    with pytest.raises(ConsistencyError, match="noetherian star-domain with refuted P\\*MD"):
        dedekind_verdict(no, yes, yes, SPEC)
    monkeypatch.setattr(classify, "h_clauses", lambda domain, op, spec: {"a": yes, "b": no})
    with pytest.raises(ConsistencyError, match="H clauses disagree"):
        is_H_domain(dom_vq, v_op(), SPEC)


def test_rank_two_pullback_leaves_the_rank_one_clauses_undecided(K_quad):
    """P1 inside M is a second nonzero prime of k + M over ZxZ, so neither
    the prime-witness clause nor an empty quasi-maximal spectrum may rest
    on M alone."""
    from semistar.operations import pullback_domain

    dom = pullback_domain(K_quad, "ZxZ", "pullback-lex")
    for op in (v_op(), st_op("K")):
        assert "prime-witness" not in h_clauses(dom, op, SPEC)
    # M^K = K: M is no quasi-ideal, and P1 is as much a candidate as M
    assert "maximal-spectra-agree" not in h_clauses(dom, st_op("K"), SPEC)


# ---------------------------------------------------------------------------
# sampled searches draw lazily and stop at the first decision

def _count_draws(monkeypatch, domain):
    """Record every payload the domain's engine draws with sample_fg_ideal."""
    drawn = []
    engine_type = type(domain.engine)
    original = engine_type.sample_fg_ideal

    def counted(self, *args, **kwargs):
        drawn.append(original(self, *args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(engine_type, "sample_fg_ideal", counted)
    return drawn


def test_truly_coherent_refutes_before_any_draw(monkeypatch, dom_318):
    drawn = _count_draws(monkeypatch, dom_318)
    verdict = coherence_check(dom_318, TRULY_COHERENT, st_op("V"), SampleSpec(count=200))
    assert verdict.is_refuted
    assert drawn == []


def test_coherent_draws_its_pool_once_per_check(monkeypatch, dom_318):
    spec = SampleSpec(count=200)
    drawn = _count_draws(monkeypatch, dom_318)
    assert coherence_check(dom_318, COHERENT, st_op("V"), spec).is_holds
    assert len(drawn) <= 24 + 2 * spec.count


def test_coherence_on_a_valuation_domain_draws_nothing(monkeypatch, dom_vq, dom_lex):
    for domain in (dom_vq, dom_lex):
        drawn = _count_draws(monkeypatch, domain)
        for kind in (EXTRACOHERENT, COHERENT, TRULY_COHERENT, QUASI_COHERENT):
            assert coherence_check(domain, kind, v_op(), SampleSpec(count=200)).is_holds
        assert drawn == []


def test_refuting_star_domain_stops_at_the_refuting_probe(monkeypatch, dom_pvd):
    from semistar import classify

    spec = SampleSpec(seed=5, count=60)  # its own draws: a shared spec replays earlier tests' samples
    drawn = _count_draws(monkeypatch, dom_pvd)
    # the maximal ideal is a landmark and refutes before any sample is drawn
    assert is_star_domain(dom_pvd, st_op("V"), spec).is_refuted
    assert drawn == []
    # a refutation at the first sampled probe draws exactly that probe
    monkeypatch.setattr(classify, "is_star_invertible", lambda op, i, prod: i.payload not in drawn)
    verdict = is_star_domain(dom_pvd, st_op("V"), spec)
    assert verdict.is_refuted and len(drawn) == 1
    assert verdict.witness[0].payload == drawn[0]


# ---------------------------------------------------------------------------
# a spec draws each seeded stream once and replays it

def test_probe_ideals_replay_one_prefix(dom_pvd):
    spec = SampleSpec(seed=7, count=40)
    short = probe_ideals(dom_pvd, spec, n=24)
    long = probe_ideals(dom_pvd, spec, n=32)
    fresh = probe_ideals(dom_pvd, SampleSpec(seed=7, count=40), n=32)
    assert [h.payload for h in short] == [h.payload for h in long[: len(short)]]
    assert [h.payload for h in long] == [h.payload for h in fresh]
    assert len(short) < len(long)
    # a replay hands out the handles drawn first, not equal copies
    assert all(a is b for a, b in zip(short, long))


def test_a_spec_is_freed_when_dropped_with_no_collector_run(dom_pvd):
    """The seeded streams a spec keeps do not keep the spec: dropping its
    last reference frees it and its draws at once, with no cycle left for
    the collector."""
    import gc
    import weakref

    from semistar import theorems

    spec = SampleSpec(seed=13, count=4)
    theorems.theorem_suite(dom_pvd, v_op(), spec)
    assert spec.draws
    held = weakref.ref(spec)
    gc.disable()
    try:
        del spec
        assert held() is None
    finally:
        gc.enable()


def test_probe_ideals_below_the_landmark_count_yield_the_landmarks(dom_pvd):
    landmarks = [unit_handle(dom_pvd), maximal_handle(dom_pvd), dom_pvd.overring_unit]
    for n in (0, 1):
        assert probe_ideals(dom_pvd, SampleSpec(seed=7, count=40), n=n) == landmarks


def test_a_failed_draw_fails_again_at_the_same_index(monkeypatch, K_quad):
    from semistar.algebra import AlgebraError
    from semistar.classify import fg_pair_stream
    from semistar.operations import pullback_domain

    dom = pullback_domain(K_quad, "Z", "pvd-failing-draw")
    drawn = _count_draws(monkeypatch, dom)
    engine_type = type(dom.engine)
    counted = engine_type.sample_fg_ideal

    def failing(self, *args, **kwargs):
        if len(drawn) == 5:
            raise AlgebraError("no finitely generated sample in 1000 attempts")
        return counted(self, *args, **kwargs)

    monkeypatch.setattr(engine_type, "sample_fg_ideal", failing)
    spec = SampleSpec(seed=3, count=10)
    for _ in range(2):  # the second consumer replays the stored prefix, then the failure
        seen = []
        with pytest.raises(AlgebraError, match="1000 attempts"):
            for pair in fg_pair_stream(dom, spec):
                seen.append(pair)
        assert len(seen) == 2  # pairs 0 and 1 took draws 0-3; pair 2 failed at draw 5
        assert len(drawn) == 5
    monkeypatch.setattr(engine_type, "sample_fg_ideal", counted)
    with pytest.raises(AlgebraError, match="1000 attempts"):
        list(fg_pair_stream(dom, spec))  # stored: the sampler is not asked again
    assert len(drawn) == 5


def test_theorem_suite_draws_each_sample_once(monkeypatch, K_quad):
    """Every engine sampler call of one suite starts from a fresh rng state,
    so no (salt, index) of a seeded stream is drawn twice."""
    from semistar import theorems
    from semistar.operations import pullback_domain

    dom = pullback_domain(K_quad, "Z", "pvd-draw-once")
    calls = []
    depth = [0]
    engine_type = type(dom.engine)
    for name in ("sample_ideal", "sample_fg_ideal"):
        original = getattr(engine_type, name)

        def counted(self, rng, *args, _name=name, _original=original, **kwargs):
            if depth[0] == 0:  # the fg sampler calls the plain one inside
                calls.append((_name, rng.getstate()))
            depth[0] += 1
            try:
                return _original(self, rng, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(engine_type, name, counted)
    spec = SampleSpec(seed=0, count=2)
    theorems.theorem_suite(dom, v_op(), spec)
    assert calls and len(calls) == len(set(calls))
    # each stored index took one call, and a pair two
    stored = sum(len(s.drawn) * (2 if salt.startswith("pairs/") else 1) for (_, salt), s in spec.draws.items())
    assert len(calls) == stored


# ---------------------------------------------------------------------------
# the cancellation search decides the E = D block by DF = F

# the catalog plus the off-catalog domains of the closure-laws benchmark
CANCELLATION_GRID = (
    ("family=valuation base_field=Q group=Q", ("asc(v)", "asc(w)")),
    ("family=numsgr generators=[5,7,9]", ("d", "v", "t", "w", "st[ic]", "bar(v)")),
    ("family=pullback base_field=Q extension=a^3-2 group=Q", ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])")),
    ("family=pullback base_field=Fp:5 extension=a^3+a+1 group=Q", ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])")),
    ("family=pullback base_field=Fp:2 extension=a^4+a+1 group=Z",
     ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])", "desc(d)", "desc(v)")),
)


def _outcome(search, *args):
    try:
        v = search(*args)
    except Exception as exc:  # an exception is an outcome too, and must match
        return ("raised", type(exc), exc.args)
    return (v.outcome, repr(v.witness), v.samples, v.reason, v.detail)


def test_cancellation_search_matches_the_closing_walk():
    """Outcome, witness and sample count equal those of the walk that closes
    every triple, E = D included, over the catalog and the closure-laws
    domains at seeds 0-3, counts 2, 20 and 60, for a.b. and e.a.b."""
    from semistar import classify, exprs, scenarios
    from oracles import cancellation_reference

    instances = [(exprs.parse_domain(text), [exprs.parse_op(t) for t in ops])
                 for text, ops in scenarios.INSTANCE_CATALOG + CANCELLATION_GRID]
    compared = 0
    for seed in range(4):
        for count in (2, 20, 60):
            spec = SampleSpec(seed=seed, count=count)
            for domain, ops in instances:
                for op in ops:
                    star_domain = is_star_domain(domain, op, spec)
                    for fg_only in (False, True):
                        args = (domain, op, spec, star_domain, fg_only)
                        assert _outcome(classify.cancellation_verdict, *args) == \
                            _outcome(cancellation_reference, *args), (seed, count, domain.name, op, fg_only)
                        compared += 1
    assert compared == 1320


def test_cancellation_closes_nothing_in_the_unit_block(monkeypatch, dom_345):
    """At count 2 the whole budget falls on E = D, so a non-star-domain
    search takes no closure; at count 20 the next block is still closed."""
    from semistar import classify
    from oracles import cancellation_reference

    closed = []
    original = classify.apply

    def counted(op, h):
        closed.append(h)
        return original(op, h)

    monkeypatch.setattr(classify, "apply", counted)
    op = d_op()
    for count in (2, 20):
        spec = SampleSpec(seed=0, count=count)
        star_domain = is_star_domain(dom_345, op, spec)
        assert star_domain.is_refuted
        closed.clear()
        verdict = classify.cancellation_verdict(dom_345, op, spec, star_domain, fg_only=True)
        assert _outcome(lambda: verdict) == _outcome(cancellation_reference, dom_345, op, spec, star_domain, True)
        n = len(dom_345.engine.ideal_window())
        assert n * n >= 40 * 2 and n * n < 40 * 20
        if count == 2:
            assert verdict.is_unknown and verdict.samples == 80 and closed == []
        else:
            assert closed, "the block after E = D must be closed"


def test_cancellation_counts_every_triple_of_a_short_list(monkeypatch):
    """With the budget above n^3 the whole walk is counted, blocks skipped
    by DF = F included.  At seed 0 the fg list of the catalog's dense
    valuation domain starts with D and then a sample equal to D, so only
    its third block is closed."""
    import oracles
    from semistar import classify
    from semistar.exprs import parse_domain
    from semistar.verdict import unknown

    dom_vq = parse_domain("family=valuation base_field=Q group=Q")

    original = classify.probe_ideals

    def short(*args, **kwargs):
        return original(*args, **kwargs)[:3]

    monkeypatch.setattr(classify, "probe_ideals", short)
    monkeypatch.setattr(oracles, "probe_ideals", short)
    spec = SampleSpec(seed=0, count=1)
    for op in (d_op(), v_op()):
        for fg_only in (False, True):
            args = (dom_vq, op, spec, unknown(0), fg_only)
            verdict = classify.cancellation_verdict(*args)
            assert verdict.is_unknown and verdict.samples == 27
            assert _outcome(lambda: verdict) == _outcome(oracles.cancellation_reference, *args)
    closed = []
    monkeypatch.setattr(classify, "handle_mul", lambda e, f: closed.append(e) or handle_mul(e, f))
    classify.cancellation_verdict(dom_vq, d_op(), spec, unknown(0), fg_only=True)
    unit = unit_handle(dom_vq)
    fg_list = short(dom_vq, spec, n=24, fg=True)
    assert handle_eq(fg_list[1], unit) and fg_list[1] is not unit
    assert closed and not any(handle_eq(e, unit) for e in closed)


def test_theorem_suite_computes_h_clauses_once(monkeypatch, K_quad, K_triv):
    """One suite asks h_clauses at most once: the H and I verdicts are
    combined from the clauses the suite already holds."""
    from semistar import classify, theorems
    from semistar.operations import pullback_domain, semigroup_domain, valuation_domain

    calls = []
    original = classify.h_clauses

    def counted(domain, op, spec, images):
        calls.append(op)
        return original(domain, op, spec, images)

    monkeypatch.setattr(classify, "h_clauses", counted)
    spec = SampleSpec(seed=0, count=2)
    vq = valuation_domain(K_triv, "Q", "v-q-h-once")
    for domain, op in ((pullback_domain(K_quad, "Z", "pvd-h-once"), v_op()),
                       (pullback_domain(K_quad, "Q", "p318-h-once"), st_op("V")),
                       (semigroup_domain([3, 4, 5], "numsgr-h-once"), v_op()),
                       (vq, v_op()), (vq, st_op("K"))):
        calls.clear()
        theorems.theorem_suite(domain, op, spec)
        assert len(calls) <= 1, f"{domain.name} with {op!r}: {calls}"


def test_implication_and_biconditional_on_every_pair_of_outcomes():
    """The suite's two combinators, fed every pair of outcomes: an
    implication is a VIOLATION only when its hypothesis holds and its
    conclusion is refuted, a biconditional whenever one side holds and the
    other is refuted."""
    from semistar.theorems import OK, UNDECIDED, VACUOUS, VIOLATION, _biconditional, _implication
    from semistar.verdict import holds, refuted, unknown

    verdicts = {"H": holds("tag"), "R": refuted("w"), "U": unknown(3)}
    implication = {
        "HH": OK, "HR": VIOLATION, "HU": OK,
        "RH": VACUOUS, "RR": VACUOUS, "RU": VACUOUS,
        "UH": UNDECIDED, "UR": UNDECIDED, "UU": UNDECIDED,
    }
    biconditional = {
        "HH": OK, "HR": VIOLATION, "HU": UNDECIDED,
        "RH": VIOLATION, "RR": OK, "RU": UNDECIDED,
        "UH": UNDECIDED, "UR": UNDECIDED, "UU": UNDECIDED,
    }
    for pair in implication:
        lhs, rhs = verdicts[pair[0]], verdicts[pair[1]]
        assert _implication("c", lhs, rhs).outcome == implication[pair], pair
        assert _biconditional("c", lhs, rhs).outcome == biconditional[pair], pair


# ---------------------------------------------------------------------------
# one suite closes each compared operation once and builds each F (D:F) once

def _walk_closures(monkeypatch):
    """(op, id(ideal)) of every closure a comparison walk makes itself (a
    universe may hold two equal ideals); the nested applies and those made
    while compiling an operation are left out."""
    from semistar import operations

    closed, walking, depth = [], [False], [0]

    def nested(fn):
        def run(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return run

    nested_apply, walk = nested(operations.apply), operations.ImageTable.first_failure

    def counted_apply(op, e):
        if walking[0] and depth[0] == 0:
            closed.append((op, id(e)))
        return nested_apply(op, e)

    def counted_walk(self, *args):
        walking[0] = True
        try:
            return walk(self, *args)
        finally:
            walking[0] = False

    monkeypatch.setattr(operations, "apply", counted_apply)
    monkeypatch.setattr(operations.DomainHandle, "fact", nested(operations.DomainHandle.fact))
    monkeypatch.setattr(operations.ImageTable, "first_failure", counted_walk)
    return closed


def _suite_instances(K_quad, K_triv, tag):
    from semistar.operations import desc_op, pullback_domain, semigroup_domain, valuation_domain

    p318 = pullback_domain(K_quad, "Q", f"p318-{tag}")
    return ((semigroup_domain([3, 4, 5], f"numsgr-{tag}"), v_op()),
            (pullback_domain(K_quad, "Z", f"pvd-{tag}"), v_op()),
            (p318, st_op("V")),
            (p318, desc_op(v_op())),  # its H verdict is refuted, so the I-domain search runs
            (valuation_domain(K_triv, "Q", f"v-q-{tag}"), v_op()))


def test_theorem_suite_closes_each_operation_once_per_universe_ideal(monkeypatch, K_quad, K_triv):
    """The walks of one suite read its image table: each (operation,
    universe ideal) pair is closed at most once, on a semigroup ring, two
    pullbacks and a valuation domain."""
    from semistar import theorems

    closed = _walk_closures(monkeypatch)
    spec = SampleSpec(seed=0, count=2)
    for domain, op in _suite_instances(K_quad, K_triv, "walk-once"):
        closed.clear()
        theorems.theorem_suite(domain, op, spec)
        assert closed, domain.name
        assert len(closed) == len(set(closed)), f"{domain.name} with {op!r}"


def _product_builds(monkeypatch):
    """The F of every F (D:F) built in `classify`: a product by the inverse
    that `classify.handle_inverse` has just returned."""
    from semistar import classify

    inverses, built = [], []
    inverse, mul = classify.handle_inverse, classify.handle_mul

    def counted_inverse(f):
        inverses.append(inverse(f))
        return inverses[-1]

    def counted_mul(a, b):
        if inverses and b is inverses[-1]:
            built.append(a)
        return mul(a, b)

    monkeypatch.setattr(classify, "handle_inverse", counted_inverse)
    monkeypatch.setattr(classify, "handle_mul", counted_mul)
    return built


def test_theorem_suite_builds_each_product_once(monkeypatch, K_quad, K_triv):
    """Every star-domain and I-domain search of one suite reads its product
    table: each sampled F has its F (D:F) built once."""
    from semistar import theorems

    built = _product_builds(monkeypatch)
    for count in (2, 20):
        spec = SampleSpec(seed=0, count=count)
        for domain, op in _suite_instances(K_quad, K_triv, f"product-once-{count}"):
            built.clear()
            theorems.theorem_suite(domain, op, spec)
            assert len(built) == len({id(f) for f in built}), f"{domain.name} with {op!r}"
            if "valuation" not in domain.capabilities:  # a valuation domain decides by theorem
                assert built, domain.name


def test_a_failed_product_fails_again_for_every_operation(monkeypatch, dom_pvd):
    """A failure while building product k is raised at k for every operation
    that reads the table that far, the I-domain search included; no reader
    sees a shorter list and returns unknown, and product k is not retried."""
    from semistar import classify
    from semistar.algebra import AlgebraError
    from semistar.operations import ft_op, tilde_op
    from semistar.verdict import unknown

    built = _product_builds(monkeypatch)
    inverse = classify.handle_inverse

    def failing(f):
        if len(built) == 3:
            raise AlgebraError("planted failure at product 3")
        return inverse(f)

    monkeypatch.setattr(classify, "handle_inverse", failing)
    monkeypatch.setattr(classify, "is_star_invertible", lambda op, i, prod: True)  # every search reads on
    spec = SampleSpec(seed=11, count=20)
    products = classify.invertibility_products(dom_pvd, spec)
    for op in (v_op(), ft_op(v_op()), tilde_op(v_op()), bar_op(v_op()), st_op("V")):
        with pytest.raises(AlgebraError, match="^planted failure at product 3$"):
            is_star_domain(dom_pvd, op, spec, products)
    with pytest.raises(AlgebraError, match="^planted failure at product 3$"):
        classify.i_verdict(dom_pvd, v_op(), spec, unknown(0), products)
    assert len(built) == 3 and len(products.drawn) == 3
