"""The four benchmark workloads.

Each workload builds its domains and inputs in ``setup`` (timed as set-up),
hands the harness one pass of requests at a time, and checks every output
outside the timed region.  A request is a ``(label, thunk)`` pair; thunks
call the package through module attributes looked up at call time, so the
tracer's rebinding sees every call.

All inputs derive from the run seed.  Pass 0 uses the seed itself; later
passes use seeds derived from it, so a run never feeds the program the same
sampled input twice and a cache across requests gains only what the inputs
really share.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import random
from typing import NamedTuple


def derive(seed, *parts) -> int:
    """A 31-bit seed determined by ``seed`` and ``parts`` (stable across runs:
    string seeding of ``random.Random`` hashes with SHA-512)."""
    return random.Random("/".join(str(p) for p in (seed,) + parts)).getrandbits(31)


def _modules(*names):
    return [importlib.import_module(f"semistar.{n}") for n in names]


def _warm(domains):
    """Fill the per-domain cached properties before timing."""
    for d in domains:
        d.engine
        d.capabilities


class Check(NamedTuple):
    ok: bool
    canonical: object  # the output in printable form, for the reference digest
    judged: int = 0  # verdict-bearing outputs in this request
    decided: int = 0  # of those, how many are decided
    problem: str = ""


class Workload:
    name = ""
    # fixed per workload, so runs stay comparable; see perfbench/README.md
    tail_percentile = 99.0
    request_limit_s = 10.0
    input_size = ""  # stated next to the throughput, set by setup

    def setup(self, seed: int):
        raise NotImplementedError

    def requests(self, k: int):
        """The requests of pass ``k``: a list of ``(label, thunk)``."""
        raise NotImplementedError

    def check(self, label, output) -> Check:
        raise NotImplementedError

    def reference_text(self, canonicals):
        """Text of pass 0 that the reference digest covers, plus any
        problems found comparing it with a committed golden file."""
        return "\n".join(sorted(str(c) for c in canonicals)) + "\n", []


# ---------------------------------------------------------------------------

class Verdicts(Workload):
    """theorem_suite over the catalog instances, as ``semistar --suite`` runs it."""

    name = "verdicts"
    tail_percentile = 80.0
    request_limit_s = 30.0
    # four whole passes fill a 20 s window on a 2-CPU Xeon at the seed commit
    SAMPLE_COUNT = 2

    def setup(self, seed):
        scenarios, theorems = _modules("scenarios", "theorems")
        self.seed = seed
        self.theorems = theorems
        self.SampleSpec = importlib.import_module("semistar").SampleSpec
        self.instances = [
            (domain, op)
            for domain, ops in scenarios.catalog_instances()
            for op in ops
            if not (op.kind == "spec" and op.tag == "P1")  # skipped by --suite too
        ]
        _warm({d for d, _ in self.instances})
        self.input_size = (f"{len(self.instances)} (domain, op) instances a pass, "
                           f"SampleSpec count {self.SAMPLE_COUNT}")

    def requests(self, k):
        seed = self.seed if k == 0 else derive(self.seed, self.name, k)
        spec = self.SampleSpec(seed=seed, count=self.SAMPLE_COUNT)
        return [
            (f"{domain.name} with {op!r}", lambda d=domain, o=op: self.theorems.theorem_suite(d, o, spec))
            for domain, op in self.instances
        ]

    def check(self, label, report):
        violations = [line.check for line in report.lines if line.outcome == self.theorems.VIOLATION]
        decided = sum(line.outcome != self.theorems.UNDECIDED for line in report.lines)
        return Check(
            ok=not violations,
            canonical=report.render(),
            judged=len(report.lines),
            decided=decided,
            problem=f"{label}: violation in {violations}" if violations else "",
        )


class SemigroupIdeals(Workload):
    """Ideal arithmetic on pairs from the enumerate_ideals windows of four
    numerical semigroups, through the public handle API."""

    name = "semigroup-ideals"
    tail_percentile = 99.0
    request_limit_s = 10.0
    GENERATORS = ((3, 4, 5), (4, 6, 9), (5, 7, 9), (6, 7, 8, 9, 10))
    PASS_SIZE = 1024

    def setup(self, seed):
        semistar = importlib.import_module("semistar")
        numsgr, operations = _modules("numsgr", "operations")
        self.ops = operations
        self.V = semistar.v_op()
        self.windows = []
        for gens in self.GENERATORS:
            domain = semistar.semigroup_domain(list(gens))
            ring = domain.payload
            frobenius = ring.conductor - 1
            ideals = numsgr.enumerate_ideals(ring, 0, frobenius + 3)
            self.windows.append([operations.make_handle(domain, i) for i in ideals])
        _warm({h.domain for w in self.windows for h in w})
        # every ordered pair of every window, visited in the order of a seeded
        # affine permutation of the pair index, so no pair repeats until all
        # have been visited
        self.offsets = [0]
        for w in self.windows:
            self.offsets.append(self.offsets[-1] + len(w) ** 2)
        self.total = self.offsets[-1]
        rng = random.Random(derive(seed, self.name))
        self.stride = rng.randrange(1, self.total)
        while math.gcd(self.stride, self.total) != 1:
            self.stride += 1
        self.start = rng.randrange(self.total)
        self.input_size = (f"{sum(map(len, self.windows))} ideals in {len(self.windows)} windows, "
                           f"{self.total} ordered pairs, {self.PASS_SIZE} pairs a pass")

    def _pair(self, j):
        index = (self.start + self.stride * j) % self.total
        w = next(i for i in range(len(self.windows)) if index < self.offsets[i + 1])
        first, second = divmod(index - self.offsets[w], len(self.windows[w]))
        return self.windows[w][first], self.windows[w][second]

    def _request(self, a, b):
        ops = self.ops
        return (a, b, ops.handle_add(a, b), ops.handle_mul(a, b),
                ops.handle_intersect(a, b), ops.handle_colon(a, b), ops.apply(self.V, a))

    def requests(self, k):
        out = []
        for j in range(k * self.PASS_SIZE, (k + 1) * self.PASS_SIZE):
            a, b = self._pair(j)
            out.append((f"pair {j}", lambda a=a, b=b: self._request(a, b)))
        return out

    def check(self, label, output):
        ops = self.ops
        a, b, total, prod, meet, colon, va = output
        failed = []
        if not ops.handle_leq(a, total):
            failed.append("a <= a+b")
        if not ops.handle_leq(meet, a):
            failed.append("a&b <= a")
        if not ops.handle_leq(ops.handle_mul(colon, b), a):
            failed.append("(a:b)*b <= a")
        if not ops.handle_eq(ops.apply(self.V, va), va):
            failed.append("v(v(a)) = v(a)")
        canonical = f"{a.domain.name} {a!r} {b!r} | {total!r} | {prod!r} | {meet!r} | {colon!r} | {va!r}"
        return Check(ok=not failed, canonical=canonical,
                     problem=f"{label} {a!r}, {b!r}: {failed}" if failed else "")


class ClosureLaws(Workload):
    """One sampled instance of the closure axioms and the basic formulas per
    request, over the catalog plus off-catalog domains."""

    name = "closure-laws"
    tail_percentile = 99.0
    request_limit_s = 10.0
    EXTRA = (
        # asc(.) is defined only where every module is an overring module
        ("family=valuation base_field=Q group=Q", ("asc(v)", "asc(w)")),
        ("family=numsgr generators=[5,7,9]", ("d", "v", "t", "w", "st[ic]", "bar(v)")),
        ("family=pullback base_field=Q extension=a^3-2 group=Q",
         ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])")),
        ("family=pullback base_field=Fp:5 extension=a^3+a+1 group=Q",
         ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])")),
        ("family=pullback base_field=Fp:2 extension=a^4+a+1 group=Z",
         ("d", "v", "st[V]", "tilde(st[V])", "bar(st[V])", "desc(d)", "desc(v)")),
    )

    def setup(self, seed):
        scenarios, exprs, laws = _modules("scenarios", "exprs", "laws")
        self.seed = seed
        self.laws = laws
        self.SampleSpec = importlib.import_module("semistar").SampleSpec
        self.instances = [
            (domain, op) for domain, ops in scenarios.catalog_instances() for op in ops
        ]
        for domain_text, op_texts in self.EXTRA:
            domain = exprs.parse_domain(domain_text)
            self.instances.extend((domain, exprs.parse_op(t)) for t in op_texts)
        _warm({d for d, _ in self.instances})
        self.input_size = f"{len(self.instances)} (domain, op) instances a pass, one fresh sample each"

    def _request(self, domain, op, spec):
        laws = self.laws
        return (laws.check_axioms(domain, op, spec, count=1),
                laws.check_basic_formulas(domain, op, spec, count=1))

    def requests(self, k):
        out = []
        for i, (domain, op) in enumerate(self.instances):
            spec = self.SampleSpec(seed=derive(self.seed, self.name, k, i), count=1)
            label = f"{domain.name} with {op!r} at seed {spec.seed}"
            out.append((label, lambda d=domain, o=op, s=spec: self._request(d, o, s)))
        return out

    def check(self, label, output):
        axioms, formulas = output
        failed = list(axioms) + list(formulas)
        return Check(ok=not failed, canonical=f"{label}: {axioms!r} {formulas!r}",
                     problem=f"{label}: {failed}" if failed else "")


class Scenarios(Workload):
    """One scenario of ``semistar --scenario all`` per request.

    A scenario, not a single assertion, is the unit: an assertion run alone
    re-parses its domain, which splits assertion latencies into two nearly
    equal groups (with and without a pullback domain parse) and leaves their
    median flipping between them from run to run."""

    name = "scenarios"
    tail_percentile = 80.0
    request_limit_s = 30.0
    SAMPLE_COUNT = 200  # the CLI default, which the goldens pin
    GOLDEN_STEM = os.path.join("tests", "goldens", "scenarios_seed0")

    def setup(self, seed):
        scenarios, cli = _modules("scenarios", "cli")
        self.seed = seed
        self.scenarios = scenarios
        self.cli = cli
        self.SampleSpec = importlib.import_module("semistar").SampleSpec
        self.kind_of = {(s.name, a.anchor): a.kind for s in scenarios.SCENARIOS for a in s.assertions}
        self.size_of = {s.name: len(s.assertions) for s in scenarios.SCENARIOS}
        self.input_size = (f"{len(scenarios.SCENARIOS)} scenarios, {len(self.kind_of)} assertions "
                           f"a pass, SampleSpec count {self.SAMPLE_COUNT}")

    def requests(self, k):
        seed = self.seed if k == 0 else derive(self.seed, self.name, k)
        spec = self.SampleSpec(seed=seed, count=self.SAMPLE_COUNT)
        return [
            (s.name, lambda s=s: self.scenarios.run_scenario(s, spec))
            for s in self.scenarios.SCENARIOS
        ]

    def check(self, label, rows):
        failed = [f"{r['anchor']}: {r['actual']}" for r in rows if r["outcome"] != "PASS"]
        if len(rows) != self.size_of[label]:
            failed.append(f"{len(rows)} rows for {self.size_of[label]} assertions")
        judged = [r for r in rows if self.kind_of[r["scenario"], r["anchor"]] in ("verdict", "op_eq")]
        decided = sum(not r["actual"].startswith("unknown") for r in judged)
        return Check(ok=not failed, canonical=rows, judged=len(judged), decided=decided,
                     problem=f"{label}: {failed}" if failed else "")

    def reference_text(self, canonicals):
        rows = sorted((r for rows in canonicals for r in rows), key=lambda r: (r["scenario"], r["anchor"]))
        text = self.cli._render_json(rows)
        problems = []
        if self.seed == 0:
            # pass 0 at seed 0 is exactly `semistar --scenario all`
            for suffix, rendered in ((".json", text), (".txt", self.cli._render_text(rows))):
                with open(self.GOLDEN_STEM + suffix, encoding="utf-8") as fh:
                    if fh.read() != rendered:
                        problems.append(f"output differs from {self.GOLDEN_STEM}{suffix}")
        return text, problems


WORKLOADS = {w.name: w for w in (Verdicts, SemigroupIdeals, ClosureLaws, Scenarios)}
