"""Benchmark of the semistar engine: one workload per process, one thread.

    python3 perfbench/run.py --workload verdicts --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  The run sets the workload up several times (median reported
as ``setup_s``), then runs whole passes of requests, closed loop with one
client, until the time spent in requests reaches ``--seconds``.  Every output
is checked outside the timed region.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the details (environment, percentile ranks, reference
digest, problems, and in traced runs the functions with the most self time).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs whole
passes untraced for a third of ``--seconds``, then the same requests again
under the tracer, and reports the per-layer metrics.

    python3 perfbench/run.py --record-references

recomputes ``perfbench/references.json``: the SHA-256 of pass 0 of every
workload at seed 0.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time

from tracer import Tracer
from workloads import WORKLOADS, Check

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 9
# a run stops starting requests this long after its window should have closed
# (a traced run's window counts twice), which with the per-request limits
# keeps a hanging program inside the 180 s a run may take
HARD_STOP_GRACE_S = 40.0


class RequestTimeout(BaseException):
    """Raised by SIGALRM when a request exceeds its workload's limit.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment():
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def loadavg():
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def purge_semistar():
    for name in [n for n in sys.modules if n == "semistar" or n.startswith("semistar.")]:
        del sys.modules[name]


class PassRunner:
    """Runs whole passes of a workload and checks every output."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_s = 0.0
        self.pass_latencies = []  # per whole pass: the latency of each request
        self.pass_ok = []  # per whole pass: requests that completed correctly
        self.judged = 0
        self.decided = 0
        self.passes = 0
        self.problems = []
        self.pass0 = []
        self.pass0_complete = False

    def _call(self, thunk):
        """Run one request under the per-request time limit; returns
        (output, latency, error)."""
        tracer = self.tracer
        signal.setitimer(signal.ITIMER_REAL, self.workload.request_limit_s)
        if tracer:
            tracer.enable(True)
        t0 = time.perf_counter()
        try:
            try:
                return thunk(), time.perf_counter() - t0, None
            finally:
                if tracer:
                    tracer.enable(False)
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            error = f"over the {self.workload.request_limit_s} s limit"
        except Exception as exc:  # any failure of the program counts, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.enable(False)
            tracer.reset_stack()
        return None, time.perf_counter() - t0, error

    def run(self, deadline, seconds=None, passes=None):
        while (self.busy_s < seconds) if passes is None else (self.passes < passes):
            k = self.passes
            latencies = []
            ok = 0
            stopped = False
            for label, thunk in self.workload.requests(k):
                if time.perf_counter() > deadline:
                    self.problems.append(f"hard stop in pass {k}")
                    stopped = True
                    break
                self.attempted += 1
                output, latency, error = self._call(thunk)
                self.busy_s += latency
                latencies.append(latency)
                if error is not None:
                    self.failed += 1
                    self.problems.append(f"{label}: {error}")
                    continue
                try:
                    check = self.workload.check(label, output)
                except Exception as exc:  # malformed output: a wrong answer
                    check = Check(ok=False, canonical=None,
                                  problem=f"{label}: output not checkable: {exc!r}")
                self.judged += check.judged
                self.decided += check.decided
                if check.ok:
                    ok += 1
                else:
                    self.failed += 1
                    self.wrong += 1
                    self.problems.append(check.problem)
                if k == 0:
                    self.pass0.append(check.canonical)
            if latencies:
                self.pass_latencies.append(latencies)
                self.pass_ok.append(ok)
            if stopped:
                return
            if k == 0:
                self.pass0_complete = True
            self.passes += 1

    def reference(self, expected):
        """Digest of pass 0, compared with the committed one at the reference seed."""
        if not self.pass0_complete:
            return {"checked": False, "match": False, "problems": ["pass 0 incomplete"]}
        text, problems = self.workload.reference_text(self.pass0)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        out = {"digest": digest, "checked": expected is not None, "problems": problems}
        out["match"] = not problems and (expected is None or digest == expected)
        return out


def setup_workload(name, seed, src):
    workload = WORKLOADS[name]()
    times = []
    for _ in range(SETUP_REPEATS):
        purge_semistar()
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    loaded = os.path.abspath(sys.modules["semistar"].__file__)
    if not loaded.startswith(src + os.sep):
        raise SystemExit(f"error: semistar was imported from {loaded}, not from {src}")
    return workload, times


def expected_digest(name, seed):
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[name]


def run(args, src):
    load_before = loadavg()
    workload, setup_times = setup_workload(args.workload, args.seed, src)
    expected = expected_digest(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.perf_counter() + (1 + args.trace) * args.seconds + HARD_STOP_GRACE_S
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup_times}
    if not args.trace:
        timed = PassRunner(workload)
        timed.run(deadline, seconds=args.seconds)
        runners = [timed]
    else:
        untraced = PassRunner(workload)
        untraced.run(deadline, seconds=args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            timed = PassRunner(workload, tracer)
            timed.run(deadline, passes=untraced.passes)
        finally:
            tracer.uninstall()
        runners = [untraced, timed]
        detail["untraced_busy_s"] = untraced.busy_s
        detail["trace_top"] = tracer.top_functions()

    references = [r.reference(expected) for r in runners]
    correct = all(r.wrong == 0 for r in runners) and all(ref["match"] for ref in references)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)

    # Throughput and median are medians over whole passes, which keeps a few
    # seconds of contention from neighbours on a shared machine from moving
    # them; the tail is taken over every request of the run.
    per_pass_rate = statistics.median(
        ok / sum(lat) for ok, lat in zip(timed.pass_ok, timed.pass_latencies))
    p50 = statistics.median(nearest_rank(sorted(lat), 50.0)[0] for lat in timed.pass_latencies)
    lat = sorted(x for pass_lat in timed.pass_latencies for x in pass_lat)
    tail_p = workload.tail_percentile
    tail, beyond = nearest_rank(lat, tail_p)
    ok = timed.attempted - timed.failed
    detail.update({
        "input_size": workload.input_size,
        "passes": timed.passes,
        "requests": timed.attempted,
        "failed_ratio": timed.failed / timed.attempted,
        "busy_s": timed.busy_s,
        "latency": {"samples": len(lat), "p50_ms": p50 * 1e3, "tail_percentile": tail_p,
                    "tail_ms": tail * 1e3, "samples_beyond_tail": beyond},
        "reference": references[-1],
        "problems": [p for r in runners for p in r.problems][:20],
        "env": environment() | {"loadavg_before": load_before, "loadavg_after": loadavg()},
    })
    if args.trace:
        metrics = tracer.metrics(timed.busy_s, untraced.busy_s)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "requests_per_s": {"value": per_pass_rate, "unit": "1/s"},
            "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "ok_ratio": {"value": ok / timed.attempted, "unit": "ratio"},
            "decided_ratio": {"value": timed.decided / timed.judged if timed.judged else 1.0,
                              "unit": "ratio"},
        }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_references(src):
    digests = {}
    for name in WORKLOADS:
        workload, _ = setup_workload(name, REFERENCE_SEED, src)
        runner = PassRunner(workload)
        runner.run(math.inf, passes=1)
        ref = runner.reference(None)
        if runner.failed or not ref["match"]:
            raise SystemExit(f"error: {name} pass 0 is not clean: {runner.problems + ref['problems']}")
        digests[name] = ref["digest"]
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "semistar", "__init__.py")):
        print(f"error: no semistar package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.record_references:
        return record_references(src)
    if args.workload is None:
        p.error("--workload is required")
    return run(args, src)


if __name__ == "__main__":
    sys.exit(main())
