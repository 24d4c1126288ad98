"""Command-line front end: evaluate expressions, run the scenario catalog,
and emit text or JSON reports with a CI-friendly exit code."""

from __future__ import annotations

import argparse
import json
import sys

from . import exprs, scenarios
from .algebra.fields import AlgebraError
from .verdict import SampleSpec


def _render_text(rows) -> str:
    out = []
    current = None
    npass = 0
    for row in rows:
        if row["scenario"] != current:
            current = row["scenario"]
            out.append(f"== scenario {current}")
        mark = row["outcome"]
        out.append(f"  [{mark}] {row['anchor']}: {row['expr_or_predicate']}")
        out.append(f"         expected {row['expected']} | actual {row['actual']}")
        npass += row["outcome"] == "PASS"
    out.append(f"{npass}/{len(rows)} assertions passed")
    return "\n".join(out) + "\n"


def _render_json(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _emit(text: str, rows, report: "str | None", code: int) -> int:
    """Write text to stdout and, when asked, the report as well (JSON for a
    .json path); a report that cannot be written is one error line and exit
    code 2."""
    sys.stdout.write(text)
    if report:
        try:
            with open(report, "w", encoding="utf-8") as fh:
                fh.write(_render_json(rows) if report.endswith(".json") else text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semistar",
        description="exact fractional-ideal closures under semistar operations",
    )
    p.add_argument("--domain", help="path to a domain specification file")
    p.add_argument("--expr", help="ideal expression to evaluate in the domain")
    p.add_argument("--scenario", help="scenario name or 'all'")
    p.add_argument("--suite", action="store_true",
                   help="run the theorem implication lattice over the catalog")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--samples", type=int, default=200, help="sample count")
    p.add_argument("--bound", type=int, default=4, help="generators per sampled ideal")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--report", help="write the report to this path as well")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = SampleSpec(seed=args.seed, count=args.samples, generator_bound=args.bound)

    if args.expr is not None:
        if args.domain is None:
            print("error: --expr needs --domain", file=sys.stderr)
            return 2
        try:
            with open(args.domain, encoding="utf-8") as fh:
                domain = exprs.parse_domain(fh.read())
            ast = exprs.parse_expr(args.expr, domain)
            value = exprs.eval_expr(ast, domain)
        except exprs.ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        except exprs.EvalError as exc:
            print(f"evaluation error: {exc}", file=sys.stderr)
            return 2
        except (AlgebraError, OSError) as exc:  # meaningless (gcd 2, Fp:4, spec{X}) or unreadable
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(repr(value))
        return 0

    if args.scenario is not None:
        if args.scenario not in ["all", *scenarios.scenario_names()]:
            print(f"error: unknown scenario {args.scenario!r}; known: {scenarios.scenario_names()}", file=sys.stderr)
            return 2
        code, rows = scenarios.run_scenarios(args.scenario, spec)
        text = _render_text(rows) if args.format == "text" else _render_json(rows)
        return _emit(text, rows, args.report, code)

    if args.suite:
        from .theorems import theorem_suite

        rows = []
        texts = []
        code = 0
        for domain, ops in scenarios.catalog_instances():
            for op in ops:
                if op.kind == "spec" and op.tag == "P1":
                    continue  # domain-changing; covered by the image instance
                report = theorem_suite(domain, op, spec)
                rows.extend(report.to_rows())
                texts.append(report.render())
                if not report.ok:
                    code = 1
        text = "\n".join(texts) + "\n" if args.format == "text" else _render_json(rows)
        return _emit(text, rows, args.report, code)

    build_parser().print_help()
    return 2


def _entry() -> int:
    try:
        return main()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(_entry())
