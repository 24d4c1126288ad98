"""Byte-identical golden files for the CLI pipeline at seeds 0 and 1.

Regenerate with: GOLDEN_REGEN=1 python3 -m pytest tests/test_goldens.py
"""

from __future__ import annotations

import os
import pathlib

from semistar.cli import _render_json, _render_text
from semistar.exprs import eval_expr, parse_domain, parse_expr, print_expr
from semistar.scenarios import run_scenarios
from semistar.verdict import SampleSpec

from test_exprs import EXPR_CORPUS

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _corpus_report() -> str:
    lines = []
    for domain_text in sorted(EXPR_CORPUS):
        domain = parse_domain(domain_text)
        for text in EXPR_CORPUS[domain_text]:
            ast = parse_expr(text, domain)
            printed = print_expr(ast, domain)
            value = repr(eval_expr(ast, domain))
            lines.append(f"{domain.name}\t{text}\t{printed}\t{value}")
    return "\n".join(lines) + "\n"


def _scenario_reports(seed: int):
    code, rows = run_scenarios("all", SampleSpec(seed=seed, count=200))
    assert code == 0
    return _render_json(rows), _render_text(rows)


def _check_or_regen(name: str, content: str):
    path = GOLDEN_DIR / name
    if os.environ.get("GOLDEN_REGEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(content, encoding="utf-8")
        return
    assert path.exists(), f"missing golden {name}; run with GOLDEN_REGEN=1"
    assert path.read_text(encoding="utf-8") == content, f"golden drift in {name}"


def test_expression_corpus_golden():
    _check_or_regen("corpus_eval.txt", _corpus_report())


def test_scenario_goldens():
    js, text = _scenario_reports(0)
    _check_or_regen("scenarios_seed0.json", js)
    _check_or_regen("scenarios_seed0.txt", text)


def test_scenario_goldens_seed1():
    js, text = _scenario_reports(1)
    _check_or_regen("scenarios_seed1.json", js)
    _check_or_regen("scenarios_seed1.txt", text)


def test_suite_golden(capsys):
    from semistar.cli import main

    main(["--suite", "--samples", "2", "--seed", "0"])
    _check_or_regen("suite_seed0_samples2.txt", capsys.readouterr().out)


def test_suite_golden_samples20(capsys):
    from semistar.cli import main

    main(["--suite", "--samples", "20", "--seed", "0"])
    _check_or_regen("suite_seed0_samples20.txt", capsys.readouterr().out)


def test_suite_golden_seed1_samples60(capsys):
    """One spec serves the whole suite, so every operation of a domain
    replays the streams the first one drew; on the two Q[a]/(a^2-2)
    pullbacks the star-domain checks refute at the landmark M before any
    draw, so the e.a.b. search, a later consumer, is the first to extend
    the fg probe stream."""
    from semistar.cli import main

    main(["--suite", "--samples", "60", "--seed", "1"])
    _check_or_regen("suite_seed1_samples60.txt", capsys.readouterr().out)
