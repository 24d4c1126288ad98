"""The argparse front end: flags, reports, exit codes."""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from semistar.cli import main
from semistar.scenarios import Assertion, Scenario, run_scenario, run_scenarios
from semistar.verdict import SampleSpec


def _domain_file(tmp_path, text) -> str:
    path = tmp_path / "domain.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_expr_evaluation(tmp_path, capsys):
    path = _domain_file(tmp_path, "family=numsgr generators=[3,4,5]")
    code = main(["--domain", path, "--expr", "v(<x^3, x^4> & <x^3, x^5>)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "<x^3>"


def test_expr_requires_domain(capsys):
    assert main(["--expr", "D"]) == 2
    assert "needs --domain" in capsys.readouterr().err


def test_expr_parse_error(tmp_path, capsys):
    path = _domain_file(tmp_path, "family=numsgr generators=[3,4,5]")
    code = main(["--domain", path, "--expr", "v(<x^3>"])
    assert code == 2
    assert "expected" in capsys.readouterr().err


def test_scenario_report_written(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = main(["--scenario", "numsgr-345", "--format", "json", "--report", str(report)])
    assert code == 0
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert rows and all(r["outcome"] == "PASS" for r in rows)
    assert rows == json.loads(capsys.readouterr().out)


def test_unknown_scenario_raises():
    import pytest

    with pytest.raises(KeyError):
        run_scenarios("missing-scenario", SampleSpec())


def test_failing_assertion_gives_nonzero_exit():
    bogus = Scenario(
        name="synthetic",
        domain_text="family=numsgr generators=[3,4,5]",
        assertions=(
            Assertion(anchor="broken", kind="expr_eq", lhs="<x^3>", rhs="<x^4>"),
        ),
    )
    rows = run_scenario(bogus, SampleSpec())
    assert rows[0]["outcome"] == "FAIL"
    code = 0 if all(r["outcome"] == "PASS" for r in rows) else 1
    assert code == 1


def test_suite_mode(tmp_path, capsys):
    report = tmp_path / "suite.json"
    code = main(["--suite", "--samples", "20", "--format", "json", "--report", str(report)])
    assert code == 0
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert {"instance", "op", "check", "anchor", "outcome", "detail"} <= set(rows[0])
    assert not any(r["outcome"] == "violation" for r in rows)
    capsys.readouterr()


def test_no_arguments_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_report_determinism_across_calls():
    spec = SampleSpec(seed=0, count=50)
    _, rows1 = run_scenarios("all", spec)
    _, rows2 = run_scenarios("all", spec)
    assert rows1 == rows2


@pytest.mark.parametrize("text", [
    "family=numsgr gens=[3,4]",
    "family=numsgr generators=[4,6]",
    "family=pullback base_field=Fp:4 group=Z",
    "family=pullback extension=a^2-4 group=Z",
    "family=numsgr generators=[3,x]",
])
def test_bad_domain_file_is_one_line_and_exit_2(tmp_path, capsys, text):
    path = _domain_file(tmp_path, text)
    assert main(["--domain", path, "--expr", "D"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("parse error: ", "error: ")) and err.count("\n") == 1


def test_unknown_scenario_is_one_line_and_exit_2(capsys):
    assert main(["--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scenario 'nope'") and err.count("\n") == 1


def test_missing_domain_file_is_one_line_and_exit_2(tmp_path, capsys):
    assert main(["--domain", str(tmp_path / "missing"), "--expr", "D"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err and err.count("\n") == 1


def test_unknown_tag_in_an_expression_is_one_line_and_exit_2(tmp_path, capsys):
    path = _domain_file(tmp_path, "family=numsgr generators=[3,4,5]")
    assert main(["--domain", path, "--expr", "spec{X}(D)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


HOSTILE = sorted((pathlib.Path(__file__).parent / "hostile").glob("*.domain"))


@pytest.mark.parametrize("path", HOSTILE, ids=[p.stem for p in HOSTILE])
def test_hostile_extension_fails_fast_with_exit_2(path, capsys):
    """A huge constant term over Q, a coefficient literal above its cap,
    degrees far above the caps over Q and F_p, and numerical semigroups
    whose Frobenius number is above its cap, each fail with one line and
    exit code 2 in under a second."""
    start = time.perf_counter()
    assert main(["--domain", str(path), "--expr", "D"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(("parse error: ", "error: ")) and err.count("\n") == 1


HOSTILE_EXPRS = sorted((pathlib.Path(__file__).parent / "hostile").glob("*.expr"))


@pytest.mark.parametrize("path", HOSTILE_EXPRS, ids=[p.stem for p in HOSTILE_EXPRS])
def test_hostile_expression_fails_fast_with_exit_2(path, capsys):
    """Coefficient powers far above the degree cap, plain or nested, fail
    over tests/hostile/fixed_domain.txt with one line and exit code 2 in
    under a second."""
    domain = path.parent / "fixed_domain.txt"
    start = time.perf_counter()
    assert main(["--domain", str(domain), "--expr", path.read_text(encoding="utf-8").strip()]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_huge_irreducible_rational_modulus_is_decided_fast(tmp_path, capsys):
    path = _domain_file(tmp_path, "family=pullback extension=a^2-1000000000000000000000003 group=Z")
    start = time.perf_counter()
    assert main(["--domain", path, "--expr", "D"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.strip() == "<1*t(0)>"
