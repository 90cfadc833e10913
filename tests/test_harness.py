"""Report format, CLI behavior, determinism, and exit-code policy."""

from __future__ import annotations

import json

import pytest

from chernforms.cli import main
from chernforms.report import CheckResult, emit_report
from chernforms.scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario, scenario_is_gating


def _strip_runtime(payload: bytes) -> dict:
    doc = json.loads(payload)
    for check in doc["checks"]:
        check.pop("runtime_ms")
    return doc


def test_empty_report_bytes():
    assert emit_report([]) == b'{"checks":[],"passed":true}'


def test_report_schema_and_ordering():
    results = [
        CheckResult("alpha", "1", "1", 0.0, 0.0, 1e-6, True, 1.0),
        CheckResult("beta", "2", "3", 1.0, 0.5, 1e-6, False, 2.0),
    ]
    doc = json.loads(emit_report(results, scenario="demo", seed=3))
    assert list(doc) == ["version", "scenario", "seed", "checks", "passed"]
    assert doc["version"] == "1"
    assert doc["scenario"] == "demo"
    assert doc["seed"] == 3
    assert [c["check_id"] for c in doc["checks"]] == ["alpha", "beta"]
    assert list(doc["checks"][0]) == [
        "check_id",
        "abs_err",
        "rel_err",
        "tol",
        "passed",
        "runtime_ms",
    ]
    assert doc["passed"] is False


def test_markdown_report_rows():
    results = [CheckResult("alpha", "1", "1", 0.0, 0.0, 1e-6, True, 1.0)]
    text = emit_report(results, format="markdown", scenario="demo", seed=0).decode()
    rows = [line for line in text.splitlines() if line.startswith("| alpha")]
    assert len(rows) == 1
    assert "overall: passed" in text


def test_scenario_registry():
    assert set(SCENARIO_NAMES) == {
        "bott_r2",
        "tstar_s1",
        "product_c2",
        "rank2_thom",
        "rank2_riemann_roch",
        "appendix_bounds",
        "s2_euler",
    }
    assert not scenario_is_gating("s2_euler")
    assert all(scenario_is_gating(n) for n in SCENARIO_NAMES if n != "s2_euler")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("nonesuch")


def test_runs_are_deterministic_modulo_runtime():
    cfg = ScenarioConfig(seed=5)
    a = emit_report(run_scenario("s2_euler", cfg), scenario="s2_euler", seed=5)
    b = emit_report(run_scenario("s2_euler", cfg), scenario="s2_euler", seed=5)
    assert _strip_runtime(a) == _strip_runtime(b)


def test_tol_scale_is_applied():
    strict = run_scenario("s2_euler", ScenarioConfig(tol_scale=1e-18))
    assert not strict[0].passed
    assert strict[0].tol == pytest.approx(1e-4 * 1e-18)


def test_cli_writes_report_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "s2_euler", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["scenario"] == "s2_euler"
    assert doc["passed"] is True


def test_cli_nongating_failure_keeps_exit_zero(tmp_path):
    """The sphere scenario is informational: failing it does not gate."""
    out = tmp_path / "report.json"
    code = main(["verify", "s2_euler", "--tol-scale", "1e-18", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["passed"] is False


def test_cli_gating_failure_sets_exit_one(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "appendix_bounds", "--tol-scale", "1e-18", "--out", str(out)])
    assert code == 1


def test_cli_env_quad_order(tmp_path, monkeypatch):
    monkeypatch.setenv("CHERNFORMS_QUAD_ORDER", "12")
    out = tmp_path / "report.json"
    code = main(["verify", "s2_euler", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_bytes())["passed"] is True


@pytest.mark.parametrize(
    "flags, env",
    [
        (["--seed", "-1"], None),
        (["--quad-order", "0"], None),
        (["--quad-order", "-4"], None),
        (["--tol-scale", "0"], None),
        (["--tol-scale", "-1"], None),
        (["--tol-scale", "nan"], None),
        (["--tol-scale", "inf"], None),
        ([], "0"),
        ([], "-4"),
        ([], "twelve"),
    ],
)
def test_cli_rejects_invalid_settings(tmp_path, monkeypatch, flags, env):
    if env is None:
        monkeypatch.delenv("CHERNFORMS_QUAD_ORDER", raising=False)
    else:
        monkeypatch.setenv("CHERNFORMS_QUAD_ORDER", env)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s2_euler", "--out", str(out), *flags])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}, {"quad_order": 0}, {"quad_order": 2.5}, {"tol_scale": -1.0}, {"tol_scale": float("inf")}],
)
def test_scenario_config_rejects_invalid_settings(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(**kwargs)


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["verify", "nonesuch"])
