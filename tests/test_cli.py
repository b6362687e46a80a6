"""Command-line interface: formats, exit codes, determinism."""

import json

import pytest
from click.testing import CliRunner

from hardyheat.cli import main
from hardyheat.params import kappa_star


@pytest.fixture()
def runner():
    return CliRunner()


def test_kappa_star(runner):
    res = runner.invoke(main, ["kappa", "--d", "3", "--alpha", "1.0",
                               "--kappa-star"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.6366197724, rel=1e-9)


def test_kappa_beta_and_inverse(runner):
    res = runner.invoke(main, ["kappa", "--d", "3", "--alpha", "1.0",
                               "--beta", "0.5"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.5, abs=1e-9)
    res = runner.invoke(main, ["kappa", "--d", "3", "--alpha", "1.0",
                               "--kappa", "0.5"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.5, abs=1e-6)


def test_kappa_curve_csv(runner):
    res = runner.invoke(main, ["kappa", "--d", "3", "--curve", "5"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "beta,kappa_beta"
    assert len(lines) == 6
    # the curve peaks at kappa* in the middle row, beta = (d - alpha) / 2
    mid = lines[3].split(",")
    assert float(mid[0]) == pytest.approx(1.0)
    assert float(mid[1]) == pytest.approx(kappa_star(3, 1.0), rel=1e-9)


def test_kappa_requires_one_mode(runner):
    res = runner.invoke(main, ["kappa"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["kappa", "--beta", "0.3", "--kappa-star"])
    assert res.exit_code == 2


def test_kernel_json(runner):
    res = runner.invoke(main, ["kernel", "--t", "1", "--x", "1,0",
                               "--y", "-1,0"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["schema"] == 1
    assert doc["value"] == pytest.approx(0.014235250868343541, rel=1e-12)
    assert "runtime" not in doc


def test_kernel_bad_point(runner):
    res = runner.invoke(main, ["kernel", "--t", "1", "--x", "nope",
                               "--y", "0,0"])
    assert res.exit_code == 2


def test_kernel_bad_alpha(runner):
    res = runner.invoke(main, ["kernel", "--alpha", "2.5", "--t", "1",
                               "--x", "1,0", "--y", "0,1"])
    assert res.exit_code == 2


def test_series_zero_coupling(runner):
    res = runner.invoke(main, ["series", "--kappa", "0", "--t", "1",
                               "--x", "1,0", "--y", "-1,0"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["converged"] is True
    assert len(doc["terms"]) == 1


def test_series_supercritical_rejected(runner):
    res = runner.invoke(main, ["series", "--kappa", "supercritical:1.5",
                               "--t", "1", "--x", "1,0", "--y", "-1,0"])
    assert res.exit_code == 2


def test_coupling_exclusive(runner):
    res = runner.invoke(main, ["series", "--kappa", "0.1", "--delta", "0.2",
                               "--t", "1", "--x", "1,0", "--y", "-1,0"])
    assert res.exit_code == 2


def test_mc_deterministic(runner, tmp_path):
    args = ["mc", "--kappa", "0.1", "--t", "1", "--x", "1,0",
            "--beta", "0.5", "--paths", "2000", "--steps", "30",
            "--seed", "7"]
    a = runner.invoke(main, args + ["--output", str(tmp_path / "a.json")])
    b = runner.invoke(main, args + ["--output", str(tmp_path / "b.json")])
    assert a.exit_code == 0 and b.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["seed"] == 7
    assert doc["std_error"] > 0.0


def test_mc_seed_changes_output(runner):
    args = ["mc", "--kappa", "0.1", "--t", "1", "--x", "1,0",
            "--beta", "0.5", "--paths", "2000", "--steps", "30"]
    a = runner.invoke(main, args + ["--seed", "7"])
    b = runner.invoke(main, args + ["--seed", "8"])
    assert json.loads(a.output)["mean"] != json.loads(b.output)["mean"]


@pytest.mark.slow
def test_verify_blowup_supercritical(runner):
    res = runner.invoke(main, ["verify", "--suite", "blowup",
                               "--kappa", "supercritical:1.05"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["status"] == "pass"
    assert doc["report"]["diverged"] is True


def test_verify_blowup_critical_guard(runner):
    res = runner.invoke(main, ["verify", "--suite", "blowup",
                               "--kappa", "critical"])
    assert res.exit_code == 2


@pytest.mark.slow
def test_verify_supermedian_suite(runner):
    res = runner.invoke(main, ["verify", "--suite", "supermedian",
                               "--kappa", "0.1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["status"] == "pass"
    assert all(r["status"] == "pass" for r in doc["results"])
    assert all("runtime" not in r for r in doc["results"])


def test_budget_exceeded(runner):
    res = runner.invoke(main, ["verify", "--suite", "supermedian",
                               "--kappa", "0.1", "--budget", "0.0"])
    assert res.exit_code == 3
