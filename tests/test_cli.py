"""Command-line interface: formats, exit codes, determinism."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hardyheat import duhamel
from hardyheat.cli import main
from hardyheat.params import kappa_star
from hardyheat.stable_kernel import levy_constant


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


@pytest.mark.parametrize("args", [["bounds"], ["verify", "--suite", "chapman"]])
def test_unconverged_fixed_point_exits_1(runner, unconverged_engines, args):
    res = runner.invoke(main, args + ["--kappa", "critical"])
    assert res.exit_code == 1
    assert "not converged" in res.stderr


def test_budget_exceeded(runner):
    res = runner.invoke(main, ["verify", "--suite", "supermedian",
                               "--kappa", "0.1", "--budget", "0.0"])
    assert res.exit_code == 3
    # the budget is checked before the first check runs
    doc = json.loads(res.stdout)
    assert doc["status"] == "budget_exceeded"
    assert doc["results"] == []


def test_removed_options_rejected(runner):
    res = runner.invoke(main, ["kernel", "--t", "1", "--x", "1,0",
                               "--y", "-1,0", "--format", "csv"])
    assert res.exit_code == 2
    assert "No such option" in res.output
    res = runner.invoke(main, ["kappa", "--kappa-star", "--budget", "1"])
    assert res.exit_code == 2


def test_kappa_scalar_output_file(runner, tmp_path):
    out = tmp_path / "kappa.txt"
    res = runner.invoke(main, ["kappa", "--kappa-star", "--output", str(out)])
    assert res.exit_code == 0
    assert res.stdout == ""
    assert float(out.read_text()) == pytest.approx(kappa_star(2, 1.0),
                                                   rel=1e-9)


def test_unwritable_output(runner, tmp_path):
    res = runner.invoke(main, ["kernel", "--t", "1", "--x", "1,0",
                               "--y", "-1,0", "--output",
                               str(tmp_path / "missing" / "f.json")])
    assert res.exit_code == 2
    assert not isinstance(res.exception, FileNotFoundError)


@pytest.mark.parametrize("args", [
    # points must have d coordinates
    ["kernel", "--t", "1", "--x", "1,0,0", "--y", "1,0"],
    ["mc", "--d", "3", "--kappa", "0.1", "--t", "1", "--x", "1,0",
     "--beta", "0.5"],
    # unparsable couplings
    ["series", "--kappa", "abc", "--t", "1", "--x", "1,0", "--y", "-1,0"],
    ["series", "--kappa", "subcritical:x", "--t", "1", "--x", "1,0",
     "--y", "-1,0"],
    # non-finite times
    ["kernel", "--t", "nan", "--x", "1,0", "--y", "-1,0"],
    ["mc", "--kappa", "0.1", "--t", "nan", "--x", "1,0", "--beta", "0.5"],
    ["series", "--kappa", "0", "--t", "inf", "--x", "1,0", "--y", "-1,0"],
    # the Chapman-Kolmogorov reference is planar
    ["verify", "--suite", "chapman", "--kappa", "0", "--d", "3"],
    ["kappa", "--kappa", "nan"],
    # p_t(0) = t^{-d/alpha} p_1(0) overflows a float
    ["kernel", "--t", "1e-200", "--x", "0,0", "--y", "0,0"],
    # a curve too long to allocate
    ["kappa", "--curve", "100000000000"],
])
def test_bad_input_exits_2(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)


# far out in the tail, where the unit-time density underflows
_FAR_TAIL = [
    ["kernel", "--t", "1e-150", "--x", "1,0", "--y", "0,0"],
    ["kernel", "--alpha", "1.5", "--t", "1", "--x", "1e100,0", "--y", "0,0"],
    ["kernel", "--alpha", "1.5", "--t", "1e-200", "--x", "1,0", "--y", "0,0"],
    # t^{-d/alpha} overflows, the value does not
    ["kernel", "--t", "1e-200", "--x", "1,0", "--y", "0,0"],
]


def test_kernel_far_tail(runner):
    # leading tail term A t |x|^{-d-alpha}; A = 1 / (2 pi) at alpha = 1
    values = []
    for args in _FAR_TAIL:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        values.append(json.loads(res.output)["value"])
    assert values[0] == pytest.approx(1e-150 / (2.0 * math.pi), rel=1e-14)
    assert values[1] == 0.0
    assert values[2] == pytest.approx(levy_constant(2, 1.5) * 1e-200, rel=1e-6)
    assert values[3] == pytest.approx(1e-200 / (2.0 * math.pi), rel=1e-14)


def test_kernel_at_a_tiny_point(runner):
    # the squares of the coordinates underflow, the radius 1e-170 does not
    res = runner.invoke(main, ["kernel", "--t", "1e-300", "--x", "1e-170,0",
                               "--y", "0,0"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["value"] == pytest.approx(
        1.5915494309192622e+209, rel=1e-14)


def test_kernel_tail_series_error_is_positive(runner):
    # the tail series' last term underflows to 0 here; the error is floored
    # at the rounding of the value instead
    res = runner.invoke(main, ["kernel", "--alpha", "1.5", "--d", "3",
                               "--t", "1e-100", "--x", "1,0,0",
                               "--y", "0,0,0"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["value"] == 1.1905056737671743e-101
    assert 0.0 < doc["abs_error"] <= 1e-15 * doc["value"]


@pytest.mark.slow
def test_verify_invariance_in_three_dimensions(runner, monkeypatch):
    # a private engine cache, so that the two d = 3 engines evict none of the
    # d = 2 engines that later tests reuse
    monkeypatch.setattr(duhamel, "_RADIAL_CACHE", {})
    res = runner.invoke(main, ["verify", "--suite", "invariance", "--d", "3",
                               "--kappa", "0.1", "--paths", "2000"])
    # the points carry d coordinates (they were planar and failed to reshape)
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert [r["name"] for r in doc["results"]] == ["invariance",
                                                   "invariance_mc"]


_COUPLINGS = ["0", "0.1", "critical", "supercritical:1.5", "subcritical:x",
              "abc"]
# couplings that build no engine in series at d = 2
_SERIES_COUPLINGS_2D = ["0", "supercritical:1.5", "subcritical:x", "abc"]


def _pick(draw, good: list, bad: list) -> str:
    """A value from good, or from bad one time in four."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))


def _time(draw) -> str:
    return _pick(draw, ["1", "2.5", "1e-150"], ["-1", "0", "nan", "inf", "1e-200"])


def _point(draw, d: int) -> str:
    """A point with d coordinates, or one with the wrong number, or junk."""
    n = d if draw(st.integers(0, 3)) else draw(st.integers(1, 5))
    coords = draw(st.lists(st.sampled_from(["1", "-0.5", "0", "2", "1e100"]),
                           min_size=n, max_size=n))
    return _pick(draw, [",".join(coords)], ["nan,0", "inf,1", "nope", "",
                                            "1,,0"])


@st.composite
def _argv(draw):
    """A CLI argument vector whose run builds no engine."""
    d = draw(st.integers(1, 4))
    cmd = draw(st.sampled_from(["kappa", "kernel", "mc", "series",
                                "verify"]))
    if cmd == "kappa":
        mode = draw(st.sampled_from([
            ["--kappa-star"],
            ["--beta", _pick(draw, ["0.5"], ["-1", "nan", "1"])],
            ["--kappa", _pick(draw, ["0.1"], _COUPLINGS + ["nan"])],
            ["--curve", str(draw(st.integers(-1, 200)))],
            [],
        ]))
        argv = ["kappa"] + mode + _pick(draw, [[]], [["--budget", "1"]])
    elif cmd == "kernel":
        argv = (["kernel", "--t", _time(draw), "--x", _point(draw, d),
                 "--y", _point(draw, d)]
                + draw(st.sampled_from([[], ["--alpha", "1.5"]]))
                + _pick(draw, [[]], [["--format", "csv"]]))
    elif cmd == "mc":
        argv = ["mc", "--kappa", _pick(draw, ["0", "0.1", "critical"],
                                       _COUPLINGS[3:]),
                "--t", _time(draw), "--x", _point(draw, d),
                "--beta", _pick(draw, ["0.5", "0"], ["-1"]),
                "--paths", str(draw(st.integers(1, 50))),
                "--steps", str(draw(st.integers(1, 3)))]
    elif cmd == "series":
        couplings = _SERIES_COUPLINGS_2D if d == 2 else _COUPLINGS
        argv = ["series", "--kappa", _pick(draw, ["0"], couplings[1:]),
                "--t", _time(draw), "--x", _point(draw, d),
                "--y", _point(draw, d)]
    else:
        argv = ["verify", "--suite", "blowup", "--kappa", "critical"]
    output = _pick(draw, [[], ["--output", "out"]],
                   [["--output", "missing/out"]])
    return argv + ["--d", str(d)] + output


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=_FAR_TAIL[0])
@example(argv=_FAR_TAIL[1])
@example(argv=_FAR_TAIL[2])
@example(argv=_FAR_TAIL[3])
def test_cli_never_tracebacks(runner, tmp_path, argv):
    """Every exit code is in {0, 1, 2, 3}, and no run ends in a traceback."""
    if "--output" in argv:
        argv[-1] = str(tmp_path / argv[-1])
    res = runner.invoke(main, argv)
    assert res.exit_code in (0, 1, 2, 3), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (argv, res.exception)
    # the free kernel has a value for every finite input
    if argv[0] == "kernel":
        assert res.exit_code != 1, (argv, res.output)
