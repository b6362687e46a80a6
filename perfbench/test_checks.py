"""The benchmark's own tests: every check fails on a perturbed input.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _ok(result):
    return result[0]


def test_supermedian():
    target = 0.1 ** -0.5
    assert _ok(checks.supermedian(target * (1 + 3.29e-3), target))
    assert not _ok(checks.supermedian(target * 1.01, target))
    assert not _ok(checks.supermedian(target * 0.99, target))


def test_invariance():
    assert _ok(checks.invariance(1.1501, 1.1441))
    assert not _ok(checks.invariance(1.1441 * 1.02, 1.1441))


def test_dominates_free():
    p = [0.1, 0.02, 1e-5]
    assert _ok(checks.dominates_free([0.12, 0.03, 2e-5], p))
    assert not _ok(checks.dominates_free([0.12, 0.019, 2e-5], p))
    assert not _ok(checks.dominates_free([0.12, 0.03], p))


def test_ratios_positive():
    assert _ok(checks.ratios_positive([0.300, 0.527]))
    assert not _ok(checks.ratios_positive([0.300, -0.527]))
    assert not _ok(checks.ratios_positive([0.300, float("nan")]))
    assert not _ok(checks.ratios_positive([0.300, float("inf")]))
    assert not _ok(checks.ratios_positive([]))


def test_duhamel_residual():
    assert _ok(checks.duhamel_residual(7.0e-4))
    assert not _ok(checks.duhamel_residual(7.0e-4 * 1.5))
    assert not _ok(checks.duhamel_residual(float("nan")))


def test_origin_exponent():
    assert _ok(checks.origin_exponent(0.5071, 0.5))
    assert not _ok(checks.origin_exponent(0.5071 * 1.05, 0.5))


def test_mc_two_sided():
    assert _ok(checks.mc_two_sided(1.0 + 4.9e-3, 1e-3, 1.0))
    assert not _ok(checks.mc_two_sided(1.0 + 5.1e-3, 1e-3, 1.0))
    assert not _ok(checks.mc_two_sided(1.0 - 5.1e-3, 1e-3, 1.0))


def test_mc_upper():
    assert _ok(checks.mc_upper(0.9, 1e-3, 1.0))
    assert not _ok(checks.mc_upper(1.0 + 5.1e-3, 1e-3, 1.0))


def test_hardy():
    assert _ok(checks.hardy(2.0, 1.5))
    assert not _ok(checks.hardy(2.0, 2.0 * 1.01))


def test_form_identity():
    e, pot = 5.0, 1.2
    assert _ok(checks.form_identity(e - pot, e, pot))
    assert not _ok(checks.form_identity((e - pot) * 1.01, e, pot))


def test_gaussian_energy():
    assert _ok(checks.gaussian_energy(checks.GAUSSIAN_ENERGY))
    assert not _ok(checks.gaussian_energy(checks.GAUSSIAN_ENERGY * 1.01))


def test_gaps_decreasing():
    assert _ok(checks.gaps_decreasing([0.767, 0.663, 0.583]))
    assert not _ok(checks.gaps_decreasing([0.767, 0.663 * 1.2, 0.583]))
    assert not _ok(checks.gaps_decreasing([0.767, 0.663, -0.583]))


def test_tracer_rebinds_and_nests():
    # weighted_mass calls kernel_t twice; duhamel imported kernel_t by name
    script = (
        "import json, spans\n"
        "from hardyheat import duhamel, stable_kernel\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "assert duhamel.kernel_t is stable_kernel.kernel_t\n"
        "stable_kernel.weighted_mass(1.0, 1.0, 0.5, 2, 1.0)\n"
        "print(json.dumps([t.spans, spans.layer_metrics(t)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    span_list, metrics = json.loads(out.stdout)
    assert [s[0] for s in span_list] == ["weighted_mass", "kernel_t", "kernel_t"]
    assert [s[3] for s in span_list] == [-1, 0, 0]
    assert metrics["stable_kernel.kernel_t.calls"] == 2
    assert metrics["stable_kernel.weighted_mass.calls"] == 1
    total = span_list[0][2] - span_list[0][1]
    children = sum(s[2] - s[1] for s in span_list[1:])
    assert metrics["stable_kernel.weighted_mass.self_s"] == pytest.approx(
        total - children)


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
