"""Smoke test for the benchmark itself: tiny inputs, both modes, every workload.

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import refspeed  # noqa: E402
import treegibbs as tg  # noqa: E402
from inputs import bipartite_core, load_checked, unimodular_core  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert "is not a treegibbs checkout" in out.stderr
    assert '"metrics"' not in out.stdout


@pytest.mark.parametrize("seed", range(20))
def test_generated_cores_validate(seed, tmp_path):
    rng = random.Random(seed)
    for V in (8, 16, 40):
        load_checked(tg, unimodular_core(rng, V), str(tmp_path / f"u{V}.json"))
        g, _ = load_checked(tg, bipartite_core(rng, V), str(tmp_path / f"b{V}.json"))
        assert all(int(g.orig[e][1:]) % 2 != int(g.term[e][1:]) % 2 for e in g.edges)


def test_calibration_uses_kernel_timings_near_the_op():
    clock = refspeed.Clock()
    slow, nominal = 2 * refspeed.NOMINAL_S, refspeed.NOMINAL_S
    clock._kernel = [(0.0, slow), (10.0, nominal), (12.5, nominal), (20.0, slow), (30.0, slow)]
    clock._spans = [(10.5, 12.0), (10.5, 18.5)]
    # a short op is judged by the timings within a second of it
    assert clock.calibrated(0) == pytest.approx(1.5)
    # a long one by the timings within its own length of it: 10.0, 12.5, 20.0
    assert clock.calibrated(1) == pytest.approx(8.0)
