"""Smoke test of the benchmark: every workload at tiny sizes, in both modes.

    python3 -m pytest -q bench/test_smoke.py

Checks that each workload passes its own correctness checks and the
bit-identity guard, emits exactly the metrics BENCHMARK.json names with
their units, and that its traced self times plus the un-spanned remainder
add up to its traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def results():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(results, workload, trace, kind):
    r = results[f"{workload}.trace{trace}"]
    assert sorted(r) == ["attempted", "correct", "failed", "metrics"]
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in r["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in r["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_traced_wall(results, workload):
    m = {name: v["value"] for name, v in results[f"{workload}.trace1"]["metrics"].items()}
    self_times = [v for name, v in m.items() if name.endswith(".s")]
    assert min(self_times) >= 0.0
    assert m["trace.unspanned_s"] >= 0.0
    total = sum(self_times) + m["trace.unspanned_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-3, abs=1e-4)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
