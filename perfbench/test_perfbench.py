"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Traced runs at the same seed must give identical counters, a seed that was
not used while the benchmark was built must run clean, and the benchmark
must refuse to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep-c09", "sweep-c08", "scale", "oracle")
# A seed that no tuning or checking of the benchmark used.
FRESH_SEED = 20_261_017


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_timing(metric: str) -> bool:
    return metric.endswith(("_ms", "_share")) or metric == "trace.overhead_frac"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    counters = {k: v["value"] for k, v in first["metrics"].items() if not is_timing(k)}
    assert counters == {k: v["value"] for k, v in second["metrics"].items() if not is_timing(k)}
    assert first["correct"] and first["failed"] == 0
    assert first["metrics"]["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_seed_runs_clean(workload):
    out = result(bench("--workload", workload, "--seed", str(FRESH_SEED), "--seconds", "2"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {"setup_s", "peak_rss_mb", "op_cost_p50"} == set(out["metrics"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "sweep-c09", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_eleventh_largest():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import tail

    assert tail(range(1, 26)) == (15.0, 60.0, 25)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
