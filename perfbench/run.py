"""Benchmark of the hetnet_maxmin package, one workload per invocation.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep-c09 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The package is imported from the checkout's ``src/``; without it the script
exits with code 2 before measuring anything.  ``--trace 0`` measures the
end-to-end metrics with untouched package code; ``--trace 1`` runs a fixed
number of operations twice, plain and then with every public function
wrapped (see ``tracing.py``), and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results, the environment and the trace spans
are also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 3
WORKLOAD_NAMES = ("sweep-c09", "sweep-c08", "scale", "oracle")


def visible_cores() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap the BLAS thread pools at the visible core count (before numpy loads)."""
    cap = visible_cores()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() and int(current) > 0 else cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    cores = visible_cores()
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": blas_threads,
        "jobs": 1,
        "jobs_scaling": f"not measured: every workload runs jobs=1 in one process ({cores} cores visible)",
    }


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up of fresh interpreters: import the package and run one warm-up operation.

    Returns the CPU seconds (user + system) and the wall seconds of each
    probe process.
    """
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=150,
        )
        wall.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        cpu.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return cpu, wall


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_share", "_ratio", "_frac", "gap_mean")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if "iters" in metric:
        return "iterations"
    if metric.endswith("rounds_mean"):
        return "rounds"
    if metric.endswith("bids_mean"):
        return "bids"
    return "count"


def timed_run(workload, args, work: Path, setup):
    from workloads import Outcome, Stop

    out = Outcome()
    workload.run(args.seed, Stop(seconds=args.seconds), work, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_cpu, setup_wall = setup
    metrics = {
        "setup_s": (statistics.median(setup_cpu), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_cost_p50": (out.op_cost(), "ref"),
    }
    named = {
        "setup_s": (metrics["setup_s"][0], "s", {"probes_cpu_s": setup_cpu}),
        "setup_wall_s": (statistics.median(setup_wall), "s", {"probes_wall_s": setup_wall}),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": (out.failed / out.attempted, "ratio"),
        "op_cpu_ms_p50": (out.op_cpu_p50(), "ms"),
        "reference_ms_mean": (statistics.fmean(out.ref_ms), "ms", {"samples": len(out.ref_ms)}),
        **workload.named_metrics(out),
    }
    return out, metrics, named


def traced_run(workload, args, work: Path):
    from tracing import Tracer, layer_metrics
    from workloads import Outcome, Stop

    ops = workload.traced_ops(args.seconds)
    plain = Outcome()
    start = time.perf_counter()
    workload.run(args.seed, Stop(ops=ops), work, plain)
    plain_s = time.perf_counter() - start - plain.ref_s

    tracer = Tracer()
    traced = Outcome()
    tracer.install()
    try:
        start = time.perf_counter()
        workload.run(args.seed, Stop(ops=ops), work, traced, tracer=tracer)
        traced_s = time.perf_counter() - start - traced.ref_s
    finally:
        tracer.uninstall()
    tracer.write_json(OUT_DIR / f"trace-{workload.name}.json")

    layers = layer_metrics(tracer, traced_s, traced.counts)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    layers["fail_frac"] = (plain.failed + traced.failed) / (plain.attempted + traced.attempted)
    both = Outcome(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        violations=plain.violations + traced.violations,
        messages=plain.messages + traced.messages,
    )
    named = {"trace.operations": (ops, "count"), "trace.plain_s": (plain_s, "s"), "trace.traced_s": (traced_s, "s")}
    return both, {k: (float(v), unit_of(k)) for k, v in layers.items()}, named


def run_all(args) -> int:
    """Run every workload in its own process and print the named metrics together."""
    correct, attempted, failed, named = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct, attempted, failed = correct and last["correct"], attempted + last["attempted"], failed + last["failed"]
        detail = json.loads(result_path(name, args).read_text())
        for metric, entry in detail["named"].items():
            key = f"{name}.{metric}"
            named[key] = {"value": entry["value"], "unit": entry["unit"]}
            print(f"{key:36s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": named}))
    return 0


def result_path(name: str, args) -> Path:
    return OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="import and warm up only (set-up timing)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hetnet_maxmin" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import hetnet_maxmin

    if Path(hetnet_maxmin.__file__).resolve().parent != SRC / "hetnet_maxmin":
        print(f"perfbench: imported {hetnet_maxmin.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = OUT_DIR / "work" / (f"probe-{workload.name}" if args.setup_probe else workload.name)
    work.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        workload.warmup(work)
        return 0

    if args.trace:
        workload.warmup(work)
        out, metrics, named = traced_run(workload, args, work)
    else:
        setup = measure_setup(workload.name)
        workload.warmup(work)
        out, metrics, named = timed_run(workload, args, work, setup)

    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    env = environment(args.seed, blas_threads)
    detail = {
        "workload": workload.name,
        "environment": env,
        "attempted": out.attempted,
        "failed": out.failed,
        "violations": out.violations,
        "messages": out.messages,
        "named": {k: {"value": v[0], "unit": v[1], **(v[2] if len(v) > 2 else {})} for k, v in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_path(workload.name, args).write_text(json.dumps(detail, indent=2))

    print(f"# environment: {json.dumps(env)}")
    for key, entry in detail["named"].items():
        print(f"# {key:26s} {entry['value']:14.6g} {entry['unit']}")
    for message in out.messages:
        print(f"# check failed: {message}")
    print(
        json.dumps(
            {
                "correct": out.violations == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": detail["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
