"""The benchmark's workloads.

Each workload is a closed loop: one caller runs an operation, waits for it,
checks its output and runs the next, single-process with ``jobs=1``.  All
inputs derive from the seed; the package receives only the generated
inputs.  A run stops at a deadline (timed runs) or after a fixed number of
operations (traced runs, whose counters must repeat exactly).

Failures are counted from the raw outcomes, never from ``MeanCell``: an
``error:`` note, ``converged=False``, a CLI exit 1 or ``"converged": false``
in a CLI document.  An ``aufp`` ``status=infeasible`` is a valid answer.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np

from hetnet_maxmin import cli, harness, oracle, scenario, twostage
from hetnet_maxmin.oracle import CnfFormula
from hetnet_maxmin.scenario import ScenarioConfig

from tracing import Tracer, candidate_count

# Seeds of different runs never share a trial: run seed s draws trial seeds
# from [s * SEED_STRIDE, (s + 1) * SEED_STRIDE).
SEED_STRIDE = 1_000_000
# Inputs of the warm-up operation, identical for every seed so that set-up
# time does not depend on the seed.
WARMUP_SEED = 0
# Wall seconds between two runs of the reference kernel inside a closed loop.
# The machine's speed changes within tens of milliseconds, so the kernel runs
# often (about 5 % of a run) and its mean, not its median, is the speed.
REFERENCE_EVERY_S = 0.1

_REF_RNG = np.random.default_rng(20140710)
_REF_GAIN = _REF_RNG.random((24, 24)) + np.eye(24)
_REF_DIRECT = np.diag(_REF_GAIN).copy()
_REF_OWNER = _REF_RNG.integers(0, 8, 24)


def reference_ms() -> float:
    """Process-CPU milliseconds of a fixed kernel that uses no package code.

    It is shaped like the package's inner loops: normalized fixed-point
    steps on small arrays, then a Python-level nearest-centre rejection
    loop.  On a shared machine its time follows the machine's speed, so an
    operation's time divided by it cancels the drift that CPU time alone
    keeps.
    """
    start = time.process_time()
    p = np.ones(24)
    for _ in range(200):
        m = (_REF_GAIN @ p - _REF_DIRECT * p + 1.0) / _REF_DIRECT
        p = m / np.max(np.bincount(_REF_OWNER, weights=m, minlength=8))
    rng = np.random.default_rng(0)
    centres = _REF_GAIN[:8, :2]
    for _ in range(200):
        int(np.argmin(((centres - rng.random(2)) ** 2).sum(axis=1)))
    return (time.process_time() - start) * 1e3


@dataclass
class Stop:
    """When a closed loop ends: ``seconds`` after ``start()``, or after ``ops`` operations."""

    seconds: float | None = None
    ops: int | None = None
    _deadline: float = 0.0

    def start(self) -> None:
        self._deadline = time.perf_counter() + (self.seconds or 0.0)

    def more(self, done: int) -> bool:
        if self.ops is not None:
            return done < self.ops
        return time.perf_counter() < self._deadline


@dataclass
class Outcome:
    """What one run of a workload measured and found.

    ``op_ms`` holds the wall time of each operation and ``op_cpu_ms`` its
    process-CPU time, by part of the operation (one part, ``""``, unless an
    operation is timed in parts).  ``ref_ms`` holds the times of the
    reference kernel run between operations and ``ref_s`` the wall time
    spent in it; ``sweep_s`` is the wall time of the sweeps without it.
    """

    op_ms: list[float] = field(default_factory=list)
    op_cpu_ms: dict[str, list[float]] = field(default_factory=dict)
    ref_ms: list[float] = field(default_factory=list)
    ref_s: float = 0.0
    sweep_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    violations: int = 0
    messages: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    _last_reference: float = float("-inf")

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def record(self, timer: "Timer", part: str = "") -> None:
        self.op_ms.append(timer.wall_ms)
        self.op_cpu_ms.setdefault(part, []).append(timer.cpu_ms)

    def between_ops(self) -> None:
        """Run the reference kernel when ``REFERENCE_EVERY_S`` have passed since the last run."""
        now = time.perf_counter()
        if now - self._last_reference >= REFERENCE_EVERY_S:
            self.ref_ms.append(reference_ms())
            self._last_reference = time.perf_counter()
            self.ref_s += self._last_reference - now

    def op_cpu_p50(self) -> float:
        """Median CPU milliseconds of an operation, summed over its parts."""
        return sum(median(v) for v in self.op_cpu_ms.values())

    def op_cost(self) -> float:
        """``op_cpu_p50`` over the mean time of the reference kernel."""
        return self.op_cpu_p50() / float(np.mean(self.ref_ms))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Timer:
    """Wall and process-CPU milliseconds of the ``with`` block."""

    def __enter__(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall_ms = (time.perf_counter() - self._wall) * 1e3
        self.cpu_ms = (time.process_time() - self._cpu) * 1e3
        return False


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    That is the eleventh-largest sample; with ten or fewer samples it is the
    largest, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def _cell_failed(cell) -> bool:
    return cell.min_sinr is None or cell.converged is not True or (cell.note or "").startswith("error:")


class Sweep:
    """``harness.monte_carlo`` then ``export_csv``, over chunks of trials.

    One operation is one ``run_trial`` call, timed by a wrapper around
    ``harness.run_trial``, the name ``monte_carlo`` calls it through.  The
    sweep's wall time, export included, gives the throughput.
    """

    op_kind = "sweep"

    def __init__(self, name, config, snr_db, algorithms, runs_per_chunk, chunks_per_s):
        self.name = name
        self.config = config
        self.snr_db = tuple(snr_db)
        self.algorithms = tuple(algorithms)
        self.runs_per_chunk = runs_per_chunk
        self.chunks_per_s = chunks_per_s

    def spec(self, seed: int, chunk: int, n_runs: int | None = None) -> harness.ExperimentSpec:
        n_runs = n_runs or self.runs_per_chunk
        return harness.ExperimentSpec(
            scenario=self.config,
            snr_db=self.snr_db,
            algorithms=self.algorithms,
            n_runs=n_runs,
            seed_base=seed * SEED_STRIDE + chunk * n_runs,
        )

    def warmup(self, work: Path) -> None:
        harness.run_trial(self.spec(WARMUP_SEED, 0, 1), 0, self.snr_db[-1])

    def traced_ops(self, seconds: float) -> int:
        """Sweep chunks of a traced run."""
        return max(2, round(seconds * self.chunks_per_s))

    def run(self, seed, stop, work, out, tracer=None):
        original = harness.run_trial

        def timed_trial(*args, **kwargs):
            with Timer() as t:
                record = original(*args, **kwargs)
            out.record(t)
            out.between_ops()
            return record

        records = []
        path = work / f"{self.name}.csv"
        harness.run_trial = timed_trial
        try:
            chunk = 0
            stop.start()
            while stop.more(chunk):
                reference_s = out.ref_s
                with Timer() as t, _op(tracer, self.op_kind):
                    result = harness.monte_carlo(self.spec(seed, chunk), jobs=1)
                    harness.export_csv(result, path)
                out.sweep_s += t.wall_ms / 1e3 - (out.ref_s - reference_s)
                records.extend(result.records)
                chunk += 1
        finally:
            harness.run_trial = original
        out.attempted += len(records)
        out.failed += sum(any(_cell_failed(c) for c in r.cells.values()) for r in records)
        self.check(records, out)

    def check(self, records, out: Outcome) -> None:
        raise NotImplementedError

    def named_metrics(self, out: Outcome) -> dict:
        value, pct, n = tail(out.op_ms)
        return {
            "trials_per_s": (out.attempted / out.sweep_s, "1/s"),
            "trial_ms_p50": (median(out.op_ms), "ms"),
            "trial_ms_tail": (value, "ms", {"percentile": pct, "samples": n}),
        }


class SweepC09(Sweep):
    def __init__(self):
        super().__init__(
            "sweep-c09",
            ScenarioConfig(n_macro=9, picos_per_macro=1, n_users=18, snr_db=15.0, user_dist="uni_in_cell"),
            (15.0,),
            ("aufp", "dlsuma"),
            runs_per_chunk=10,
            chunks_per_s=0.6,
        )

    def check(self, records, out):
        for r in records:
            a, d = r.cells["aufp"].min_sinr, r.cells["dlsuma"].min_sinr
            if a is not None and d is not None and a >= 1.0 and d >= 1.0:
                out.check(abs(a - d) <= 1e-6, f"seed {r.seed}: |aufp - dlsuma| = {abs(a - d):.3g} > 1e-6")


class SweepC08(Sweep):
    def __init__(self):
        super().__init__(
            "sweep-c08",
            ScenarioConfig(n_macro=4, picos_per_macro=2, n_users=18, user_dist="uni_in_cell"),
            (5.0, 15.0, 25.0, 35.0),
            ("maxsnr", "dlsuma", "ulsuma"),
            runs_per_chunk=3,
            chunks_per_s=0.8,
        )

    def check(self, records, out):
        for r in records:
            d, u = r.cells["dlsuma"].min_sinr, r.cells["ulsuma"].min_sinr
            if d is not None and u is not None:
                out.check(d <= u + 1e-9, f"seed {r.seed} @ {r.snr_db:g} dB: dlsuma {d!r} > ulsuma {u!r}")
        for snr in self.snr_db:
            at = [r for r in records if r.snr_db == snr]
            means = {}
            for alg in self.algorithms:
                ok = [r.cells[alg].min_sinr for r in at if not _cell_failed(r.cells[alg])]
                means[alg] = float(np.mean(ok)) if ok else math.nan
            out.check(
                means["maxsnr"] < means["dlsuma"] <= means["ulsuma"],
                f"{snr:g} dB: mean ordering maxsnr < dlsuma <= ulsuma fails: {means}",
            )


class Scale:
    """In-process ``hetnet-maxmin gen``, then ``solve --alg dlsuma`` on the written JSON.

    One operation is one round: the command pair at N = K = 18 (9 + 9 BSs),
    57 (19 macros x 3 BSs) and 100 (25 macros x 4 BSs), all ``uni_in_cell``
    at 35 dB, each size on a fresh draw.  Each size's pair is timed as a
    part of the round.
    """

    name = "scale"
    op_kind = "cli"
    LAYOUTS = ((9, 1), (19, 2), (25, 3))

    def __init__(self):
        self.configs = [
            ScenarioConfig(n_macro=m, picos_per_macro=p, n_users=m * (1 + p), snr_db=35.0, user_dist="uni_in_cell")
            for m, p in self.LAYOUTS
        ]

    def traced_ops(self, seconds: float) -> int:
        return max(2, round(seconds * 0.4))

    def warmup(self, work: Path) -> None:
        self._round(WARMUP_SEED, work, Outcome())

    def _invoke(self, args) -> tuple[int, float]:
        """Exit code and wall milliseconds of one in-process CLI command."""
        start = time.perf_counter()
        try:
            cli.main.main(args=args, prog_name="hetnet-maxmin", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else int(exc.code)
        except click.ClickException:
            code = 1
        return code, (time.perf_counter() - start) * 1e3

    def _round(self, trial_seed: int, work: Path, out: Outcome) -> None:
        for config in self.configs:
            size = config.n_users
            config_path = work / f"n{size}-config.json"
            net_path = work / f"n{size}-net.json"
            sol_path = work / f"n{size}-solve.json"
            if not config_path.exists():
                config_path.write_text(json.dumps(scenario.scenario_to_json(config)))
            net_path.unlink(missing_ok=True)
            sol_path.unlink(missing_ok=True)
            with Timer() as t:
                code_gen, gen_ms = self._invoke(
                    ["gen", "--config", str(config_path), "--seed", str(trial_seed), "--out", str(net_path)]
                )
                code_solve, solve_ms = self._invoke(
                    ["solve", "--net", str(net_path), "--alg", "dlsuma", "--out", str(sol_path)]
                )
            out.record(t, part=f"n{size}")
            out.between_ops()
            out.sample(f"gen_ms.n{size}", gen_ms)
            out.sample(f"solve_ms.n{size}", solve_ms)
            written = [p for p in (net_path, sol_path) if p.exists()]
            out.add("cli.out_bytes", sum(p.stat().st_size for p in written))
            doc = json.loads(sol_path.read_text()) if sol_path.exists() else {}
            out.attempted += 1
            out.failed += code_gen != 0 or code_solve != 0 or doc.get("converged") is not True
            if doc:
                out.check(
                    doc["min_sinr"] <= doc["upper_bound"],
                    f"n{size} seed {trial_seed}: min_sinr {doc['min_sinr']!r} > upper_bound {doc['upper_bound']!r}",
                )

    def run(self, seed, stop, work, out, tracer=None):
        done = 0
        stop.start()
        while stop.more(done):
            with _op(tracer, self.op_kind):
                self._round(seed * SEED_STRIDE + done, work, out)
            done += 1

    def named_metrics(self, out: Outcome) -> dict:
        named = {}
        for config in self.configs:
            size = config.n_users
            named[f"gen_ms_p50.n{size}"] = (median(out.samples[f"gen_ms.n{size}"]), "ms")
            named[f"solve_ms_p50.n{size}"] = (median(out.samples[f"solve_ms.n{size}"]), "ms")
        return named


# (variables, clauses) of the SAT formulas, taken in turn.  Gadget cost grows
# about twentyfold from (1, 1) to (3, 3), so a fixed mix of shapes keeps the
# median operation from jumping between shapes from one seed to the next.
FORMULA_SHAPES = tuple(itertools.product((1, 2, 3), (1, 2, 3)))


def sample_formula(rng: np.random.Generator, n_vars: int, n_clauses: int) -> CnfFormula:
    """A random 3-CNF of the given shape; some clauses are all one sign."""
    clauses = []
    for _ in range(n_clauses):
        heads = [int(rng.integers(1, n_vars + 1)) for _ in range(3)]
        if rng.random() < 0.45:
            sign = 1 if rng.random() < 0.5 else -1
            clauses.append(tuple(sign * v for v in heads))
        else:
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in heads))
    return CnfFormula(n_vars=n_vars, clauses=tuple(clauses))


def truth_table_sat(formula: CnfFormula) -> bool:
    """Satisfiability by trying all 2^n assignments."""
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in formula.clauses)
        for bits in itertools.product((False, True), repeat=formula.n_vars)
    )


class Oracle:
    """``verify_sat_equivalence`` on small formulas, after brute force on HetNet draws.

    Each run first solves ``BRUTE_DRAWS`` HetNet draws (1 macro + 2 picos,
    6 users, 25 dB: 729 associations) by brute force and compares each with
    ``dlsuma`` and its bound.  Then one operation is one SAT check, until
    the run's time is up but at least ``MIN_SAT_OPS`` of them.
    """

    name = "oracle"
    op_kind = "sat"
    BRUTE_DRAWS = 2
    MIN_SAT_OPS = 200
    HETNET = ScenarioConfig(n_macro=1, picos_per_macro=2, n_users=6, snr_db=25.0, user_dist="uni_in_cell")

    def traced_ops(self, seconds: float) -> int:
        return max(2, round(seconds * 12.0))

    def warmup(self, work: Path) -> None:
        oracle.verify_sat_equivalence(CnfFormula(n_vars=1, clauses=((1, 1, 1),)), tol=1e-6)

    def _brute(self, trial_seed: int, out: Outcome, tracer) -> None:
        with _op(tracer, "brute"):
            net = scenario.generate_hetnet(replace(self.HETNET, seed=trial_seed)).network
            start = time.perf_counter()
            best = oracle.brute_force_optimum(net)
            brute_ms = (time.perf_counter() - start) * 1e3
            two = twostage.dlsuma(net)
        out.sample("brute_ms", brute_ms)
        out.add("candidates", candidate_count(net))
        out.add("brute_s", brute_ms / 1e3)
        out.attempted += 1
        out.failed += not (best.converged and two.result.converged)
        d, b, u = two.result.min_sinr, best.min_sinr, two.upper_bound
        out.check(
            d <= b * (1 + 1e-6) <= u * (1 + 1e-6),
            f"draw {trial_seed}: dlsuma {d!r} <= brute {b!r} <= bound {u!r} fails",
        )

    def run(self, seed, stop, work, out, tracer=None):
        stop.start()
        for i in range(self.BRUTE_DRAWS):
            self._brute(seed * SEED_STRIDE + i, out, tracer)
        rng = np.random.default_rng(seed)
        shapes = itertools.cycle(FORMULA_SHAPES)
        done = 0
        while stop.more(done) or (stop.ops is None and done < self.MIN_SAT_OPS):
            formula = sample_formula(rng, *next(shapes))
            with Timer() as t, _op(tracer, self.op_kind):
                report = oracle.verify_sat_equivalence(formula, tol=1e-6)
            out.record(t)
            out.between_ops()
            out.attempted += 1
            expected = truth_table_sat(formula)
            out.check(
                report.agrees and report.sat_by_solver == expected,
                f"formula {formula.clauses}: verdict {report.sat_by_solver}, truth table {expected}",
            )
            done += 1

    def named_metrics(self, out: Outcome) -> dict:
        return {
            "brute_ms_p50": (median(out.samples["brute_ms"]), "ms"),
            "candidates_per_s": (out.counts["candidates"] / out.counts["brute_s"], "1/s"),
            "sat_ms_p50": (median(out.op_ms), "ms"),
        }



def _op(tracer: Tracer | None, kind: str):
    return tracer.op(kind) if tracer is not None else nullcontext()


WORKLOADS = {
    w.name: w
    for w in (
        SweepC09(),
        SweepC08(),
        Scale(),
        Oracle(),
    )
}
