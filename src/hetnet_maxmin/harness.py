"""Monte-Carlo experiment driver: the algorithm registry, per-trial
records, aggregation (means and CDFs) and CSV/JSON export.

:data:`ALGORITHMS` is the one table of algorithms: the sweeps run its
entries through :func:`run_algorithm`, and ``hetnet-maxmin solve`` renders
their :class:`Outcome` as its JSON document.

Within a trial each sum-power relaxation is solved once: ``ulsum`` and
``dlsum`` share the plain one, ``ulsuma`` and ``dlsuma`` the power-balanced
one, and whichever cell of a pair comes first solves it.  The balanced
relaxation carries its balanced network, so a trial balances once.

A sweep's unit of work is one seed: its SNR points differ only in their
budgets, so the seed's network is generated once and each later point is
built from that draw.

Trial i always uses seed ``seed_base + i``, independent of worker order, so
serial and parallel sweeps produce bit-identical outputs.  Means are taken
on linear min-SINR; dB columns are provided for convenience.  Wall-clock
timings are kept out of CSV exports by default so that repeated sweeps are
byte-identical; pass ``timings=True`` (CLI ``--timings``) to include them.
A cell's ``runtime_ms`` is what its algorithm costs when it runs alone: a
cell that reuses a relaxation adds the time that relaxation's solve took,
so the cells of a trial can sum to more than the trial took.
"""

from __future__ import annotations

import csv
import math
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .matching import OneToOneResult, aufp, solve_p1prime
from .model import (
    Network,
    SolveResult,
    ValidationError,
    _check_document,
    _check_field_types,
    _dump_json,
    _of_type,
    _to_json,
    max_snr_association,
)
from .oracle import MAX_CANDIDATES, brute_force_optimum
from .power import solve_power_exact
from .scenario import ScenarioConfig, _budget, generate_hetnet, scenario_from_json
from .sumpower import UlsumResult, ulsum_exact
from .twostage import StageInfo, TwoStageResult, dlsum, dlsuma, ulsuma

__all__ = [
    "ALGORITHMS",
    "CDF_CLIP",
    "Outcome",
    "ExperimentSpec",
    "AlgoCell",
    "TrialRecord",
    "MonteCarloResult",
    "run_algorithm",
    "run_trial",
    "monte_carlo",
    "export_csv",
    "export_cdf_csv",
    "export_json",
    "experiment_from_json",
    "experiment_to_json",
]

# Upper end of every empirical min-SINR CDF: larger values are clipped to it.
CDF_CLIP = 3.0


def _db(x: float | None) -> float | None:
    """``x`` in dB; -inf for 0, None for None."""
    if x is None:
        return None
    return 10.0 * math.log10(x) if x > 0 else -math.inf


@dataclass(frozen=True, slots=True)
class AlgoCell:
    """One algorithm's outcome inside a trial."""

    min_sinr: float | None
    runtime_ms: float | None
    converged: bool | None
    upper_bound: float | None
    note: str | None = None


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """All algorithm outcomes for one generated network."""

    seed: int
    snr_db: float
    cells: dict[str, AlgoCell]


@dataclass(frozen=True)
class Outcome:
    """One algorithm's answer on one network.

    ``min_sinr``, ``upper_bound`` and ``converged`` are what a sweep
    records.  The remaining fields are what ``hetnet-maxmin solve`` prints;
    each family fills its own extras (``stages``/``selected_stage`` for the
    two-stage solvers, ``status``/``assignment_total_gain`` for the matched
    ones) and leaves the others None.  A ``min_sinr`` or ``upper_bound``
    that is not finite, the mark of an overflow, raises ValueError: a sweep
    records it as an error cell and ``solve`` exits 1.
    """

    min_sinr: float
    upper_bound: float | None = None
    converged: bool | None = None
    problem: str = "per-BS power budgets"
    association: np.ndarray | None = None
    power: np.ndarray | None = None
    sinr: np.ndarray | None = None
    iterations: int | None = None
    residual: float | None = None
    stages: tuple[StageInfo, ...] | None = None
    selected_stage: int | None = None
    status: str | None = None
    assignment_total_gain: float | None = None

    def __post_init__(self):
        for name in ("min_sinr", "upper_bound"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(
                    f"{name} is not finite ({value}): the network overflows the float range"
                )


def _per_bs(res: SolveResult, **extras) -> Outcome:
    return Outcome(
        res.min_sinr,
        converged=res.converged,
        association=res.association,
        power=res.power,
        sinr=res.sinr,
        iterations=res.iterations,
        residual=res.residual,
        **extras,
    )


def _relaxation(res: UlsumResult, problem: str) -> Outcome:
    return Outcome(
        res.gamma_sum,
        upper_bound=res.gamma_sum,
        converged=res.converged,
        problem=problem,
        association=res.assoc,
        power=res.power_ul,
        iterations=res.iterations,
        residual=res.residual,
    )


def _two_stage(res: TwoStageResult) -> Outcome:
    return _per_bs(
        res.result,
        upper_bound=res.upper_bound,
        stages=res.stages,
        selected_stage=res.selected_stage,
    )


def _matched(res: OneToOneResult) -> Outcome:
    return _per_bs(res.result, status=res.status, assignment_total_gain=res.total_gain)


@dataclass(frozen=True)
class _OnRelaxation:
    """A registry entry built on a sum-power relaxation: ``entry(net)`` is
    ``finish(net, relax(net))``.  Entries with the same ``relax`` start from
    the same relaxation, so :func:`run_trial` solves it once for them all."""

    relax: Callable[[Network], UlsumResult]
    finish: Callable[[Network, UlsumResult], Outcome]

    def __call__(self, net: Network) -> Outcome:
        return self.finish(net, self.relax(net))


# The two relaxations; like every entry they look their solver up per call.
def _ulsum(net: Network) -> UlsumResult:
    return ulsum_exact(net)


def _ulsuma(net: Network) -> UlsumResult:
    return ulsuma(net)


# Every entry is run(net) -> Outcome: aufp runs at its default eps, and every
# algorithm, the brute-force oracle included, solves its power problems
# exactly.  A network an algorithm cannot take (p1prime and aufp need as many
# BSs as users) raises.  ulsum and ulsuma are the stage 1 of dlsum and dlsuma.
# maxsnr's association is checked: where gain * budget rounds to 0 the
# greedy rule can pick a BS without a link.
ALGORITHMS = {
    "maxsnr": lambda net: _per_bs(solve_power_exact(net, max_snr_association(net))),
    "ulsum": _OnRelaxation(_ulsum, lambda net, s: _relaxation(s, "uplink sum-power relaxation")),
    "ulsuma": _OnRelaxation(
        _ulsuma, lambda net, s: _relaxation(s, "uplink sum-power relaxation (power-balanced)")
    ),
    "dlsum": _OnRelaxation(_ulsum, lambda net, s: _two_stage(dlsum(net, stage1=s))),
    "dlsuma": _OnRelaxation(_ulsuma, lambda net, s: _two_stage(dlsuma(net, stage1=s))),
    "p1prime": lambda net: _matched(solve_p1prime(net)),
    "aufp": lambda net: _matched(aufp(net)),
    "brute": lambda net: _per_bs(brute_force_optimum(net)),
}


def run_algorithm(name: str, net: Network, *, relaxations: dict | None = None) -> AlgoCell:
    """Run one registered algorithm, timing it and trapping failures.

    ``relaxations`` maps a relaxation to its result on ``net`` and the
    milliseconds its solve took.  An entry built on a relaxation found there
    reuses it and adds those milliseconds to its own; one that solves its
    relaxation stores it there.  A failed solve stores nothing.
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    entry = ALGORITHMS[name]
    reused_ms = 0.0
    start = time.perf_counter()
    try:
        if isinstance(entry, _OnRelaxation) and relaxations is not None:
            if entry.relax in relaxations:
                relaxed, reused_ms = relaxations[entry.relax]
            else:
                relaxed = entry.relax(net)
                relaxations[entry.relax] = relaxed, (time.perf_counter() - start) * 1e3
            out = entry.finish(net, relaxed)
        else:
            out = entry(net)
    except Exception as exc:  # recorded per-cell, trial continues
        elapsed = (time.perf_counter() - start) * 1e3 + reused_ms
        return AlgoCell(None, elapsed, None, None, note=f"error: {exc}")
    elapsed = (time.perf_counter() - start) * 1e3 + reused_ms
    note = None if out.status is None else f"status={out.status}"
    return AlgoCell(out.min_sinr, elapsed, out.converged, out.upper_bound, note=note)


@dataclass(frozen=True)
class ExperimentSpec:
    """A Monte-Carlo sweep: scenario base, SNR grid, algorithms, run count.

    Each algorithm name is a key of :data:`ALGORITHMS`, spelled exactly.
    """

    scenario: ScenarioConfig
    snr_db: tuple[float, ...]
    algorithms: tuple[str, ...]
    n_runs: int = 500
    seed_base: int = 0

    def __post_init__(self):
        _check_field_types(self)
        for key in ("snr_db", "algorithms"):
            values = getattr(self, key)
            # a bare string would count as a sequence of one-letter names
            if isinstance(values, (str, bytes)) or not isinstance(values, (Sequence, np.ndarray)):
                raise ValidationError(f"{key} must be a sequence, got {values!r}")
        if self.n_runs < 1:
            raise ValidationError("n_runs must be at least 1")
        if self.seed_base < 0:
            raise ValidationError(f"seed_base must be non-negative, got {self.seed_base}")
        # each trial's seed goes into the JSON export, and the codec writes no
        # integer of 2**64 or more
        if int(self.seed_base) + int(self.n_runs) > 2**64:
            raise ValidationError(
                f"seeds must stay below 2**64, got seed_base {self.seed_base} and n_runs {self.n_runs}"
            )
        if not all(_of_type(s, "float") for s in self.snr_db):
            raise ValidationError(f"snr_db entries must be numbers, got {list(self.snr_db)}")
        snr_db = tuple(float(s) for s in self.snr_db)
        if not snr_db:
            raise ValidationError("need at least one snr_db point")
        # NaN and duplicate points would only fail, or run twice, trial by trial
        if not all(math.isfinite(s) for s in snr_db) or len(set(snr_db)) < len(snr_db):
            raise ValidationError(f"snr_db entries must be finite and distinct, got {list(snr_db)}")
        names = tuple(self.algorithms)
        if not all(_of_type(a, "str") for a in names):
            raise ValidationError(f"algorithms entries must be names, got {list(names)}")
        unknown = [a for a in names if a not in ALGORITHMS]
        if unknown:
            raise ValidationError(f"unknown algorithms {unknown}; choose from {sorted(ALGORITHMS)}")
        if len(set(names)) < len(names):
            # two rows would be written for the one cell they share
            raise ValidationError(f"algorithms must be distinct, got {list(names)}")
        if "brute" in names and self.scenario.n_bs**self.scenario.n_users > MAX_CANDIDATES:
            raise ValidationError("brute force not allowed at this scenario size")
        object.__setattr__(self, "algorithms", names)
        object.__setattr__(self, "snr_db", snr_db)


def run_trial(
    spec: ExperimentSpec, trial_index: int, snr_db: float, draws: dict | None = None
) -> TrialRecord:
    """Run every selected algorithm on the trial's network at ``snr_db``.

    ``draws`` maps a seed to its generated instance.  A trial whose seed is
    there builds its network from that draw's: the draw's gains and noises at
    this point's budgets, equal bit for bit to a fresh draw.  Any other trial
    generates one and stores it.
    """
    seed = spec.seed_base + trial_index
    draws = {} if draws is None else draws
    if seed in draws:
        drawn = draws[seed]
        budget = _budget(spec.scenario, float(snr_db), drawn.geometry.bs_is_macro)
        net = replace(drawn.network, budget=budget)
    else:
        draws[seed] = generate_hetnet(replace(spec.scenario, snr_db=float(snr_db), seed=seed))
        net = draws[seed].network
    relaxations: dict = {}  # this network's only, so it dies with the trial
    cells = {name: run_algorithm(name, net, relaxations=relaxations) for name in spec.algorithms}
    return TrialRecord(seed=seed, snr_db=float(snr_db), cells=cells)


@dataclass(frozen=True)
class MeanCell:
    """Aggregate of one (algorithm, snr) column.

    Only converged values count: ``n_ok`` values enter the mean and the CDF,
    ``n_nonconverged`` values were returned with ``converged=False`` and
    ``n_failed`` cells raised an error.
    """

    mean_min_sinr: float | None
    n_ok: int
    n_failed: int
    n_nonconverged: int = 0


@dataclass(frozen=True)
class MonteCarloResult:
    """Sweep output: ordered records plus per-(algorithm, snr) aggregates."""

    spec: ExperimentSpec
    records: tuple[TrialRecord, ...]
    means: dict[tuple[str, float], MeanCell]
    cdf: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]]


def _task(args: tuple[ExperimentSpec, int]) -> tuple[TrialRecord, ...]:
    # One seed at every grid point, in grid order, sharing one draw.  Looks
    # run_trial up at call time, so patching harness.run_trial reaches it.
    spec, trial = args
    draws: dict = {}  # this seed's only, so it dies with the task
    return tuple(run_trial(spec, trial, snr, draws) for snr in spec.snr_db)


def monte_carlo(spec: ExperimentSpec, jobs: int = 1) -> MonteCarloResult:
    """Run the sweep and aggregate means and clipped empirical CDFs.

    The unit of work is one seed: it generates its network once and runs
    :func:`run_trial` at every SNR point.  Seeds are independent; with
    ``jobs > 1`` they run in a process pool of at most one worker per seed
    and per CPU, whose ordered map keeps the output identical to a serial
    run.  Either way the records are laid out SNR-major: every seed at the
    first point, then every seed at the next.
    """
    tasks = [(spec, trial) for trial in range(spec.n_runs)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a serial run loads no multiprocessing module
        from concurrent.futures import ProcessPoolExecutor

        # chunks of about 8 trials, so that a sweep of few seeds still spreads
        chunksize = max(1, 8 // len(spec.snr_db))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_seed = list(pool.map(_task, tasks, chunksize=chunksize))
    else:
        by_seed = list(map(_task, tasks))
    points = list(zip(*by_seed))  # each SNR point's records, in seed order
    records = tuple(record for point in points for record in point)

    means: dict[tuple[str, float], MeanCell] = {}
    cdf: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}
    for snr, at_snr in zip(spec.snr_db, points):
        for name in spec.algorithms:
            cells = [r.cells[name] for r in at_snr]
            valued = [c for c in cells if c.min_sinr is not None]
            ok = np.array([c.min_sinr for c in valued if c.converged is not False])
            mean = float(ok.mean()) if ok.size else None
            means[(name, snr)] = MeanCell(
                mean, int(ok.size), len(cells) - len(valued), len(valued) - int(ok.size)
            )
            clipped = np.sort(np.minimum(ok, CDF_CLIP))
            probs = (np.arange(clipped.size) + 1) / clipped.size
            cdf[(name, snr)] = (clipped, probs)
    return MonteCarloResult(spec=spec, records=records, means=means, cdf=cdf)


_CSV_COLUMNS = [
    "n_macro",
    "picos_per_macro",
    "n_users",
    "user_dist",
    "snr_db",
    "seed",
    "algorithm",
    "min_sinr_linear",
    "min_sinr_db",
    "runtime_ms",
    "converged",
    "upper_bound",
    "note",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(result: MonteCarloResult, path, timings: bool = False) -> None:
    """Write one row per (trial, algorithm); header-only when empty.

    ``timings=False`` leaves the runtime_ms column blank so repeated runs of
    the same spec produce byte-identical files.
    """
    sc = result.spec.scenario
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for record in result.records:
            for name in result.spec.algorithms:
                cell = record.cells[name]
                writer.writerow(
                    [
                        _fmt(sc.n_macro),
                        _fmt(sc.picos_per_macro),
                        _fmt(sc.n_users),
                        _fmt(sc.user_dist),
                        _fmt(record.snr_db),
                        _fmt(record.seed),
                        name,
                        _fmt(cell.min_sinr),
                        _fmt(_db(cell.min_sinr)),
                        _fmt(cell.runtime_ms if timings else None),
                        _fmt(cell.converged),
                        _fmt(cell.upper_bound),
                        _fmt(cell.note),
                    ]
                )


def export_cdf_csv(result: MonteCarloResult, path) -> None:
    """Write the clipped empirical CDFs: one (value, probability) row each."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "snr_db", "value", "cumulative_probability"])
        for (name, snr), (values, probs) in result.cdf.items():
            for v, p in zip(values, probs):
                writer.writerow([name, _fmt(float(snr)), _fmt(float(v)), _fmt(float(p))])


def export_json(result: MonteCarloResult, path) -> None:
    """Full-fidelity JSON export (records, timings included, and means)."""
    doc = {
        "spec": experiment_to_json(result.spec),
        "records": [
            {
                "seed": r.seed,
                "snr_db": r.snr_db,
                "algorithms": {
                    name: {**_to_json(cell), "min_sinr_db": _db(cell.min_sinr)}
                    for name, cell in r.cells.items()
                },
            }
            for r in result.records
        ],
        "means": [
            {"algorithm": name, "snr_db": snr, **_to_json(cell)}
            for (name, snr), cell in result.means.items()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(_dump_json(doc, indent=True))


def experiment_to_json(spec: ExperimentSpec) -> dict:
    return _to_json(spec)


def experiment_from_json(doc: dict) -> ExperimentSpec:
    """Inverse of :func:`experiment_to_json`; a malformed document raises ValidationError."""
    _check_document(doc, ExperimentSpec, "experiment")
    for key in ("snr_db", "algorithms"):
        if key not in doc:
            raise ValidationError(f"experiment document is missing field {key!r}")
    # ExperimentSpec checks that both are sequences, and their entries' types
    return ExperimentSpec(**{**doc, "scenario": scenario_from_json(doc.get("scenario", {}))})
