"""Monte-Carlo experiment driver: algorithm registry, per-trial records,
aggregation (means and CDFs) and CSV/JSON export.

Trial i always uses seed ``seed_base + i``, independent of worker order, so
serial and parallel sweeps produce bit-identical outputs.  Means are taken
on linear min-SINR; dB columns are provided for convenience.  Wall-clock
timings are kept out of CSV exports by default so that repeated sweeps are
byte-identical; pass ``timings=True`` (CLI ``--timings``) to include them.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .matching import AssignmentProblem, auction, aufp, hungarian, solve_p1prime
from .model import Network, max_snr_association
from .oracle import brute_force_optimum, gadget_pair_values
from .power import FixedPointOptions, solve_power_exact
from .scenario import ScenarioConfig, generate_hetnet, scenario_from_json, scenario_to_json
from .sumpower import dl_sumpower_power, ulsum, ulsum_exact, upper_bound_sum
from .twostage import dlsum, dlsuma, ulsuma

__all__ = [
    "ALGORITHMS",
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
    "load_records_csv",
    "experiment_from_json",
    "experiment_to_json",
    "selftest",
]

_BRUTE_CAP = 1_000_000


def _canonical_name(name: str) -> str:
    key = name.strip().lower().replace("-", "").replace("_", "")
    return {"bruteforce": "brute"}.get(key, key)


@dataclass(frozen=True)
class AlgoCell:
    """One algorithm's outcome inside a trial."""

    min_sinr: float | None
    runtime_ms: float | None
    converged: bool | None
    upper_bound: float | None
    note: str | None = None

    @property
    def min_sinr_db(self) -> float | None:
        if self.min_sinr is None:
            return None
        return 10.0 * math.log10(self.min_sinr) if self.min_sinr > 0 else -math.inf


@dataclass(frozen=True)
class TrialRecord:
    """All algorithm outcomes for one generated network."""

    seed: int
    snr_db: float
    cells: dict[str, AlgoCell]


# Every entry takes (net, opts, eps); only the brute-force oracle still runs
# the fixed point and reads ``opts``, the others solve exactly.
def _run_maxsnr(net: Network, opts: FixedPointOptions, eps: float | None):
    res = solve_power_exact(net, max_snr_association(net))
    return res.min_sinr, None, res.converged, None


def _run_ulsum(net: Network, opts: FixedPointOptions, eps: float | None):
    res = ulsum_exact(net)
    return res.gamma_sum, res.gamma_sum, res.converged, None


def _run_ulsuma(net: Network, opts: FixedPointOptions, eps: float | None):
    res = ulsuma(net)
    return res.gamma_sum, res.gamma_sum, res.converged, None


def _run_dlsum(net: Network, opts: FixedPointOptions, eps: float | None):
    res = dlsum(net)
    return res.result.min_sinr, res.upper_bound, res.result.converged, None


def _run_dlsuma(net: Network, opts: FixedPointOptions, eps: float | None):
    res = dlsuma(net)
    return res.result.min_sinr, res.upper_bound, res.result.converged, None


def _run_p1prime(net: Network, opts: FixedPointOptions, eps: float | None):
    if net.n_bs != net.n_users:
        return None, None, None, "skipped: requires n_bs == n_users"
    res = solve_p1prime(net)
    return res.result.min_sinr, None, res.result.converged, f"status={res.status}"


def _run_aufp(net: Network, opts: FixedPointOptions, eps: float | None):
    if net.n_bs != net.n_users:
        return None, None, None, "skipped: requires n_bs == n_users"
    res = aufp(net, eps)
    return res.result.min_sinr, None, res.result.converged, f"status={res.status}"


def _run_brute(net: Network, opts: FixedPointOptions, eps: float | None):
    if net.n_bs**net.n_users > _BRUTE_CAP:
        return None, None, None, "skipped: instance too large for brute force"
    res = brute_force_optimum(net, opts=opts)
    return res.min_sinr, None, res.converged, None


ALGORITHMS = {
    "maxsnr": _run_maxsnr,
    "ulsum": _run_ulsum,
    "ulsuma": _run_ulsuma,
    "dlsum": _run_dlsum,
    "dlsuma": _run_dlsuma,
    "p1prime": _run_p1prime,
    "aufp": _run_aufp,
    "brute": _run_brute,
}


def run_algorithm(
    name: str,
    net: Network,
    opts: FixedPointOptions | None = None,
    eps: float | None = None,
) -> AlgoCell:
    """Run one registered algorithm, timing it and trapping failures."""
    key = _canonical_name(name)
    if key not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    opts = opts or FixedPointOptions()
    start = time.perf_counter()
    try:
        value, bound, converged, note = ALGORITHMS[key](net, opts, eps)
    except Exception as exc:  # recorded per-cell, trial continues
        elapsed = (time.perf_counter() - start) * 1e3
        return AlgoCell(None, elapsed, None, None, note=f"error: {exc}")
    elapsed = (time.perf_counter() - start) * 1e3
    return AlgoCell(value, elapsed, converged, bound, note=note)


@dataclass(frozen=True)
class ExperimentSpec:
    """A Monte-Carlo sweep: scenario base, SNR grid, algorithms, run count.

    ``out_csv``/``out_cdf`` are default output paths the CLI falls back to
    when no ``--out`` is given.
    """

    scenario: ScenarioConfig
    snr_db: tuple[float, ...]
    algorithms: tuple[str, ...]
    n_runs: int = 500
    seed_base: int = 0
    cdf_clip: float = 3.0
    eps: float | None = None
    out_csv: str | None = None
    out_cdf: str | None = None

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if not self.snr_db:
            raise ValueError("need at least one snr_db point")
        names = tuple(_canonical_name(a) for a in self.algorithms)
        unknown = [a for a in names if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; choose from {sorted(ALGORITHMS)}")
        if "brute" in names and self.scenario.n_bs**self.scenario.n_users > _BRUTE_CAP:
            raise ValueError("brute force not allowed at this scenario size")
        object.__setattr__(self, "algorithms", names)
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))


def run_trial(spec: ExperimentSpec, trial_index: int, snr_db: float) -> TrialRecord:
    """Generate the trial's network and run every selected algorithm on it."""
    seed = spec.seed_base + trial_index
    config = replace(spec.scenario, snr_db=float(snr_db), seed=seed)
    net = generate_hetnet(config).network
    cells = {name: run_algorithm(name, net, eps=spec.eps) for name in spec.algorithms}
    return TrialRecord(seed=seed, snr_db=float(snr_db), cells=cells)


@dataclass(frozen=True)
class MeanCell:
    """Aggregate of one (algorithm, snr) column.

    Only converged values count: ``n_ok`` values enter the mean and the CDF,
    ``n_nonconverged`` values were returned with ``converged=False`` and
    ``n_failed`` cells returned no value (errors and skips).
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


def _task(args: tuple[ExperimentSpec, int, float]) -> tuple[tuple[float, int], TrialRecord]:
    spec, trial, snr = args
    return (snr, trial), run_trial(spec, trial, snr)


def monte_carlo(spec: ExperimentSpec, jobs: int = 1) -> MonteCarloResult:
    """Run the sweep and aggregate means and clipped empirical CDFs.

    Trials are independent; with ``jobs > 1`` they run in a process pool,
    and the ordered reduce by (snr, trial index) keeps the output identical
    to a serial run.
    """
    tasks = [(spec, trial, snr) for snr in spec.snr_db for trial in range(spec.n_runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = dict(pool.map(_task, tasks, chunksize=8))
    else:
        outcomes = dict(map(_task, tasks))
    records = tuple(
        outcomes[(snr, trial)] for snr in spec.snr_db for trial in range(spec.n_runs)
    )

    means: dict[tuple[str, float], MeanCell] = {}
    cdf: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}
    for snr in spec.snr_db:
        at_snr = [r for r in records if r.snr_db == snr]
        for name in spec.algorithms:
            cells = [r.cells[name] for r in at_snr]
            valued = [c for c in cells if c.min_sinr is not None]
            ok = np.array([c.min_sinr for c in valued if c.converged is not False])
            mean = float(ok.mean()) if ok.size else None
            means[(name, snr)] = MeanCell(
                mean, int(ok.size), len(cells) - len(valued), len(valued) - int(ok.size)
            )
            clipped = np.sort(np.minimum(ok, spec.cdf_clip)) if ok.size else np.array([])
            probs = (np.arange(clipped.size) + 1) / clipped.size if clipped.size else np.array([])
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
                        _fmt(cell.min_sinr_db),
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


def load_records_csv(path) -> list[dict]:
    """Read an exported record CSV back into typed dicts."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = dict(row)
            for key in ("snr_db", "min_sinr_linear", "min_sinr_db", "runtime_ms", "upper_bound"):
                parsed[key] = float(row[key]) if row[key] else None
            parsed["seed"] = int(row["seed"])
            parsed["converged"] = {"true": True, "false": False, "": None}[row["converged"]]
            rows.append(parsed)
    return rows


def export_json(result: MonteCarloResult, path) -> None:
    """Full-fidelity JSON export (records, timings included, and means)."""
    doc = {
        "spec": experiment_to_json(result.spec),
        "records": [
            {
                "seed": r.seed,
                "snr_db": r.snr_db,
                "algorithms": {
                    name: {
                        "min_sinr": cell.min_sinr,
                        "min_sinr_db": cell.min_sinr_db,
                        "runtime_ms": cell.runtime_ms,
                        "converged": cell.converged,
                        "upper_bound": cell.upper_bound,
                        "note": cell.note,
                    }
                    for name, cell in r.cells.items()
                },
            }
            for r in result.records
        ],
        "means": [
            {
                "algorithm": name,
                "snr_db": snr,
                "mean_min_sinr": cell.mean_min_sinr,
                "n_ok": cell.n_ok,
                "n_failed": cell.n_failed,
                "n_nonconverged": cell.n_nonconverged,
            }
            for (name, snr), cell in result.means.items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def experiment_to_json(spec: ExperimentSpec) -> dict:
    return {
        "scenario": scenario_to_json(spec.scenario),
        "snr_db": list(spec.snr_db),
        "algorithms": list(spec.algorithms),
        "n_runs": spec.n_runs,
        "seed_base": spec.seed_base,
        "cdf_clip": spec.cdf_clip,
        "eps": spec.eps,
        "out_csv": spec.out_csv,
        "out_cdf": spec.out_cdf,
    }


def experiment_from_json(doc: dict) -> ExperimentSpec:
    scenario = scenario_from_json(doc.get("scenario", {}))
    return ExperimentSpec(
        scenario=scenario,
        snr_db=tuple(doc["snr_db"]),
        algorithms=tuple(doc["algorithms"]),
        n_runs=int(doc.get("n_runs", 500)),
        seed_base=int(doc.get("seed_base", 0)),
        cdf_clip=float(doc.get("cdf_clip", 3.0)),
        eps=doc.get("eps"),
        out_csv=doc.get("out_csv"),
        out_cdf=doc.get("out_cdf"),
    )


def _random_small_network(rng: np.random.Generator, n_bs: int, n_users: int) -> Network:
    gain = 10.0 ** rng.normal(0.0, 0.8, size=(n_bs, n_users))
    return Network(
        gain=gain,
        budget=rng.uniform(0.5, 2.0, size=n_bs),
        noise_dl=np.ones(n_users),
        noise_ul=np.ones(n_bs),
    )


def selftest(seed: int = 0, trials: int = 10, verbose_print=print) -> bool:
    """Quick oracle-equivalence suite; prints one PASS/FAIL line per check."""
    rng = np.random.default_rng(seed)
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        verbose_print(f"{'PASS' if passed else 'FAIL'}  {name}{'  ' + detail if detail else ''}")

    pair = gadget_pair_values(2.0, 1.0)
    gamma_star = (math.sqrt(7.0) - 1.0) / 3.0
    report(
        "variable-block closed forms",
        abs(pair.values[0] - gamma_star) < 1e-12 and abs(pair.values[2] - 0.4) < 1e-12,
    )

    worst = 0.0
    for _ in range(trials):
        net = _random_small_network(rng, 3, 4)
        res = ulsum(net)
        dl = dl_sumpower_power(net, res.assoc)
        worst = max(worst, abs(dl.min_sinr - res.gamma_sum) / res.gamma_sum)
    report("uplink/downlink duality (sum power)", worst < 1e-6, f"max rel gap {worst:.2e}")

    worst = 0.0
    matched = True
    for _ in range(trials):
        net = _random_small_network(rng, 3, 3)
        star = brute_force_optimum(net)
        one = solve_p1prime(net)
        if star.min_sinr >= 1.0:
            worst = max(worst, abs(one.result.min_sinr - star.min_sinr))
            matched = matched and one.status == "optimal"
        else:
            matched = matched and one.status == "infeasible"
    report("one-to-one solver vs brute force", matched and worst < 1e-6)

    gap_ok = True
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        prob = AssignmentProblem(gain=rng.normal(0.0, 1.0, size=(k, k)))
        _, best = hungarian(prob)
        state = auction(prob, eps=1e-7)
        gap_ok = gap_ok and state.total_gain >= best - k * 1e-7 - 1e-12
    report("auction within k*eps of assignment optimum", gap_ok)

    bound_ok = True
    for _ in range(trials):
        net = _random_small_network(rng, 2, 3)
        star = brute_force_optimum(net)
        bound_ok = bound_ok and upper_bound_sum(net) >= star.min_sinr - 1e-9
    report("sum-power relaxation dominates brute force", bound_ok)

    return ok
