"""Batch CLI: generate networks, solve them, run Monte-Carlo sweeps.

Exit codes: 0 success, 2 infeasible / not-converged / failed verification,
1 usage or I/O error, or an algorithm that skips the network.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .harness import (
    ALGORITHMS,
    Outcome,
    experiment_from_json,
    export_cdf_csv,
    export_csv,
    export_json,
    monte_carlo,
    selftest as run_selftest,
)
from .matching import InfeasibleMatchingError
from .model import ValidationError, network_from_json, network_to_json
from .oracle import build_3sat_gadget, cnf_from_dimacs, verify_sat_equivalence
from .scenario import generate_hetnet, geometry_to_json, scenario_from_json

# Usage errors must exit with 1 (click defaults to 2, which is reserved here
# for infeasible / not-converged outcomes).
click.UsageError.exit_code = 1


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(str(exc))


def _dump(doc: dict, out):
    text = json.dumps(doc, indent=2)
    if out is None or out == "-":
        click.echo(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _fail(str(exc))


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


@click.group()
def main():
    """Max-min fair BS association and power allocation toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="ScenarioConfig JSON")
@click.option("--seed", type=int, default=None, help="Override the config's RNG seed")
@click.option("--out", "out_path", default=None, help="Output network JSON (default stdout)")
@click.option("--geometry-out", default=None, help="Optional geometry JSON for plotting")
def gen(config_path, seed, out_path, geometry_out):
    """Generate one random HetNet and emit its network JSON."""
    doc = _load_json(config_path)
    try:
        overrides = {} if seed is None else {"seed": seed}
        config = scenario_from_json(doc, **overrides)
        instance = generate_hetnet(config)
    except (ValidationError, TypeError, ValueError) as exc:
        _fail(str(exc))
    _dump(network_to_json(instance.network), out_path)
    if geometry_out:
        _dump(geometry_to_json(instance.geometry), geometry_out)


def _solve_document(alg: str, out: Outcome) -> dict:
    """The ``solve`` JSON document; fields the algorithm does not fill are left out."""
    stages = None
    if out.stages is not None:
        stages = [
            {
                "name": s.name,
                "iterations": s.iterations,
                "association": None if s.association is None else list(map(int, s.association)),
                "sum_power": s.sum_power,
                "gamma": s.gamma,
            }
            for s in out.stages
        ]
    doc = {
        "algorithm": alg,
        "problem": out.problem,
        "association": out.association.tolist(),
        "power": out.power.tolist(),
        "sinr": None if out.sinr is None else out.sinr.tolist(),
        "min_sinr": out.min_sinr,
        "min_sinr_db": _db(out.min_sinr),
        "upper_bound": out.upper_bound,
        "iterations": out.iterations,
        "converged": out.converged,
        "residual": out.residual,
        "selected_stage": out.selected_stage,
        "stages": stages,
        "status": out.status,
        "assignment_total_gain": out.assignment_total_gain,
    }
    return {key: value for key, value in doc.items() if value is not None}


@main.command()
@click.option("--net", "net_path", required=True, type=click.Path(), help="Network JSON")
@click.option("--alg", required=True, type=click.Choice(list(ALGORITHMS)))
@click.option("--eps", type=float, default=None, help="Auction bidding increment (aufp)")
@click.option("--out", "out_path", default=None, help="Output JSON (default stdout)")
def solve(net_path, alg, eps, out_path):
    """Solve one network with the chosen algorithm and print the result.

    Exits 2 when the run did not converge or a matched solve is not optimal,
    and 1 when the algorithm skips the network.
    """
    doc = _load_json(net_path)
    try:
        outcome = ALGORITHMS[alg](network_from_json(doc), eps)
    except (ValidationError, InfeasibleMatchingError, ValueError) as exc:
        _fail(str(exc))
    if outcome.min_sinr is None:
        _fail(outcome.note)
    _dump(_solve_document(alg, outcome), out_path)
    sys.exit(0 if outcome.converged and outcome.status in (None, "optimal") else 2)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Experiment JSON")
@click.option("--out", "out_path", default=None, help="Output records CSV (default: spec's out_csv)")
@click.option("--json-out", default=None, help="Optional full-fidelity JSON output")
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel workers")
@click.option("--timings", is_flag=True, help="Include wall-clock timings (breaks byte-reproducibility)")
def sweep(spec_path, out_path, json_out, jobs, timings):
    """Monte-Carlo sweep over the spec's SNR grid; writes per-trial records."""
    doc = _load_json(spec_path)
    try:
        spec = experiment_from_json(doc)
        out_path = out_path or spec.out_csv
        if out_path is None:
            raise ValueError("no output path: pass --out or set out_csv in the spec")
        result = monte_carlo(spec, jobs=jobs)
        export_csv(result, out_path, timings=timings)
        if json_out:
            export_json(result, json_out)
    except (ValidationError, ValueError, OSError, KeyError) as exc:
        _fail(str(exc))
    for (name, snr), cell in result.means.items():
        mean = "nan" if cell.mean_min_sinr is None else f"{cell.mean_min_sinr:.6g}"
        click.echo(
            f"{name} @ {snr:g} dB: mean min-SINR {mean} ({cell.n_ok} ok, "
            f"{cell.n_nonconverged} non-converged, {cell.n_failed} failed)"
        )


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Experiment JSON")
@click.option("--out", "out_path", default=None, help="Output CDF CSV (default: spec's out_cdf)")
@click.option("--jobs", type=int, default=1, show_default=True)
def cdf(spec_path, out_path, jobs):
    """Monte-Carlo sweep reduced to clipped empirical CDFs."""
    doc = _load_json(spec_path)
    try:
        spec = experiment_from_json(doc)
        out_path = out_path or spec.out_cdf
        if out_path is None:
            raise ValueError("no output path: pass --out or set out_cdf in the spec")
        result = monte_carlo(spec, jobs=jobs)
        export_cdf_csv(result, out_path)
    except (ValidationError, ValueError, OSError, KeyError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--cnf", "cnf_path", required=True, type=click.Path(), help="DIMACS 3-CNF file")
@click.option("--verify", is_flag=True, help="Check satisfiability against the network optimum")
@click.option("--out", "out_path", default=None, help="Output JSON (default stdout)")
def gadget(cnf_path, verify, out_path):
    """Build the satisfiability network gadget for a 3-CNF formula."""
    try:
        with open(cnf_path) as fh:
            formula = cnf_from_dimacs(fh.read())
    except OSError as exc:
        _fail(str(exc))
    except ValidationError as exc:
        _fail(str(exc))
    gadget_net = build_3sat_gadget(formula)
    if not verify:
        _dump(network_to_json(gadget_net.network), out_path)
        return
    try:
        report = verify_sat_equivalence(formula)
    except (ValidationError, ValueError) as exc:
        _fail(str(exc))
    _dump(
        {
            "sat_by_solver": report.sat_by_solver,
            "network_opt": report.network_opt,
            "threshold": report.threshold,
            "agrees": report.agrees,
        },
        out_path,
    )
    sys.exit(0 if report.agrees else 2)


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=10, show_default=True)
def selftest(seed, trials):
    """Run the built-in oracle-equivalence suite."""
    ok = run_selftest(seed=seed, trials=trials, verbose_print=click.echo)
    sys.exit(0 if ok else 2)


if __name__ == "__main__":
    main()
