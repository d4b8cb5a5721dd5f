"""Batch CLI: generate networks, solve them, run Monte-Carlo sweeps.

One ``sweep`` run writes the records, CDF and JSON outputs of one sweep.

Exit codes: 0 success, 2 infeasible / not-converged / failed verification,
1 usage error, malformed document, I/O error, or an algorithm that rejects
the network.  The commands catch nothing: the group's ``invoke`` is the one
place where an error becomes ``error: <message>`` and exit 1.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import replace

import click

from .harness import (
    ALGORITHMS,
    Outcome,
    _db,
    experiment_from_json,
    export_cdf_csv,
    export_csv,
    export_json,
    monte_carlo,
)
from .model import _dump_json, _load_json, _to_json, network_from_json, network_to_json
from .oracle import build_3sat_gadget, cnf_from_dimacs, verify_sat_equivalence
from .scenario import generate_hetnet, geometry_to_json, scenario_from_json

# Usage errors must exit with 1 (click defaults to 2, which is reserved here
# for infeasible / not-converged outcomes).
click.UsageError.exit_code = 1


def _dump(doc: dict, out):
    data = _dump_json(doc)
    if out is None or out == "-":
        click.echo(data, nl=False)
    else:
        with open(out, "wb") as fh:
            fh.write(data)


@contextlib.contextmanager
def _outputs(source, *paths):
    """The one output rule of every command: its outputs are distinct files
    other than its input ``source``, compared after resolving symlinks and
    ``..``; ``-`` (stdout) and an absent path are skipped.  Each file is
    created and removed before any work, so that a bad path fails first and
    its writer creates it afresh (ext4 flushes a file truncated to rewrite
    it when it is closed, about 0.2 ms a file).  If anything raises,
    ``SystemExit`` included, the files this command created are removed."""
    paths = [path for path in paths if path and path != "-"]
    resolved = {os.path.realpath(path) for path in paths}
    if len(resolved) < len(paths) or os.path.realpath(source) in resolved:
        command = click.get_current_context().info_name
        raise ValueError(
            f"{command} outputs must be distinct files other than its input {source}, got {paths}"
        )
    created = []
    try:
        for path in paths:
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
                os.remove(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


class _Cli(click.Group):
    def invoke(self, ctx):
        # ValueError covers ValidationError (InfeasibleMatchingError and a file
        # that is not JSON too: the codec raises it from orjson.JSONDecodeError,
        # itself a ValueError), ArithmeticError a finite geometry too large for
        # float arithmetic, and Warning a numpy warning that the warning
        # filters raise as an error
        try:
            return super().invoke(ctx)
        except (ValueError, ArithmeticError, Warning, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Cli)
def main():
    """Max-min fair BS association and power allocation toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="ScenarioConfig JSON")
@click.option("--seed", type=int, default=None, help="Override the config's RNG seed")
@click.option("--out", "out_path", default=None, help="Output network JSON (default stdout)")
@click.option("--geometry-out", default=None, help="Optional geometry JSON for plotting")
def gen(config_path, seed, out_path, geometry_out):
    """Generate one random HetNet and emit its network JSON."""
    config = scenario_from_json(_load_json(config_path))
    with _outputs(config_path, out_path, geometry_out):
        instance = generate_hetnet(config if seed is None else replace(config, seed=seed))
        _dump(network_to_json(instance.network), out_path)
        if geometry_out:
            _dump(geometry_to_json(instance.geometry), geometry_out)


def _solve_document(alg: str, out: Outcome) -> dict:
    """The ``solve`` JSON document; fields the algorithm does not fill are left out."""
    doc = {"algorithm": alg, **_to_json(out), "min_sinr_db": _db(out.min_sinr)}
    return {key: value for key, value in doc.items() if value is not None}


@main.command()
@click.option("--net", "net_path", required=True, type=click.Path(), help="Network JSON")
@click.option("--alg", required=True, type=click.Choice(list(ALGORITHMS)))
@click.option("--out", "out_path", default=None, help="Output JSON (default stdout)")
def solve(net_path, alg, out_path):
    """Solve one network with the chosen algorithm and print the result.

    Exits 2 when the run did not converge or a matched solve is not optimal,
    and 1 when the algorithm rejects the network.
    """
    net = network_from_json(_load_json(net_path))
    with _outputs(net_path, out_path):
        outcome = ALGORITHMS[alg](net)
        _dump(_solve_document(alg, outcome), out_path)
    sys.exit(0 if outcome.converged and outcome.status in (None, "optimal") else 2)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Experiment JSON")
@click.option("--out", "out_path", required=True, help="Output records CSV")
@click.option("--cdf-out", default=None, help="Optional clipped empirical CDF CSV")
@click.option("--json-out", default=None, help="Optional full-fidelity JSON output")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel workers")
@click.option("--timings", is_flag=True, help="Include wall-clock timings (breaks byte-reproducibility)")
def sweep(spec_path, out_path, cdf_out, json_out, jobs, timings):
    """Monte-Carlo sweep over the spec's SNR grid; one run writes every output."""
    spec = experiment_from_json(_load_json(spec_path))
    if "-" in (out_path, cdf_out, json_out):
        raise ValueError("sweep outputs must be files: its stdout carries the summary, got -")
    with _outputs(spec_path, out_path, cdf_out, json_out):
        result = monte_carlo(spec, jobs=jobs)
        export_csv(result, out_path, timings=timings)
        if cdf_out:
            export_cdf_csv(result, cdf_out)
        if json_out:
            export_json(result, json_out)
    for (name, snr), cell in result.means.items():
        mean = "nan" if cell.mean_min_sinr is None else f"{cell.mean_min_sinr:.6g}"
        click.echo(
            f"{name} @ {snr:g} dB: mean min-SINR {mean} ({cell.n_ok} ok, "
            f"{cell.n_nonconverged} non-converged, {cell.n_failed} failed)"
        )


@main.command()
@click.option("--cnf", "cnf_path", required=True, type=click.Path(), help="DIMACS 3-CNF file")
@click.option("--verify", is_flag=True, help="Check satisfiability against the network optimum")
@click.option("--out", "out_path", default=None, help="Output JSON (default stdout)")
def gadget(cnf_path, verify, out_path):
    """Build the satisfiability network gadget for a 3-CNF formula."""
    with open(cnf_path) as fh:
        formula = cnf_from_dimacs(fh.read())
    with _outputs(cnf_path, out_path):
        if not verify:
            _dump(network_to_json(build_3sat_gadget(formula)), out_path)
            return
        report = verify_sat_equivalence(formula)
        _dump(_to_json(report), out_path)
    sys.exit(0 if report.agrees else 2)


if __name__ == "__main__":
    main()
