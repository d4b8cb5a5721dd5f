"""Characterization of the CLI surface: ``solve`` documents and exit codes,
and the record CSV of a sweep that runs every registered algorithm.

The expected files in ``tests/data/`` were recorded from the CLI before
``solve`` and ``sweep`` shared one algorithm registry; they pin that the
merge changed no document field, no exit code and no CSV byte.
"""

import json

import pytest
from click.testing import CliRunner

from hetnet_maxmin.cli import main as cli_main

from helpers import DATA

SOLVE_DOCUMENTS = json.loads((DATA / "solve_documents.json").read_text())
SOLVE_CASES = [
    (network, alg) for network, by_alg in SOLVE_DOCUMENTS.items() for alg in by_alg
]


@pytest.mark.parametrize("network,alg", SOLVE_CASES)
def test_solve_document_and_exit_code(network, alg):
    expected = SOLVE_DOCUMENTS[network][alg]
    res = CliRunner().invoke(
        cli_main, ["solve", "--net", str(DATA / f"{network}.json"), "--alg", alg]
    )
    assert res.exit_code == expected["exit_code"], res.output
    if expected["document"] is None:
        assert res.stdout == ""
    else:
        assert json.loads(res.stdout) == expected["document"]


def test_all_algorithm_sweep_csv_is_unchanged(tmp_path):
    out = tmp_path / "records.csv"
    res = CliRunner().invoke(
        cli_main,
        ["sweep", "--spec", str(DATA / "sweep_3x0_k3_all_algorithms.json"), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (DATA / "sweep_3x0_k3_all_algorithms.csv").read_bytes()
