"""The brute-force oracle's answers, pinned bit for bit.

``data/brute_force_pins.json`` holds inputs and the exact outputs of
:func:`brute_force_optimum` and :func:`verify_sat_equivalence` on them, with
every float as ``float.hex``:

- three random formulas per shape of 1-3 variables by 1-3 clauses (repeated
  literals included; the third has one-sign clauses, which makes
  unsatisfiable formulas common), the formula of ``data/unsat_1var.cnf``,
  and the 4-variable, 3-clause formula of ``data/sat_4var_3clause.cnf``
  (16,384 candidates at K = 11, thirty full chunks of 541 and a partial
  last chunk);
- six 1-macro + 2-pico HetNet draws at 25 dB with 6 users (729 candidates,
  one chunk) and six with 8 users (6,561 candidates, six full chunks of
  1,024 and a partial last chunk);
- two networks with zero-gain links, one of them (2,187 candidates at
  K = 7) over two chunks, of 1,337 and 850.

A chunk holds max(1, 2^16 // K^2) candidates.

The file was written by the enumerate-everything brute force that decoded
``itertools.product`` tuples; regenerate it only for an intended change of
the oracle's answers, from the repository root:

    PYTHONPATH=src python tests/test_oracle_pins.py
"""

import itertools
import json

import numpy as np
import pytest

from hetnet_maxmin.model import Network, network_from_json, network_to_json
from hetnet_maxmin.oracle import (
    CnfFormula,
    _candidate_chunks,
    brute_force_optimum,
    build_3sat_gadget,
    cnf_from_dimacs,
    satisfiable,
    verify_sat_equivalence,
)

from helpers import DATA, random_formula

PINS = DATA / "brute_force_pins.json"


def optimum_doc(net: Network) -> dict:
    res = brute_force_optimum(net)
    return {
        "association": res.association.tolist(),
        "power": [p.hex() for p in res.power.tolist()],
        "sinr": [s.hex() for s in res.sinr.tolist()],
        "min_sinr": res.min_sinr.hex(),
        "iterations": res.iterations,
        "converged": res.converged,
        "residual": res.residual.hex(),
    }


def report_doc(formula: CnfFormula) -> dict:
    report = verify_sat_equivalence(formula)
    return {
        "sat_by_solver": report.sat_by_solver,
        "network_opt": report.network_opt.hex(),
        "agrees": report.agrees,
        "threshold": report.threshold.hex(),
    }


def _formula(case: dict) -> CnfFormula:
    return CnfFormula(n_vars=case["n_vars"], clauses=tuple(map(tuple, case["clauses"])))


def _zero_link_networks() -> dict[str, Network]:
    rng = np.random.default_rng(5)
    small = 10.0 ** rng.normal(0.0, 0.8, size=(3, 4))
    small[[0, 2, 1, 2], [0, 1, 2, 3]] = 0.0  # users keep 2, 2, 2 and 2 links
    wide = 10.0 ** rng.normal(0.0, 0.8, size=(4, 7))
    wide[[0, 1, 2, 3, 0, 1, 2], np.arange(7)] = 0.0  # 3^7 = 2,187 candidates
    return {
        "zero_links_3x4": Network(small, rng.uniform(0.5, 2.0, 3), np.ones(4), np.ones(3)),
        "zero_links_4x7": Network(wide, rng.uniform(0.5, 2.0, 4), np.ones(7), np.ones(4)),
    }


def _one_sign_formula(rng: np.random.Generator, n_vars: int, n_clauses: int) -> CnfFormula:
    """Random 3-literal clauses, each all positive or all negated: such
    formulas are unsatisfiable far more often than mixed-sign ones."""
    clauses = []
    for clause in random_formula(rng, n_vars, n_clauses):
        sign = 1 if rng.random() < 0.5 else -1
        clauses.append(tuple(sign * abs(lit) for lit in clause))
    return CnfFormula(n_vars=n_vars, clauses=tuple(clauses))


def write_pins() -> None:
    """Compute every pinned answer with the oracle on the path and write the file."""
    from hetnet_maxmin.scenario import ScenarioConfig, generate_hetnet

    rng = np.random.default_rng(0)
    formulas = [
        _one_sign_formula(rng, v, c) if i == 2 else CnfFormula(v, random_formula(rng, v, c))
        for v, c in itertools.product((1, 2, 3), (1, 2, 3))
        for i in range(3)
    ]
    for name in ("unsat_1var.cnf", "sat_4var_3clause.cnf"):
        formulas.append(cnf_from_dimacs((DATA / name).read_text()))
    assert any(len(set(map(abs, c))) < 3 for f in formulas if f.n_vars > 1 for c in f.clauses)
    assert not all(satisfiable(f) for f in formulas)
    networks = {
        f"hetnet_1x2_k{k}_25db_seed{seed}": generate_hetnet(
            ScenarioConfig(
                n_macro=1, picos_per_macro=2, n_users=k, snr_db=25.0, user_dist="uni_in_cell", seed=seed
            )
        ).network
        for k in (6, 8)
        for seed in range(6)
    }
    networks.update(_zero_link_networks())
    doc = {
        "formulas": [
            {
                "n_vars": f.n_vars,
                "clauses": [list(c) for c in f.clauses],
                "report": report_doc(f),
                "gadget_optimum": optimum_doc(build_3sat_gadget(f)),
            }
            for f in formulas
        ],
        "networks": {
            name: {"network": network_to_json(net), "optimum": optimum_doc(net)}
            for name, net in networks.items()
        },
    }
    PINS.write_text(json.dumps(doc, indent=1) + "\n")


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_chunk_boundaries(pins):
    sizes = {len(f["clauses"]) + 2 * f["n_vars"] for f in pins["formulas"]}
    assert len(pins["formulas"]) == 29 and 11 in sizes
    assert {f["report"]["sat_by_solver"] for f in pins["formulas"]} == {True, False}
    assert len(pins["networks"]) == 14
    counts = [
        int(np.prod((np.array(case["network"]["gain"]) > 0).sum(axis=0)))
        for case in pins["networks"].values()
    ]
    assert counts.count(729) == 6 and counts.count(6561) == 6 and 2187 in counts
    chunks = [
        len(list(_candidate_chunks(np.array(case["network"]["gain"]) > 0)))
        for case in pins["networks"].values()
    ]
    assert chunks.count(7) == 6 and 2 in chunks
    sat4 = build_3sat_gadget(cnf_from_dimacs((DATA / "sat_4var_3clause.cnf").read_text()))
    assert len(list(_candidate_chunks(sat4.gain > 0))) == 31


def test_sat_reports_and_gadget_optima_match_the_pins(pins):
    for case in pins["formulas"]:
        formula = _formula(case)
        assert report_doc(formula) == case["report"], formula.clauses
        assert optimum_doc(build_3sat_gadget(formula)) == case["gadget_optimum"], formula.clauses


@pytest.mark.parametrize("name", [
    *(f"hetnet_1x2_k{k}_25db_seed{seed}" for k in (6, 8) for seed in range(6)),
    "zero_links_3x4",
    "zero_links_4x7",
])
def test_network_optima_match_the_pins(pins, name):
    case = pins["networks"][name]
    assert optimum_doc(network_from_json(case["network"])) == case["optimum"]


if __name__ == "__main__":
    write_pins()
