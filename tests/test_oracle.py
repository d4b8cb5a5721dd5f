"""Oracle-layer tests: exhaustive optimum, closed-form block constants, the
3-SAT network gadget, and the satisfiability equivalence check."""

import itertools
import math

import numpy as np
import pytest

from hetnet_maxmin.model import Network, ValidationError, downlink_sinr, max_snr_association
from hetnet_maxmin.oracle import (
    CLAUSE_GAIN,
    SAT_GAMMA,
    CnfFormula,
    brute_force_optimum,
    build_3sat_gadget,
    cnf_from_dimacs,
    gadget_pair_values,
    satisfiable,
    verify_sat_equivalence,
)
from hetnet_maxmin import power
from hetnet_maxmin.power import solve_power, solve_power_exact
from hetnet_maxmin.twostage import dlsum, dlsuma

from helpers import DATA, frozen_network, random_formula, random_network, truth_table_sat

P_LOW = (math.sqrt(7.0) - 1.0) / 2.0


def pair_block_network() -> Network:
    return Network(
        gain=[[2.0, 1.0], [2.0, 1.0]],
        budget=[1.0, 1.0],
        noise_dl=[1.0, 1.0],
        noise_ul=[1.0, 1.0],
    )


class TestBruteForce:
    def test_single_user_full_power(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        res = brute_force_optimum(net)
        assert res.power == pytest.approx([1.0])
        assert res.min_sinr == pytest.approx(2.0)

    def test_pair_block_optimum_and_configurations(self):
        net = pair_block_network()
        res = brute_force_optimum(net)
        assert res.min_sinr == pytest.approx(SAT_GAMMA, abs=1e-6)
        # winning association is one of the two splits with powers {p_low, 1}
        assert sorted(res.association.tolist()) == [0, 1]
        np.testing.assert_allclose(np.sort(res.power), [P_LOW, 1.0], atol=1e-6)
        # per-configuration values: both splits at the optimum, both
        # shared-BS associations at 0.4
        values = {
            (0, 1): SAT_GAMMA,
            (1, 0): SAT_GAMMA,
            (0, 0): 0.4,
            (1, 1): 0.4,
        }
        for assoc, expected in values.items():
            assert solve_power(net, list(assoc)).min_sinr == pytest.approx(expected, abs=1e-6)

    def test_dominates_every_algorithm(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            net = random_network(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            star = brute_force_optimum(net).min_sinr
            assert star >= dlsum(net).result.min_sinr - 1e-9
            assert star >= dlsuma(net).result.min_sinr - 1e-9
            greedy = solve_power(net, max_snr_association(net)).min_sinr
            assert star >= greedy - 1e-9

    def test_size_cap_refusal(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, 4, 10)  # 4**10 > MAX_CANDIDATES
        with pytest.raises(ValueError):
            brute_force_optimum(net)

    def test_never_runs_a_fixed_point(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fixed point used")

        monkeypatch.setattr(power, "_run_fixed_point", forbidden)
        res = brute_force_optimum(frozen_network("uni_3x0_k3_10db_seed3"))
        assert res.converged
        formula = CnfFormula(n_vars=2, clauses=((1, 2, -1), (-2, 1, 2), (-1, -2, 1)))
        assert verify_sat_equivalence(formula).agrees

    def test_ties_resolve_to_the_first_candidate(self):
        # the two split configurations of the second variable block tie
        # exactly; the fixed point's rounding used to pick the later one
        net = build_3sat_gadget(CnfFormula(2, ((2, -2, 1), (-2, -1, 1)))).network
        links = [np.flatnonzero(net.gain[:, k] > 0).tolist() for k in range(net.n_users)]
        candidates = list(itertools.product(*links))
        values = [solve_power_exact(net, list(c)).min_sinr for c in candidates]
        first = next(c for c, v in zip(candidates, values) if v >= max(values) * (1 - 1e-9))
        assert first == (0, 1, 2, 3, 4, 5)
        assert tuple(brute_force_optimum(net).association) == first
        # a later candidate better by 1e-7, well above the tie margin, wins
        net = Network(gain=[[1.0], [1.0 + 1e-7]], budget=[1.0, 1.0], noise_dl=[1.0], noise_ul=[1.0, 1.0])
        assert brute_force_optimum(net).association.tolist() == [1]

    def test_singular_row_is_infeasible_within_a_batch(self):
        # at gamma = 2 the first association has rho(gamma B) = 1, so
        # I - gamma B is exactly singular; the second has rho = 0
        net = Network(
            gain=[[1.0, 0.5], [0.5, 1.0], [1.0, 0.0]],
            budget=[1e12, 1e12, 1e12],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0, 1.0],
        )
        p, feasible = power._target_power(net, np.array([[0, 1], [2, 1]]), 2.0)
        assert feasible.tolist() == [False, True]
        np.testing.assert_allclose(p[1], [4.0, 2.0], rtol=1e-14)


class TestPairValues:
    def test_reference_constants(self):
        pair = gadget_pair_values(2.0, 1.0)
        assert pair.values[0] == pytest.approx(SAT_GAMMA, abs=1e-15)
        assert pair.values[1] == pytest.approx(SAT_GAMMA, abs=1e-15)
        assert pair.values[2] == pytest.approx(0.4, abs=1e-15)
        assert pair.values[3] == pytest.approx(0.4, abs=1e-15)
        assert pair.split_powers[0] == pytest.approx(P_LOW, abs=1e-15)
        assert pair.split_powers[1] == 1.0

    def test_unit_gains(self):
        pair = gadget_pair_values(1.0, 1.0)
        assert pair.values[0] == pytest.approx(0.5)
        assert pair.values[2] == pytest.approx(1.0 / 3.0)
        net = Network(
            gain=np.ones((2, 2)), budget=[1.0, 1.0], noise_dl=[1.0, 1.0], noise_ul=[1.0, 1.0]
        )
        assert brute_force_optimum(net).min_sinr == pytest.approx(0.5, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            gadget_pair_values(1.0, 2.0)
        with pytest.raises(ValidationError):
            gadget_pair_values(2.0, 0.0)


class TestGadgetConstruction:
    def test_single_clause_link_pattern(self):
        formula = CnfFormula(n_vars=3, clauses=((1, -2, 3),))
        gadget = build_3sat_gadget(formula)
        g = gadget.network.gain
        clause_user = gadget.clause_index[0]
        # the clause user hears its own BS plus exactly the three literal BSs
        hears = np.flatnonzero(g[:, clause_user] > 0)
        expected = sorted(
            [
                gadget.clause_index[0],
                gadget.pos_index[0],
                gadget.neg_index[1],
                gadget.pos_index[2],
            ]
        )
        assert hears.tolist() == expected
        assert g[gadget.clause_index[0], clause_user] == pytest.approx(CLAUSE_GAIN)
        assert g[gadget.pos_index[0], clause_user] == 1.0
        # clause BS reaches nobody else
        assert np.flatnonzero(g[gadget.clause_index[0]] > 0).tolist() == [clause_user]

    def test_blocks_are_isolated(self):
        formula = CnfFormula(n_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))
        gadget = build_3sat_gadget(formula)
        g = gadget.network.gain
        for t in range(3):
            for s in range(3):
                if t == s:
                    continue
                for bs in (gadget.pos_index[t], gadget.neg_index[t]):
                    for user in (gadget.pos_index[s], gadget.neg_index[s]):
                        assert g[bs, user] == 0.0

    def test_receiver_gain_pattern(self):
        formula = CnfFormula(n_vars=1, clauses=((1, 1, 1),))
        gadget = build_3sat_gadget(formula)
        g = gadget.network.gain
        pos, neg = gadget.pos_index[0], gadget.neg_index[0]
        assert g[pos, pos] == g[neg, pos] == 2.0
        assert g[pos, neg] == g[neg, neg] == 1.0

    def test_repeated_literal_raises_interference_weight(self):
        formula = CnfFormula(n_vars=1, clauses=((1, 1, 1),))
        gadget = build_3sat_gadget(formula)
        assert gadget.network.gain[gadget.pos_index[0], gadget.clause_index[0]] == 3.0

    def test_block_alone_reaches_pair_optimum(self):
        formula = CnfFormula(n_vars=2, clauses=((1, 2, -1),))
        gadget = build_3sat_gadget(formula)
        g = gadget.network.gain
        for t in range(2):
            idx = [gadget.pos_index[t], gadget.neg_index[t]]
            block = Network(
                gain=g[np.ix_(idx, idx)],
                budget=[1.0, 1.0],
                noise_dl=[1.0, 1.0],
                noise_ul=[1.0, 1.0],
            )
            assert brute_force_optimum(block).min_sinr == pytest.approx(SAT_GAMMA, abs=1e-6)

    def test_clause_side_arithmetic(self):
        # with every literal power in {1, p_low} and at least one at the low
        # value, the clause user at full clause-BS power clears the threshold
        for low_mask in range(1, 8):
            powers = [P_LOW if low_mask & (1 << i) else 1.0 for i in range(3)]
            sinr = CLAUSE_GAIN / (1.0 + sum(powers))
            assert sinr >= SAT_GAMMA - 1e-12
        # all-high is the violated-clause case and must fall short
        assert CLAUSE_GAIN / (1.0 + 3.0) < SAT_GAMMA - 1e-3


class TestSatisfiable:
    def test_simple_cases(self):
        assert satisfiable(CnfFormula(n_vars=3, clauses=((1, 2, 3),)))
        assert satisfiable(CnfFormula(n_vars=1, clauses=((1, 1, -1),)))  # tautology
        assert not satisfiable(
            CnfFormula(n_vars=1, clauses=((1, 1, 1), (-1, -1, -1)))
        )

    def test_matches_truth_table(self):
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(200):
            n_vars = int(rng.integers(1, 5))
            clauses = random_formula(rng, n_vars, int(rng.integers(1, 9)))
            formula = CnfFormula(n_vars=n_vars, clauses=clauses)
            expected = truth_table_sat(n_vars, clauses)
            assert satisfiable(formula) == expected
            seen.add(expected)
        assert seen == {True, False}


class TestEquivalence:
    def test_satisfiable_formula_reaches_threshold(self):
        report = verify_sat_equivalence(CnfFormula(n_vars=3, clauses=((1, 2, 3),)))
        assert report.sat_by_solver
        assert report.network_opt == pytest.approx(SAT_GAMMA, abs=1e-6)
        assert report.agrees

    def test_padded_single_literal_formula(self):
        report = verify_sat_equivalence(CnfFormula(n_vars=1, clauses=((1, 1, 1),)))
        assert report.sat_by_solver
        assert report.network_opt == pytest.approx(SAT_GAMMA, abs=1e-6)
        assert report.agrees

    def test_unsat_core_stays_below_threshold(self):
        formula = CnfFormula(n_vars=1, clauses=((1, 1, 1), (-1, -1, -1)))
        report = verify_sat_equivalence(formula)
        assert not report.sat_by_solver
        # margin observed for this fixture: optimum ~0.53886, ~9.7e-3 below
        assert report.network_opt < SAT_GAMMA - 5e-3
        assert report.agrees

    def test_tautological_clause(self):
        report = verify_sat_equivalence(CnfFormula(n_vars=1, clauses=((1, 1, -1),)))
        assert report.sat_by_solver
        assert report.network_opt == pytest.approx(SAT_GAMMA, abs=1e-6)
        assert report.agrees

    def test_size_cap(self):
        formula = CnfFormula(n_vars=3, clauses=tuple([(1, 2, 3)] * 12))
        with pytest.raises(ValueError):
            verify_sat_equivalence(formula)


class TestCnfParsing:
    def test_formula_validation(self):
        with pytest.raises(ValidationError):
            CnfFormula(n_vars=2, clauses=((1, 2),))
        with pytest.raises(ValidationError):
            CnfFormula(n_vars=2, clauses=((1, 2, 0),))
        with pytest.raises(ValidationError):
            CnfFormula(n_vars=2, clauses=((1, 2, 3),))
        with pytest.raises(ValidationError):
            CnfFormula(n_vars=2, clauses=())
        with pytest.raises(ValidationError, match="at least one variable"):
            CnfFormula(n_vars=0, clauses=((1, 1, 1),))

    def test_dimacs_round_trip(self):
        text = """c an example
p cnf 3 2
1 -2 3 0
-1 2 -3 0
"""
        formula = cnf_from_dimacs(text)
        assert formula.n_vars == 3
        assert formula.clauses == ((1, -2, 3), (-1, 2, -3))

    def test_satlib_trailer_ends_the_formula(self):
        text = (DATA / "satlib_trailer_3var.cnf").read_text()
        body, trailer = text.split("%\n")
        assert trailer.split() == ["0"]
        assert cnf_from_dimacs(text) == cnf_from_dimacs(body)
        assert cnf_from_dimacs(body).clauses == ((1, -2, 3), (-1, 2, 3))

    def test_dimacs_errors(self):
        with pytest.raises(ValidationError):
            cnf_from_dimacs("p cnf 2 1\n1 -2 0\n")
        with pytest.raises(ValidationError):
            cnf_from_dimacs("1 2 3 0\n")
        with pytest.raises(ValidationError):
            cnf_from_dimacs("p cnf 3 1\n1 2 3\n")
        for bad in ("p dnf 3 1\n1 2 3 0\n", "p cnf 3\n1 2 3 0\n"):
            with pytest.raises(ValidationError, match="bad DIMACS header"):
                cnf_from_dimacs(bad)
        for bad in ("p cnf 1 1\n1 a 1 0\n", "p cnf x 1\n1 1 1 0\n", "p cnf 1 1.5\n1 1 1 0\n"):
            with pytest.raises(ValidationError, match="non-integer"):
                cnf_from_dimacs(bad)
