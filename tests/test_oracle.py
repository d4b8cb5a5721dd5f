"""Oracle-layer tests: exhaustive optimum, the 3-SAT network gadget, and the
satisfiability equivalence check."""

import itertools
import json
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

from hetnet_maxmin.model import (
    _BLOCK_ENTRIES,
    Network,
    ValidationError,
    max_snr_association,
)
from hetnet_maxmin.oracle import (
    CLAUSE_GAIN,
    SAT_GAMMA,
    CnfFormula,
    brute_force_optimum,
    build_3sat_gadget,
    cnf_from_dimacs,
    satisfiable,
    verify_sat_equivalence,
)
from hetnet_maxmin import oracle, power
from hetnet_maxmin.power import solve_power, solve_power_exact
from hetnet_maxmin.twostage import dlsum, dlsuma

from helpers import (
    DATA,
    exhaustive_exact_optimum,
    frozen_network,
    pair_block_network,
    random_formula,
    random_network,
    target_power,
    truth_table_sat,
    wide_range_networks,
)

P_LOW = (math.sqrt(7.0) - 1.0) / 2.0


def gadget_layout(formula: CnfFormula) -> tuple[list[int], list[int], list[int]]:
    """Clause, positive and negated BS/user indices of the gadget's layout."""
    m, t = formula.n_clauses, formula.n_vars
    return list(range(m)), [m + 2 * i for i in range(t)], [m + 2 * i + 1 for i in range(t)]


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
        # with unit gains everywhere the block's optimum falls to 0.5
        ones = Network(gain=np.ones((2, 2)), budget=[1.0, 1.0], noise_dl=[1.0, 1.0], noise_ul=[1.0, 1.0])
        assert brute_force_optimum(ones).min_sinr == pytest.approx(0.5, abs=1e-6)

    def test_dominates_every_algorithm(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            net = random_network(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            star = brute_force_optimum(net).min_sinr
            assert star >= dlsum(net).result.min_sinr - 1e-9
            assert star >= dlsuma(net).result.min_sinr - 1e-9
            greedy = solve_power(net, max_snr_association(net)).min_sinr
            assert star >= greedy - 1e-9

    def test_size_cap_refusal(self, monkeypatch):
        rng = np.random.default_rng(1)
        net = random_network(rng, 4, 10)  # 4**10 > MAX_CANDIDATES
        # refused before the first chunk: no coupling is built
        monkeypatch.setattr(oracle, "_coupling", None)
        with pytest.raises(ValueError) as refusal:
            brute_force_optimum(net)
        assert str(refusal.value) == "1048576 candidate associations exceed the cap of 1000000"

    @pytest.mark.parametrize(
        "n_bs, counts",
        [
            # with zero links, in chunks of 2^16 // K^2 rows: 23 * 89 candidates
            # in one chunk of 16,384; 2^11 over chunks of 541; 2 * 11 * 331 =
            # 7,282, one row past a chunk of 7,281; 3^8 over chunks of 1,024
            (89, (23, 89)),
            (3, (2,) * 11),
            (683, (2, 11, 331)),
            (4, (3,) * 8),
            # every link present
            (2, (2,) * 11),
            (3, (3,) * 8),
            # 8^3 * 16 = 8,192: two full chunks of 4,096
            (16, (8, 8, 8, 16)),
            # K^2 = 66,049 exceeds 2^16: one association a chunk
            (2, (1,) * 255 + (2, 2)),
        ],
    )
    def test_chunks_decode_the_product_of_linked_bss_in_order(self, n_bs, counts):
        rng = np.random.default_rng(n_bs)
        linked = np.zeros((n_bs, len(counts)), dtype=bool)
        for k, count in enumerate(counts):
            linked[rng.choice(n_bs, size=count, replace=False), k] = True
        chunks = list(oracle._candidate_chunks(linked))
        rows = max(1, _BLOCK_ENTRIES // len(counts) ** 2)
        full, rest = divmod(math.prod(counts), rows)
        assert [len(c) for c in chunks] == [rows] * full + [rest] * (rest > 0)
        links = [np.flatnonzero(linked[:, k]).tolist() for k in range(len(counts))]
        assert np.concatenate(chunks).tolist() == [list(c) for c in itertools.product(*links)]

    def test_sat_gadget_runs_in_bounded_memory(self):
        # K = 11 and 16,384 candidates in 31 chunks of at most 541 rows: each
        # chunk's coupling and its screen copies hold about 2^16 floats.
        # Fixed chunks of 2,048 rows peak at 5.7 MB
        formula = cnf_from_dimacs((DATA / "sat_4var_3clause.cnf").read_text())
        net = build_3sat_gadget(formula)
        tracemalloc.start()
        try:
            res = brute_force_optimum(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6
        pins = json.loads((DATA / "brute_force_pins.json").read_text())
        (pin,) = [f["gadget_optimum"] for f in pins["formulas"] if f["n_vars"] == 4]
        assert res.association.tolist() == pin["association"]
        assert res.min_sinr.hex() == pin["min_sinr"]

    @pytest.mark.parametrize(
        "name, gamma",
        [("brute_screen_rounding_3x4", 0.03), ("brute_screen_load_rounding_3x4", 5.5e-7)],
        ids=["sign", "load"],
    )
    def test_screen_keeps_the_optimum_of_a_wide_range_network(self, name, gamma):
        # sign: at gamma = 0.03 the LU solve puts -5.3e-27 in the least power
        # of the optimum (2, 0, 1, 1), beside entries of 1e-7 to 1.5e-5, and
        # a sign test returned 0.0303 at (2, 0, 0, 2) instead of 1 - 2.3e-14.
        # load: at gamma = 5.5e-7 it puts 1.3e-11 on user 1 of (1, 0, 1, 1),
        # alone on a BS with a budget of 7.7e-12, beside entries up to 2.3e7,
        # and the load test returned 5.5e-7 at (0, 0, 1, 1) instead of 1.0e-5
        net = frozen_network(name)
        optimum = max_snr_association(net).tolist()
        assert target_power(net, optimum, gamma)[1]
        best = brute_force_optimum(net)
        assert best.association.tolist() == optimum
        assert best.min_sinr == pytest.approx(exhaustive_exact_optimum(net), rel=1e-9, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(wide_range_networks())
    def test_equals_the_exhaustive_exact_optimum_on_wide_range_draws(self, net):
        try:
            expected = exhaustive_exact_optimum(net)
        except ValueError:
            with pytest.raises(ValueError):
                brute_force_optimum(net)
            return
        assert brute_force_optimum(net).min_sinr == pytest.approx(expected, rel=1e-9, abs=0.0)

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
        net = build_3sat_gadget(CnfFormula(2, ((2, -2, 1), (-2, -1, 1))))
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
        batch = np.array([[0, 1], [2, 1]])
        p, feasible = power._target_power(net, batch, 2.0, power._coupling(net, batch))
        assert feasible.tolist() == [False, True]
        np.testing.assert_allclose(p[1], [4.0, 2.0], rtol=1e-14)


class TestGadgetConstruction:
    def test_single_clause_link_pattern(self):
        formula = CnfFormula(n_vars=3, clauses=((1, -2, 3),))
        g = build_3sat_gadget(formula).gain
        clause, pos, neg = gadget_layout(formula)
        clause_user = clause[0]
        # the clause user hears its own BS plus exactly the three literal BSs
        hears = np.flatnonzero(g[:, clause_user] > 0)
        assert hears.tolist() == sorted([clause[0], pos[0], neg[1], pos[2]])
        assert g[clause[0], clause_user] == pytest.approx(CLAUSE_GAIN)
        assert g[pos[0], clause_user] == 1.0
        # clause BS reaches nobody else
        assert np.flatnonzero(g[clause[0]] > 0).tolist() == [clause_user]

    def test_blocks_are_isolated(self):
        formula = CnfFormula(n_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))
        g = build_3sat_gadget(formula).gain
        _, pos, neg = gadget_layout(formula)
        for t in range(3):
            for s in range(3):
                if t == s:
                    continue
                for bs in (pos[t], neg[t]):
                    for user in (pos[s], neg[s]):
                        assert g[bs, user] == 0.0

    def test_receiver_gain_pattern(self):
        formula = CnfFormula(n_vars=1, clauses=((1, 1, 1),))
        g = build_3sat_gadget(formula).gain
        _, (pos,), (neg,) = gadget_layout(formula)
        assert g[pos, pos] == g[neg, pos] == 2.0
        assert g[pos, neg] == g[neg, neg] == 1.0

    def test_repeated_literal_raises_interference_weight(self):
        formula = CnfFormula(n_vars=1, clauses=((1, 1, 1),))
        clause, pos, _ = gadget_layout(formula)
        assert build_3sat_gadget(formula).gain[pos[0], clause[0]] == 3.0

    def test_block_alone_reaches_pair_optimum(self):
        formula = CnfFormula(n_vars=2, clauses=((1, 2, -1),))
        g = build_3sat_gadget(formula).gain
        for idx in zip(*gadget_layout(formula)[1:]):
            block = Network(
                gain=g[np.ix_(idx, idx)],
                budget=[1.0, 1.0],
                noise_dl=[1.0, 1.0],
                noise_ul=[1.0, 1.0],
            )
            assert brute_force_optimum(block).min_sinr == pytest.approx(SAT_GAMMA, abs=1e-6)

    def test_gadget_equals_the_checked_network_of_its_arrays(self):
        rng = np.random.default_rng(8)
        for n_vars, n_clauses in itertools.product((1, 2, 3, 4), (1, 2, 3)):
            net = build_3sat_gadget(CnfFormula(n_vars, random_formula(rng, n_vars, n_clauses)))
            checked = Network(net.gain, net.budget, net.noise_dl, net.noise_ul)
            for f in fields(Network):
                built, expected = getattr(net, f.name), getattr(checked, f.name)
                assert built.dtype == expected.dtype and built.shape == expected.shape, f.name
                assert built.tobytes() == expected.tobytes(), f.name
                assert not built.flags.writeable, f.name

    def test_size_cap_raises_before_allocating(self, monkeypatch):
        # 1 clause and 1,000 variables make 2,001 BSs, one over the cap
        formula = CnfFormula(n_vars=1000, clauses=((1, 2, 3),))
        monkeypatch.setattr(np, "zeros", None)
        with pytest.raises(ValidationError, match="a gadget of 2001 BSs .* exceeds the cap of 2000"):
            build_3sat_gadget(formula)

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

    def test_candidate_cap(self):
        # 2^19 assignments fit under MAX_CANDIDATES and 2^20 do not; the first
        # assignment, all false, satisfies the clause
        assert satisfiable(CnfFormula(n_vars=19, clauses=((-1, -1, -1),)))
        with pytest.raises(ValueError, match="exceed the cap"):
            satisfiable(CnfFormula(n_vars=20, clauses=((-1, -1, -1),)))


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

    @pytest.mark.parametrize(
        "n_vars, clause",
        [(1, (1.5, 1, 1)), (1, ("1", 1, 1)), (1, (True, 1, 1)), (1.5, (1, 1, 1)), ("1", (1, 1, 1))],
        ids=["float-literal", "string-literal", "bool-literal", "float-n_vars", "string-n_vars"],
    )
    def test_formula_rejects_non_integers(self, n_vars, clause):
        # int() once truncated 1.5 to 1 and parsed "1"
        with pytest.raises(ValidationError, match="integer|type int"):
            CnfFormula(n_vars=n_vars, clauses=(clause,))

    @pytest.mark.parametrize(
        "body, clause",
        [("0\n", "()"), ("1 -2 0\n", "(1, -2)"), ("1 -2 3 -1 0\n", "(1, -2, 3, -1)")],
        ids=["0-literals", "2-literals", "4-literals"],
    )
    def test_dimacs_clause_length_is_the_formula_rule(self, body, clause):
        # the parser leaves the length to CnfFormula, which names the clause
        with pytest.raises(ValidationError, match=f"^clause {re.escape(clause)} must have exactly 3 literals$"):
            cnf_from_dimacs("p cnf 3 1\n" + body)

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
        # a truncated file once checked a shorter formula, and a second header
        # once replaced the first's variable count
        with pytest.raises(ValidationError, match="declares 5 clauses, the text holds 1"):
            cnf_from_dimacs("p cnf 3 5\n1 2 3 0\n")
        with pytest.raises(ValidationError, match="second DIMACS header"):
            cnf_from_dimacs("p cnf 3 1\n1 2 3 0\np cnf 3 1\n")
