"""Assignment-layer tests: log-gain construction, Hungarian vs exhaustive
search, the auction's optimality gap and price dynamics, and the
matched-association solvers with their optimality certificates."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hetnet_maxmin.matching import (
    FORBIDDEN,
    AssignmentProblem,
    AuctionState,
    InfeasibleMatchingError,
    auction,
    aufp,
    default_eps,
    hungarian,
    log_gain_matrix,
    solve_p1prime,
)
from hetnet_maxmin.model import Network, ValidationError
from hetnet_maxmin.oracle import brute_force_optimum
from hetnet_maxmin.scenario import generate_hetnet, scenario_from_json

from helpers import (
    DATA,
    exhaustive_assignment,
    fresh_python,
    frozen_network,
    random_network,
    target_power,
)


# Networks whose auction at the default eps is a price war: BSs with equal
# gain rows, and users with equal gain columns.
PRICE_WARS = ["price_war_equal_rows_3x3", "price_war_equal_columns_3x3"]


def random_problem(rng: np.random.Generator, k: int) -> AssignmentProblem:
    return AssignmentProblem(gain=rng.normal(0.0, 1.0, size=(k, k)))


def pinned_auction_input(case: dict) -> tuple[AssignmentProblem, float]:
    """The problem and eps of one ``auction_states.json`` case: a scenario
    draw or a frozen network, at the default eps unless the case gives one
    (as ``float.hex``)."""
    if "scenario" in case:
        net = generate_hetnet(scenario_from_json(case["scenario"])).network
    else:
        net = frozen_network(case["network"])
    prob = log_gain_matrix(net)
    return prob, default_eps(prob) if case["eps"] is None else float.fromhex(case["eps"])


def auction_state_doc(state: AuctionState) -> dict:
    """Every output of an auction, floats exact: prices as ``float.hex`` and
    the total gain as its repr."""
    return {
        "assignment": state.assignment.tolist(),
        "rounds": state.rounds,
        "bids": state.bids,
        "total_gain": repr(state.total_gain),
        "prices": [p.hex() for p in state.prices.tolist()],
    }


class TestLogGainMatrix:
    def test_elementwise_log(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, 3, 3)
        prob = log_gain_matrix(net)
        np.testing.assert_allclose(prob.gain, np.log(net.gain))

    def test_diagonal_dominant_example(self):
        e = math.e
        net = Network(
            gain=[[e, 1.0, 1.0], [1.0, e, 1.0], [1.0, 1.0, e]],
            budget=[1.0] * 3,
            noise_dl=[1.0] * 3,
            noise_ul=[1.0] * 3,
        )
        prob = log_gain_matrix(net)
        np.testing.assert_allclose(np.diag(prob.gain), [1.0, 1.0, 1.0])
        assert prob.gain[0, 1] == pytest.approx(0.0)

    def test_zero_gain_becomes_forbidden(self):
        net = Network(
            gain=[[1.0, 2.0], [0.0, 1.0]],
            budget=[1.0, 1.0],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        prob = log_gain_matrix(net)
        assert prob.gain[1, 0] == FORBIDDEN

    def test_requires_square_network(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError):
            log_gain_matrix(random_network(rng, 2, 3))


class TestAssignmentProblem:
    def test_forbidden_is_log_zero(self):
        assert FORBIDDEN == -math.inf

    @pytest.mark.parametrize(
        "gain",
        [[[math.nan, 1.0], [1.0, 1.0]], [[math.inf, 0.0], [0.0, 0.0]]],
        ids=["nan", "plus-inf"],
    )
    def test_rejects_nan_and_plus_inf(self, gain):
        # nan would reach the auction's total_gain, and +inf would make
        # default_eps and the auction's eps floor inf or nan
        with pytest.raises(ValidationError, match="real numbers"):
            AssignmentProblem(gain=gain)

    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.one_of(st.just(np.ones((k, k), bool)), arrays(bool, (k, k)))
        )
    )
    @example(np.ones((1, 1), bool))
    @example(np.zeros((1, 1), bool))
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_the_patterns_without_a_perfect_matching(self, allowed):
        # both branches of the check, the one that skips it when nothing is
        # forbidden included, against every permutation
        k = allowed.shape[0]
        perfect = any(
            all(allowed[perm[user], user] for user in range(k))
            for perm in itertools.permutations(range(k))
        )
        gain = np.where(allowed, 1.0, FORBIDDEN)
        if perfect:
            assert AssignmentProblem(gain=gain).k == k
        else:
            with pytest.raises(InfeasibleMatchingError):
                AssignmentProblem(gain=gain)


# Imports the CLI, runs every algorithm on an N = K draw, or only the
# Hungarian reference, in a fresh interpreter and prints which of
# scipy.optimize, scipy, scipy.linalg, concurrent.futures.process and orjson
# were imported.
_FOOTPRINT_SCRIPT = """
import json
import sys
import hetnet_maxmin.cli
from hetnet_maxmin.harness import ExperimentSpec, run_trial
from hetnet_maxmin.matching import solve_p1prime
from hetnet_maxmin.scenario import ScenarioConfig, generate_hetnet

scenario = ScenarioConfig(n_macro=3, picos_per_macro=0, n_users=3, seed=5)
if sys.argv[1] == "p1prime":
    assert solve_p1prime(generate_hetnet(scenario).network).result.min_sinr > 0
else:
    algorithms = ("maxsnr", "ulsum", "ulsuma", "dlsum", "dlsuma", "aufp", "brute")
    spec = ExperimentSpec(scenario=scenario, snr_db=(15.0,), algorithms=algorithms, n_runs=1)
    cells = run_trial(spec, 0, 15.0).cells
    assert all(cell.min_sinr is not None for cell in cells.values()), cells
names = ("scipy.optimize", "scipy", "scipy.linalg", "concurrent.futures.process", "orjson")
print(json.dumps({name: name in sys.modules for name in names}))
"""


class TestImportFootprint:
    @pytest.mark.parametrize("run, loaded", [("all-but-p1prime", False), ("p1prime", True)])
    def test_scipy_optimize_loads_only_for_a_general_assignment_solve(self, run, loaded):
        # a fresh interpreter: this one already imported scipy.stats for the
        # scenario tests, and scipy.optimize with it.  Without p1prime no
        # scipy package loads at all (dgesv comes from the _flapack extension
        # alone), and a serial run loads no process-pool module.  Importing
        # the CLI and running trials reads and writes no document, so neither
        # loads the JSON codec.
        proc = fresh_python("-c", _FOOTPRINT_SCRIPT, run, timeout=120)
        assert proc.returncode == 0, proc.stderr
        modules = json.loads(proc.stdout)
        assert modules.pop("orjson") is False
        assert modules.pop("scipy.optimize") is loaded
        if not loaded:
            assert modules == {"scipy": False, "scipy.linalg": False, "concurrent.futures.process": False}


class TestHungarian:
    def test_diagonal_dominant_identity(self):
        gain = np.full((3, 3), -1.0)
        np.fill_diagonal(gain, 10.0)
        assignment, total = hungarian(AssignmentProblem(gain=gain))
        assert assignment.tolist() == [0, 1, 2]
        assert total == pytest.approx(30.0)

    def test_cross_pattern(self):
        # strongest total pairs user 0 with BS 1, user 1 with BS 0, user 2 with BS 2
        gain = np.log(
            np.array(
                [
                    [1.0, 9.0, 1.0],
                    [8.0, 1.0, 1.0],
                    [1.0, 1.0, 7.0],
                ]
            )
        )
        assignment, total = hungarian(AssignmentProblem(gain=gain))
        assert assignment.tolist() == [1, 0, 2]
        assert total == pytest.approx(math.log(8.0) + math.log(9.0) + math.log(7.0))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            prob = random_problem(rng, k)
            assignment, total = hungarian(prob)
            _, best = exhaustive_assignment(prob.gain)
            assert total == pytest.approx(best, abs=1e-12)

    def test_infeasible_matching_detected(self):
        # users 0 and 1 both accept only BS 0: no perfect matching exists,
        # even though every row and column has an allowed entry, and the
        # problem cannot even be built
        gain = np.array(
            [
                [1.0, 1.0, FORBIDDEN],
                [FORBIDDEN, FORBIDDEN, 1.0],
                [FORBIDDEN, FORBIDDEN, 1.0],
            ]
        )
        with pytest.raises(InfeasibleMatchingError):
            AssignmentProblem(gain=gain)


class TestAuction:
    def test_single_user(self):
        prob = AssignmentProblem(gain=np.array([[3.0]]))
        state = auction(prob, eps=0.5)
        assert state.assignment.tolist() == [0]
        assert state.total_gain == pytest.approx(3.0)

    def test_two_by_two_identity(self):
        prob = AssignmentProblem(gain=np.array([[1.0, 0.0], [0.0, 1.0]]))
        for eps in (0.4, 0.1, 1e-3):
            state = auction(prob, eps=eps)
            assert state.assignment.tolist() == [0, 1]

    def test_gap_within_k_eps_of_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            prob = random_problem(rng, k)
            eps = default_eps(prob)
            state = auction(prob, eps=eps)
            _, best = exhaustive_assignment(prob.gain)
            assert state.total_gain >= best - k * eps - 1e-12

    def test_prices_increase_by_at_least_eps(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, 5)
        # every BS ends up assigned, so each price took at least one
        # increment of margin + eps, and a margin is never negative
        state = auction(prob, eps=0.05)
        assert np.all(state.prices >= 0.05)

    def test_round_count_within_zero_price_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            prob = random_problem(rng, k)
            eps = 0.05
            state = auction(prob, eps=eps)
            cap = math.ceil(float(np.abs(prob.gain).max()) / eps) + k
            assert state.rounds <= cap

    def test_eps_complementary_slackness(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            prob = random_problem(rng, k)
            eps = 1e-3
            state = auction(prob, eps=eps)
            values = prob.gain - state.prices[:, None]
            for user in range(k):
                own = values[state.assignment[user], user]
                assert own >= values[:, user].max() - eps - 1e-12

    def test_gain_shift_leaves_assignment_unchanged(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, 4, 4)
        scaled = Network(
            gain=net.gain * 7.3,
            budget=net.budget,
            noise_dl=net.noise_dl,
            noise_ul=net.noise_ul,
        )
        base_prob, scaled_prob = log_gain_matrix(net), log_gain_matrix(scaled)
        h_base, _ = hungarian(base_prob)
        h_scaled, _ = hungarian(scaled_prob)
        assert h_base.tolist() == h_scaled.tolist()
        a_base = auction(base_prob, eps=1e-4)
        a_scaled = auction(scaled_prob, eps=1e-4)
        assert a_base.assignment.tolist() == a_scaled.assignment.tolist()

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            auction(AssignmentProblem(gain=np.eye(2)), eps=0.0)

    def test_rejects_infinite_eps(self):
        # with eps = inf the k * eps optimality bound says nothing
        with pytest.raises(ValueError):
            auction(AssignmentProblem(gain=np.eye(2)), eps=math.inf)

    def test_rejects_eps_below_float_spacing_of_tied_gains(self):
        # every log-gain is 1.0: below spacing(2.0) = 4.4e-16 a price step
        # vanishes in gain - price, and at eps = 1e-21 the tie took 111,025 rounds
        net = frozen_network("tied_3x3")
        start = time.process_time()
        with pytest.raises(ValueError, match="eps"):
            aufp(net, eps=1e-25)
        assert time.process_time() - start < 1.0
        assert aufp(net, eps=np.spacing(2.0)).auction.rounds == 3

    def test_final_states_match_the_recording(self):
        # recorded with the per-user bidding loop the array bidding replaced:
        # criterion-09 draws (seeds 0-49), three draws each at K = 57 and
        # K = 100 (35 dB), and the tied 3x3 gains at eps = spacing(2.0)
        cases = json.loads((DATA / "auction_states.json").read_text())
        assert len(cases) == 57
        for name, case in cases.items():
            prob, eps = pinned_auction_input(case)
            state = auction(prob, eps)
            assert auction_state_doc(state) == case["state"], name
            assert not state.eps_scaled, name

    @pytest.mark.parametrize("name", PRICE_WARS)
    def test_price_war_ends_by_eps_scaling_within_k_eps(self, name):
        prob = log_gain_matrix(frozen_network(name))
        eps = default_eps(prob)
        start = time.process_time()
        state = auction(prob, eps)
        assert time.process_time() - start < 2.0
        # the plain auction used its 1,000 + 64 k rounds; the phases ended it
        assert state.eps_scaled and state.rounds > 1_000 + 64 * prob.k
        assert sorted(state.assignment.tolist()) == list(range(prob.k))
        assert state.total_gain >= hungarian(prob)[1] - prob.k * eps
        # eps-complementary slackness at the final prices
        values = prob.gain - state.prices[:, None]
        own = values[state.assignment, np.arange(prob.k)]
        assert np.all(own >= values.max(axis=0) - eps - 1e-12)

    @pytest.mark.parametrize("k", [4, 18])
    def test_identical_columns_end_by_eps_scaling(self, k):
        # every user ranks the BSs k, k - 1, ..., 1: at the default eps the
        # 4 x 4 war still ran after 19 s
        prob = AssignmentProblem(gain=np.tile(np.arange(k, 0, -1.0)[:, None], (1, k)))
        eps = default_eps(prob)
        start = time.process_time()
        state = auction(prob, eps)
        assert time.process_time() - start < 2.0
        assert state.eps_scaled
        assert state.total_gain >= hungarian(prob)[1] - k * eps

    def test_default_eps_never_below_float_spacing(self):
        # a spread of 1e-12 around 30 gives 1e-18, below spacing(60) = 7.1e-15
        prob = AssignmentProblem(gain=np.array([[30.0, 30.0], [30.0, 30.0 + 1e-12]]))
        assert default_eps(prob) == np.spacing(60.0)
        assert auction(prob, default_eps(prob)).assignment.tolist() == [0, 1]


class TestMatchedSolvers:
    def test_single_user(self):
        net = Network(gain=[[3.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        res = solve_p1prime(net)
        assert res.status == "optimal"
        assert res.result.min_sinr == pytest.approx(3.0)
        dis = aufp(net, eps=1e-6)
        assert dis.status == "optimal"
        assert dis.result.min_sinr == pytest.approx(3.0)

    def test_optimal_when_brute_force_clears_one(self):
        rng = np.random.default_rng(12)
        certified = 0
        for _ in range(60):
            net = random_network(rng, 3, 3, spread=1.0)
            star = brute_force_optimum(net)
            res = solve_p1prime(net)
            dis = aufp(net, eps=1e-8)
            if star.min_sinr >= 1.0 + 1e-9:
                assert res.status == "optimal"
                assert res.result.min_sinr == pytest.approx(star.min_sinr, rel=1e-6)
                assert dis.result.min_sinr == pytest.approx(star.min_sinr, rel=1e-6)
                assert res.result.association.tolist() == dis.result.association.tolist()
                certified += 1
            elif star.min_sinr < 1.0 - 1e-9:
                assert res.status == "infeasible"
        assert certified >= 5

    def test_symmetric_gains_are_infeasible(self):
        net = Network(
            gain=np.ones((3, 3)),
            budget=[1.0] * 3,
            noise_dl=[1.0] * 3,
            noise_ul=[1.0] * 3,
        )
        res = solve_p1prime(net)
        assert res.status == "infeasible"
        assert res.result.min_sinr < 1.0

    def test_requires_square_network(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValidationError):
            solve_p1prime(random_network(rng, 3, 2))

    def test_aufp_fails_fast_without_perfect_matching(self):
        # users 1 and 2 both reach only BS 0; building the assignment problem
        # finds this before any bid, where an auction would bid without end
        import time

        net = Network(
            gain=[[math.e, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            budget=[1.0] * 3,
            noise_dl=[1.0] * 3,
            noise_ul=[1.0] * 3,
        )
        start = time.perf_counter()
        with pytest.raises(InfeasibleMatchingError):
            aufp(net)
        assert time.perf_counter() - start < 1.0

    def test_feasible_association_is_unique_and_matches_matching(self):
        # any association that can give everyone SINR >= 1 must be the
        # max-total-log-gain matching, and no second one can exist
        rng = np.random.default_rng(14)
        witnessed = 0
        for _ in range(40):
            net = random_network(rng, 3, 3, spread=1.0)
            feasible = []
            import itertools

            for perm in itertools.permutations(range(3)):
                if target_power(net, perm, 1.0)[1]:
                    feasible.append(list(perm))
            if feasible:
                assert len(feasible) == 1
                h_assign, _ = hungarian(log_gain_matrix(net))
                assert feasible[0] == h_assign.tolist()
                witnessed += 1
        assert witnessed >= 5

    def test_matching_invariant_under_bs_relabeling(self):
        rng = np.random.default_rng(15)
        net = random_network(rng, 4, 4)
        h_assign, _ = hungarian(log_gain_matrix(net))
        perm = rng.permutation(4)
        relabeled = Network(
            gain=net.gain[perm],
            budget=net.budget[perm],
            noise_dl=net.noise_dl,
            noise_ul=net.noise_ul[perm],
        )
        h_relabeled, _ = hungarian(log_gain_matrix(relabeled))
        # row r of the relabeled network is row perm[r] of the original
        assert [perm[r] for r in h_relabeled] == h_assign.tolist()
