"""Exact Perron-root kernels against the paper's fixed point.

``solve_power_exact`` and ``ulsum_exact`` must reach the optimum the
normalized fixed points ``solve_power`` and ``ulsum`` converge to (run here
at tol 1e-12), on random small networks with idle BSs, zero links and a
single user, and on the reducible 3-SAT gadget networks.  The exact
target-power test ``power._target_power`` must put that optimum on the
boundary between feasible and infeasible targets, and the brute force that
screens with it must find the best fixed-point value over all associations.
"""

import importlib.machinery
import importlib.util
import itertools

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hetnet_maxmin import oracle, power, sumpower
from hetnet_maxmin.harness import run_algorithm
from hetnet_maxmin.model import Network, downlink_sinr, max_snr_association
from hetnet_maxmin.oracle import CnfFormula, brute_force_optimum, build_3sat_gadget
from hetnet_maxmin.scenario import ScenarioConfig, generate_hetnet
from hetnet_maxmin.power import (
    FixedPointOptions,
    load_norm,
    perron_pair,
    solve_power,
    solve_power_exact,
)
from hetnet_maxmin.sumpower import ulsum, ulsum_exact
from hetnet_maxmin.twostage import dlsuma

from helpers import exhaustive_exact_optimum, frozen_network, loop_uplink_sinr, networks, target_power

REFERENCE = FixedPointOptions(tol=1e-12, max_iter=20_000)
PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def gadgets(draw):
    """3-SAT gadget networks: reducible, with exact gain ties."""
    n_vars = draw(st.integers(1, 2))
    literal = st.integers(1, n_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=1, max_size=2))
    return build_3sat_gadget(CnfFormula(n_vars=n_vars, clauses=tuple(clauses)))


def linked_association(draw, net: Network) -> np.ndarray:
    choices = [np.flatnonzero(net.gain[:, k] > 0) for k in range(net.n_users)]
    return np.array([int(draw(st.sampled_from(c.tolist()))) for c in choices])


@st.composite
def associated(draw, nets):
    net = draw(nets)
    return net, linked_association(draw, net)


def check_per_bs(net: Network, assoc: np.ndarray) -> None:
    ref = solve_power(net, assoc, REFERENCE)
    assume(ref.converged)
    res = solve_power_exact(net, assoc)
    assert res.converged
    assert res.association.tolist() == assoc.tolist()
    assert np.all(np.isfinite(res.power)) and np.all(res.power > 0)
    assert res.min_sinr == pytest.approx(ref.min_sinr, rel=1e-7)
    assert load_norm(res.power, assoc, net.budget) <= 1.0 + 1e-9
    assert res.sinr.max() - res.sinr.min() <= 1e-7 * res.sinr.min()
    assert res.residual <= 1e-10


@PROPERTY
@given(associated(networks()))
def test_per_bs_kernel_matches_fixed_point(case):
    check_per_bs(*case)


@PROPERTY
@given(associated(gadgets()))
def test_per_bs_kernel_on_sat_gadgets(case):
    check_per_bs(*case)


@PROPERTY
@given(associated(networks()))
def test_target_power_test_brackets_the_optimum(case):
    net, assoc = case
    t_star = solve_power_exact(net, assoc).min_sinr
    gamma = t_star * (1.0 - 1e-9)
    below, feasible = target_power(net, assoc, gamma)
    assert feasible
    assert downlink_sinr(net, assoc, below).min() >= gamma * (1.0 - 1e-9)
    assert load_norm(below, assoc, net.budget) <= 1.0 + 1e-9
    assert not target_power(net, assoc, t_star * (1.0 + 1e-6))[1]


@PROPERTY
@given(networks(max_bs=3, max_users=4))
def test_brute_force_screen_matches_fixed_point_on_every_candidate(net):
    # the fixed point shares no code with the target-power screen or the
    # Perron-root solve, so it keeps the oracle checked independently
    links = [np.flatnonzero(net.gain[:, k] > 0).tolist() for k in range(net.n_users)]
    values = []
    for cand in itertools.product(*links):
        ref = solve_power(net, list(cand), REFERENCE)
        assume(ref.converged)
        assert target_power(net, cand, ref.min_sinr * (1.0 - 1e-6))[1]
        assert not target_power(net, cand, ref.min_sinr * (1.0 + 1e-6))[1]
        values.append(ref.min_sinr)
    assert brute_force_optimum(net).min_sinr == pytest.approx(max(values), rel=1e-8)


def test_target_at_unit_spectral_radius_is_infeasible():
    # gamma B = [[0, 1], [1, 0]] has rho = 1: no finite power meets the
    # target, however large the budgets, and an iteration towards the
    # least power grows without end instead of settling
    import time

    net = Network(gain=[[1.0, 0.5], [0.5, 1.0]], budget=[1e12, 1e12], noise_dl=[1.0, 1.0], noise_ul=[1.0, 1.0])
    start = time.perf_counter()
    assert not target_power(net, [0, 1], 2.0)[1]
    assert time.perf_counter() - start < 1.0


def check_sum_power(net: Network, pool: float) -> None:
    ref = ulsum(net, pool, REFERENCE)
    assume(ref.converged)
    res = ulsum_exact(net, pool)
    assert res.converged
    assert res.gamma_sum == pytest.approx(ref.gamma_sum, rel=1e-7)
    assert float(res.power_ul.sum()) == pytest.approx(pool, rel=1e-12)
    sinr = loop_uplink_sinr(net, res.assoc, res.power_ul)
    assert sinr.max() - sinr.min() <= 1e-7 * sinr.min()
    assert sinr.min() == pytest.approx(res.gamma_sum, rel=1e-9)
    # the association is unique when every user's cheapest BS wins clearly
    costs = np.sort(sumpower._unit_power_map(net)(res.power_ul)[0], axis=0)
    if net.n_bs == 1 or np.all(costs[1] > costs[0] * (1 + 1e-6)):
        assert res.assoc.tolist() == ref.assoc.tolist()


@PROPERTY
@given(networks(), st.floats(-1.0, 2.0))
def test_sum_power_kernel_matches_fixed_point(net, log_pool):
    check_sum_power(net, 10.0**log_pool)


@PROPERTY
@given(gadgets())
def test_sum_power_kernel_on_sat_gadgets(net):
    check_sum_power(net, float(net.budget.sum()))


@st.composite
def coupling_matrices(draw, max_k=6):
    """B + u c^T: non-negative B with zero entries, u > 0, c >= 0 and not zero.

    The shape of every matrix the exact kernels solve; its Perron root is
    positive even when B is reducible or nilpotent.
    """
    k = draw(st.integers(1, max_k))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    b = draw(arrays(float, (k, k), elements=entries))
    u = draw(arrays(float, k, elements=st.floats(1e-6, 1e3)))
    c = draw(arrays(float, k, elements=entries))
    c[draw(st.integers(0, k - 1))] = draw(st.floats(1e-3, 1.0))
    return b + np.outer(u, c)


@PROPERTY
@given(coupling_matrices())
# the Noda iteration stalls here with a bracket of 2.3e-9 relative, above the residual bound
@example(np.array([[689, 1, 0, 0], [5e-7, 673, 0, 0], [387, 0, 0, 0], [387, 17, 0, 0]], dtype=float))
def test_perron_pair_matches_dense_eigenvalues(matrix):
    pair = perron_pair(matrix)
    assert pair.converged
    assert pair.vector.min() >= 0 and pair.vector.max() == pytest.approx(1.0)
    # the residual certifies a non-negative eigenpair; the dense eigenvalues,
    # only sqrt(eps)-accurate at a nearly defective root, show it is the top one
    residual = matrix @ pair.vector - pair.rho * pair.vector
    assert np.abs(residual).max() <= 1e-9 * pair.rho
    assert pair.rho == pytest.approx(np.linalg.eigvals(matrix).real.max(), rel=1e-6)


@st.composite
def relabeled_triangular(draw, max_k=8):
    """A strictly upper-triangular non-negative matrix with zero entries,
    rows and columns permuted alike: its support graph has no cycle."""
    k = draw(st.integers(1, max_k))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    order = np.array(draw(st.permutations(range(k))))
    return np.triu(draw(arrays(float, (k, k), elements=entries)), 1)[np.ix_(order, order)]


@PROPERTY
@given(relabeled_triangular(), st.floats(1e-3, 1e3), st.data())
def test_perron_pair_of_a_cycle_free_support_is_zero(matrix, weight, data):
    # no cycle: rho = 0 and the unit vector of a zero column, at once
    pair = perron_pair(matrix)
    assert (pair.rho, pair.steps, pair.converged, pair.dense) == (0.0, 0, True, False)
    assert sorted(pair.vector.tolist()) == [0.0] * (len(matrix) - 1) + [1.0]
    assert not (matrix @ pair.vector).any()
    # a self-loop closes a cycle; a triangular matrix's root is its largest
    # diagonal entry
    i = data.draw(st.integers(0, len(matrix) - 1))
    matrix[i, i] = weight
    pair = perron_pair(matrix)
    assert pair.converged
    assert pair.rho == pytest.approx(weight, rel=1e-9)


class TestPerBsKernel:
    def test_pair_block_closed_form(self):
        net = Network(
            gain=[[2.0, 1.0], [2.0, 1.0]], budget=[1.0, 1.0], noise_dl=[1.0, 1.0], noise_ul=[1.0, 1.0]
        )
        split = solve_power_exact(net, [0, 1])
        assert split.min_sinr == pytest.approx((np.sqrt(7.0) - 1.0) / 3.0, rel=1e-13)
        np.testing.assert_allclose(split.power, [(np.sqrt(7.0) - 1.0) / 2.0, 1.0], rtol=1e-13)
        assert solve_power_exact(net, [0, 0]).min_sinr == pytest.approx(0.4, rel=1e-13)

    def test_single_user(self):
        net = Network(gain=[[2.0], [5.0]], budget=[1.5, 1.0], noise_dl=[0.5], noise_ul=[1.0, 1.0])
        res = solve_power_exact(net, [0])
        assert res.min_sinr == pytest.approx(2.0 * 1.5 / 0.5, rel=1e-14)
        assert res.power.tolist() == pytest.approx([1.5])

    def test_climbs_to_the_binding_bs(self):
        # BS 1 serves three users on a small budget: it binds, not BS 0
        net = Network(
            gain=[[4.0, 0.1, 0.1, 0.1], [0.1, 1.0, 1.0, 1.0]],
            budget=[10.0, 0.5],
            noise_dl=np.ones(4),
            noise_ul=np.ones(2),
        )
        assoc = np.array([0, 1, 1, 1])
        res = solve_power_exact(net, assoc)
        assert res.converged
        assert res.power[1:].sum() == pytest.approx(0.5, rel=1e-12)
        assert res.power[0] < 10.0
        ref = solve_power(net, assoc, REFERENCE)
        assert res.min_sinr == pytest.approx(ref.min_sinr, rel=1e-9)

    def test_regression_high_snr_draw_stays_finite(self):
        # criterion-08 scenario, 35 dB, maxsnr: budgets 1.26e5 (macro) and
        # 3.16e3 (pico), six idle BSs; a solve at a shift equal to the Perron
        # root is singular here and must never turn into non-finite power
        net = frozen_network("uni_4x2_k18_35db_seed7000015")
        assoc = max_snr_association(net)
        res = solve_power_exact(net, assoc)
        assert res.converged
        assert np.all(np.isfinite(res.power)) and np.all(res.power > 0)
        ref = solve_power(net, assoc, REFERENCE)
        assert res.min_sinr == pytest.approx(ref.min_sinr, rel=1e-7)
        assert load_norm(res.power, assoc, net.budget) <= 1.0 + 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_climb_raises_one_clear_error(self):
        # user 0 hears its only BS at 1e-200 and BS 0 has budget 1e-200: noise
        # over direct gain and 1 / budget are both 1e200, and their product
        # in B + u c_n^T / P_n overflowed in a matmul, then in _dense_perron
        net = Network(
            gain=[[0.0, 1.0], [1e-200, 1.0]],
            budget=[1.0, 1e-200],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        message = (
            "the per-BS Perron matrices of this association overflow the float range: "
            "noise over direct gain reaches 1e+200 and 1 / budget of a serving BS 1e+200"
        )
        with pytest.raises(ValueError) as overflow:
            solve_power_exact(net, [1, 0])
        assert str(overflow.value) == message
        # dlsum's power stages meet it at the association ulsum returns
        assert ulsum_exact(net).assoc.tolist() == [1, 0]
        assert run_algorithm("dlsum", net).note == f"error: {message}"
        assert run_algorithm("ulsum", net).min_sinr == pytest.approx(1e-200, rel=1e-12)

    def test_stall_with_noise_level_entries_falls_back_to_dense_eig(self):
        # the Perron vector is zero on entries 1 and 2; power steps push them
        # to 1e-39, the solves return rounding noise there and lam stalls
        # above rho = sqrt(8) with a bracket that never closes
        matrix = np.array(
            [[0, 1e-9, 3, 4], [0, 1e-9, 0, 0], [0, 5, 0, 0], [2, 1e-9, 0, 0]], dtype=float
        )
        pair = perron_pair(matrix)
        assert pair.converged and pair.dense
        assert pair.rho == pytest.approx(np.sqrt(8.0), rel=1e-12)

    def test_root_on_a_diagonal_entry_is_exact(self):
        # user 1 is alone on BS 1 and hears nobody: rho is the diagonal
        # entry noise / gain, so lam hits it exactly while users 0 and 2
        # are still 3e-8 off; a shift at lam itself would be singular
        net = Network(
            gain=[[1.0, 0.0, 1.0], [0.0, 0.01778279, 0.0]],
            budget=[1.0, 1.0],
            noise_dl=np.ones(3),
            noise_ul=np.ones(2),
        )
        res = solve_power_exact(net, [0, 1, 0])
        assert res.converged
        assert res.sinr.max() - res.sinr.min() <= 1e-12 * res.sinr.min()
        assert res.min_sinr == pytest.approx(0.01778279, rel=1e-12)

    def test_triangular_root_keeps_the_narrower_bracket(self):
        # lam equals rho = 165 from the start and never falls; the solve's
        # vector, not the start's, must be kept
        matrix = np.array([[165.0, 0.0], [111.0, 2.0]])
        pair = perron_pair(matrix)
        assert pair.converged and not pair.dense
        np.testing.assert_allclose(pair.vector, [1.0, 111.0 / 163.0], rtol=1e-14)

    def test_high_snr_draw_needs_no_dense_fallback(self, monkeypatch):
        # Perron entries down to 6e-10 of the maximum: LU rounding alone
        # holds the bracket at 3e-8 unless each solve is followed by a
        # product with the matrix
        def forbidden(matrix, steps):
            raise AssertionError("dense fallback used")

        monkeypatch.setattr(power, "_dense_perron", forbidden)
        # scale draw: 9 macros x 1 pico, 18 users, uni_in_cell, 35 dB
        res = dlsuma(frozen_network("uni_9x1_k18_35db_seed1000021")).result
        assert res.converged
        assert res.sinr.max() - res.sinr.min() <= 1e-12 * res.sinr.min()

    def test_nearly_defective_root_is_exact(self):
        # double root 471 split by 6.25e-8 couplings; the 50-digit root is
        # 471.0000625312578125, which numpy's eigvals misses by 1e-9
        matrix = np.array(
            [[6.25e-08, 6.25e-02, 471.0], [6.25e-08, 471.0, 471.0], [6.25e-08, 0.0, 471.0]]
        )
        pair = perron_pair(matrix)
        assert pair.converged and not pair.dense
        assert pair.rho == pytest.approx(471.0000625312578125, rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "matrix, rho",
        [
            ([[2.0, 1.0], [0.0, 0.0]], 2.0),
            ([[0.0, 0.0], [1.0, 3.0]], 3.0),
            ([[1.0, 2.0, 1.0], [3.0, 1.0, 1.0], [0.0, 0.0, 0.0]], 1.0 + np.sqrt(6.0)),
        ],
        ids=["zero-last-row", "zero-first-row", "zero-row-3x3"],
    )
    def test_zero_row_gets_the_spectral_radius(self, matrix, rho):
        # a zero row zeroes an entry of every product with the matrix: the
        # power steps stop at once, each Noda step keeps its solve's vector
        # and the bracket stays open down to 0, so the dense fallback answers
        pair = perron_pair(np.array(matrix))
        assert pair.converged and pair.dense
        assert pair.rho == pytest.approx(rho, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "matrix, rho",
        [
            ([[0.0, 1e20], [1e-20, 0.0]], 1.0),
            ([[0.0, 1e20, 0.0], [0.0, 0.0, 1.0], [1e-25, 0.0, 0.0]], 1e-5 ** (1.0 / 3.0)),
        ],
        ids=["2-cycle", "3-cycle"],
    )
    def test_wide_entry_range_gets_the_true_root(self, matrix, rho):
        # lam = 9.09e7 once fell below 1e-12 times the largest entry and was
        # returned as rho = 0 to working precision, converged
        pair = perron_pair(np.array(matrix))
        assert pair.converged and not pair.dense
        assert pair.rho == pytest.approx(rho, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_iterate_is_rejected_without_a_warning(self):
        # at (1, 2, 0, 2) a Noda step's solve y has a least entry of 1.5e-323
        # beside 26, so y / max(y) has a 0 entry and Ax / x divided 0 by 0;
        # the step is now rejected before the division, with the same pair
        net = frozen_network("perron_iterate_underflow_3x4")
        assert solve_power_exact(net, [1, 2, 0, 2]).min_sinr == pytest.approx(0.9999997394048, rel=1e-12)
        assert brute_force_optimum(net).min_sinr == pytest.approx(exhaustive_exact_optimum(net), rel=1e-9)

    def test_zero_matrix_has_root_zero(self):
        pair = perron_pair(np.zeros((3, 3)))
        assert pair.converged and not pair.dense
        assert (pair.rho, pair.steps) == (0.0, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nilpotent_matrix_has_root_zero(self):
        # rho = 0, towards which a Noda step's lam would fall only linearly:
        # the support graph 0 -> 1 has no cycle, so the pair is the unit
        # vector of the zero column 0, after no step
        pair = perron_pair(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert pair.converged and not pair.dense
        assert (pair.rho, pair.steps) == (0.0, 0)
        assert pair.vector.tolist() == [1.0, 0.0]

    def test_step_cap_returns_a_nonconverged_pair(self, monkeypatch):
        monkeypatch.setattr(power, "_NODA_MAX_STEPS", 1)
        matrix = np.random.default_rng(0).uniform(0.1, 1.0, size=(18, 18))
        pair = perron_pair(matrix)
        assert not pair.converged and not pair.dense
        assert pair.steps == 1
        assert pair.rho >= np.linalg.eigvals(matrix).real.max() * (1 - 1e-12)

    def test_failed_solve_falls_back_to_dense_eig(self, monkeypatch):
        def singular(a, b, overwrite_a=0):
            return a, None, b, 1

        monkeypatch.setattr(power, "dgesv", singular)
        matrix = np.array([[1.0, 2.0], [3.0, 1.0]])
        pair = perron_pair(matrix)
        assert pair.dense and pair.converged
        assert pair.rho == pytest.approx(1.0 + np.sqrt(6.0), rel=1e-12)


@st.composite
def span_vectors(draw):
    """1-D float arrays up to 10 entries longer than ``_SHORT_SPAN``, with NaN,
    both infinities, subnormals and signed zeros at any position."""
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310])
    entries = st.one_of(st.floats(), special)
    k = draw(st.integers(1, power._SHORT_SPAN + 10))
    return draw(arrays(float, k, elements=entries))


@PROPERTY
@given(span_vectors())
@example(np.array([1.0, np.nan, -1.0]))
@example(np.array([np.inf, 2.0, -np.inf]))
@example(np.array([np.inf, np.nan]))
def test_span_equals_the_numpy_reductions(v):
    # NaN matches NaN.  The sign of a zero may differ where +0 and -0 both
    # appear (the builtins keep the first); no caller sees it, because each
    # compares the result with a number, divides by a maximum it checked to
    # be positive, or reports the min of SINRs or absolute values, which
    # hold no -0
    lo, hi = power._span(v)
    assert type(lo) is float and type(hi) is float
    np.testing.assert_array_equal([lo, hi], [np.minimum.reduce(v), np.maximum.reduce(v)])


def einsum_loads(batch: np.ndarray, p: np.ndarray, n_bs: int) -> np.ndarray:
    """The one-hot ``einsum`` that ``_bs_loads`` replaced, as the reference."""
    with np.errstate(invalid="ignore"):  # inf times the zero of another BS
        return np.einsum("bk,bkn->bn", p, batch[:, :, None] == np.arange(n_bs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "net",
    [
        build_3sat_gadget(CnfFormula(n_vars=2, clauses=((1, -2, 2), (-1, -1, 2)))),
        generate_hetnet(
            ScenarioConfig(n_macro=1, picos_per_macro=2, n_users=6, snr_db=25.0, seed=4)
        ).network,
    ],
    ids=["gadget", "1-macro-2-pico"],
)
def test_bincount_loads_equal_the_einsum_reference(monkeypatch, net):
    batch = next(oracle._candidate_chunks(net.gain > 0))
    best = brute_force_optimum(net).min_sinr
    cross, u = power._coupling(net, batch)
    # inf and NaN entries of u put NaN, and sometimes inf, in those rows of p
    broken = u.copy()
    broken[1, 0], broken[2, -1], broken[3] = np.inf, np.nan, np.inf
    cases = [(g * best, u) for g in (0.5, 1.0, 2.0)] + [(0.5 * best, broken)]
    for gamma, u_case in cases:
        p, feasible = power._target_power(net, batch, gamma, (cross.copy(), u_case))
        with monkeypatch.context() as patch:
            patch.setattr(power, "_bs_loads", einsum_loads)
            p_ref, feasible_ref = power._target_power(net, batch, gamma, (cross.copy(), u_case))
        assert p.tobytes() == p_ref.tobytes()
        assert feasible.tolist() == feasible_ref.tolist()
        if gamma < best:  # some candidates reach it and some do not
            assert 0 < feasible.sum() < len(batch)
        finite = np.isfinite(p).all(axis=1)
        assert (u_case is u) == finite.all()
        assert not feasible[~finite].any()
        # a non-finite entry of p spoils every load of its row in the
        # reference, and only its own BS's load here
        p[4, 0], p[5, 1] = np.inf, np.nan
        finite[4:6] = False
        loads = power._bs_loads(batch, p, net.n_bs)
        assert loads[finite].tobytes() == einsum_loads(batch, p, net.n_bs)[finite].tobytes()
        assert not np.isfinite(loads[~finite]).all(axis=1).any()


def recorded_calls(monkeypatch, name, run):
    """Copies of the arguments of every ``power.<name>`` call that ``run()`` makes."""
    calls = []
    real = getattr(power, name)

    def recording(*args, **kwargs):
        calls.append(tuple(np.array(arg) for arg in args))
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(power, name, recording)
        run()
    return calls


class TestDgesvLoader:
    def test_loaded_routine_is_scipys(self):
        assert power.dgesv is scipy.linalg.lapack.dgesv
        assert power._load_dgesv() is scipy.linalg.lapack.dgesv

    # criterion-09-style draws (N = K, uni_in_cell, 15 dB) at K = 3, 18 and 100
    @pytest.mark.parametrize(
        "scenario",
        [
            ScenarioConfig(n_macro=3, picos_per_macro=0, n_users=3, seed=3),
            ScenarioConfig(n_macro=9, picos_per_macro=1, n_users=18, seed=9),
            ScenarioConfig(n_macro=25, picos_per_macro=3, n_users=100, seed=100),
        ],
        ids=["k3", "k18", "k100"],
    )
    def test_same_bits_as_scipy_on_shifted_noda_systems(self, monkeypatch, scenario):
        # every lam (1 + _SHIFT_MARGIN) I - A that dlsuma's Perron solves factor
        net = generate_hetnet(scenario).network
        systems = recorded_calls(monkeypatch, "dgesv", lambda: dlsuma(net))
        assert len(systems) >= 10
        for system, rhs in systems:
            y, info = power.dgesv(system.copy(), rhs)[2:]
            y_ref, info_ref = scipy.linalg.lapack.dgesv(system.copy(), rhs)[2:]
            assert info == info_ref
            assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("failure", ["no-scipy-spec", "no-suffixes", "load-error"])
    def test_failed_direct_load_falls_back_to_the_package_import(self, monkeypatch, failure):
        def load_error(self, spec):
            raise ImportError("DLL load failed")

        with monkeypatch.context() as patch:
            if failure == "no-scipy-spec":
                patch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
            elif failure == "no-suffixes":
                patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
            else:
                patch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", load_error)
            fallback = power._load_dgesv()
        assert fallback is scipy.linalg.lapack.dgesv

        net = frozen_network("uni_9x1_k18_35db_seed1000021")
        calls = recorded_calls(
            monkeypatch, "perron_pair", lambda: solve_power_exact(net, max_snr_association(net))
        )
        expected = [perron_pair(*call) for call in calls]
        monkeypatch.setattr(power, "dgesv", fallback)
        for call, want in zip(calls, expected):
            got = perron_pair(*call)
            assert got.rho == want.rho and got.vector.tobytes() == want.vector.tobytes()
            assert (got.steps, got.converged, got.dense) == (want.steps, want.converged, want.dense)


class TestSumPowerKernel:
    def test_policy_step_cap_reports_nonconvergence(self, monkeypatch):
        # the cheapest BSs at uniform power are not optimal here: user 0
        # moves after the first exact solve
        net = Network(
            gain=[[1.6, 2.9, 1.2], [7.4, 4.3, 0.1]],
            budget=[1.0, 1.0],
            noise_dl=np.ones(3),
            noise_ul=np.ones(2),
        )
        full = ulsum_exact(net)
        assert full.converged and full.iterations == 2
        ref = ulsum(net, None, REFERENCE)
        assert full.assoc.tolist() == ref.assoc.tolist()
        assert full.gamma_sum == pytest.approx(ref.gamma_sum, rel=1e-9)

        monkeypatch.setattr(sumpower, "_POLICY_MAX_STEPS", 1)
        capped = ulsum_exact(net)
        assert not capped.converged and capped.iterations == 1
        assert capped.gamma_sum < full.gamma_sum
        # the capped result is the solve it reports, not the move after it
        sinr = loop_uplink_sinr(net, capped.assoc, capped.power_ul)
        assert sinr.min() == pytest.approx(capped.gamma_sum, rel=1e-12)

    def test_single_bs_is_closed_form(self):
        # one BS, one user: gamma = pool * gain / noise
        net = Network(gain=[[3.0]], budget=[2.0], noise_dl=[1.0], noise_ul=[0.5])
        res = ulsum_exact(net, 4.0)
        assert res.gamma_sum == pytest.approx(4.0 * 3.0 / 0.5, rel=1e-14)
        assert res.converged and res.iterations == 1
