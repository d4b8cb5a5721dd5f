"""Exact Perron-root kernels against the paper's fixed point.

``solve_power_exact`` and ``ulsum_exact`` must reach the optimum the
normalized fixed points ``solve_power`` and ``ulsum`` converge to (run here
at tol 1e-12), on random small networks with idle BSs, zero links and a
single user, and on the reducible 3-SAT gadget networks.  The exact
target-power test ``min_power_for_target`` must put that optimum on the
boundary between feasible and infeasible targets, and the brute force that
screens with it must find the best fixed-point value over all associations.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hetnet_maxmin import power, sumpower
from hetnet_maxmin.model import Network, downlink_sinr, max_snr_association, uplink_sinr
from hetnet_maxmin.oracle import CnfFormula, brute_force_optimum, build_3sat_gadget
from hetnet_maxmin.power import (
    FixedPointOptions,
    load_norm,
    min_power_for_target,
    perron_pair,
    solve_power,
    solve_power_exact,
)
from hetnet_maxmin.sumpower import ulsum, ulsum_exact, uplink_unit_sinr_power
from hetnet_maxmin.twostage import dlsuma

from helpers import frozen_network

REFERENCE = FixedPointOptions(tol=1e-12, max_iter=20_000)
PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def networks(draw, max_bs=4, max_users=6):
    """Log-uniform gains with random zero links, budgets and noise."""
    n = draw(st.integers(1, max_bs))
    k = draw(st.integers(1, max_users))
    exponents = draw(arrays(float, (n, k), elements=st.floats(-2.0, 2.0)))
    linked = draw(arrays(bool, (n, k)))
    linked[draw(arrays(int, k, elements=st.integers(0, n - 1))), np.arange(k)] = True
    return Network(
        gain=np.where(linked, 10.0**exponents, 0.0),
        budget=10.0 ** draw(arrays(float, n, elements=st.floats(-1.0, 2.0))),
        noise_dl=10.0 ** draw(arrays(float, k, elements=st.floats(-1.0, 1.0))),
        noise_ul=10.0 ** draw(arrays(float, n, elements=st.floats(-1.0, 1.0))),
    )


@st.composite
def gadgets(draw):
    """3-SAT gadget networks: reducible, with exact gain ties."""
    n_vars = draw(st.integers(1, 2))
    literal = st.integers(1, n_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=1, max_size=2))
    return build_3sat_gadget(CnfFormula(n_vars=n_vars, clauses=tuple(clauses))).network


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
    below = min_power_for_target(net, assoc, gamma)
    assert below.feasible
    assert downlink_sinr(net, assoc, below.power).min() >= gamma * (1.0 - 1e-9)
    assert load_norm(below.power, assoc, net.budget) <= 1.0 + 1e-9
    assert not min_power_for_target(net, assoc, t_star * (1.0 + 1e-6)).feasible


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
        batch = np.array([cand])
        assert power._target_power(net, batch, ref.min_sinr * (1.0 - 1e-6))[1][0]
        assert not power._target_power(net, batch, ref.min_sinr * (1.0 + 1e-6))[1][0]
        values.append(ref.min_sinr)
    assert brute_force_optimum(net).min_sinr == pytest.approx(max(values), rel=1e-8)


def test_target_at_unit_spectral_radius_is_infeasible():
    # gamma B = [[0, 1], [1, 0]] has rho = 1: no finite power meets the
    # target, however large the budgets, and an iteration towards the
    # least power grows without end instead of settling
    import time

    net = Network(gain=[[1.0, 0.5], [0.5, 1.0]], budget=[1e12, 1e12], noise_dl=[1.0, 1.0], noise_ul=[1.0, 1.0])
    start = time.perf_counter()
    assert not min_power_for_target(net, [0, 1], 2.0).feasible
    assert time.perf_counter() - start < 1.0


def check_sum_power(net: Network, pool: float) -> None:
    ref = ulsum(net, pool, REFERENCE)
    assume(ref.converged)
    res = ulsum_exact(net, pool)
    assert res.converged
    assert res.gamma_sum == pytest.approx(ref.gamma_sum, rel=1e-7)
    assert float(res.power_ul.sum()) == pytest.approx(pool, rel=1e-12)
    sinr = uplink_sinr(net, res.assoc, res.power_ul)
    assert sinr.max() - sinr.min() <= 1e-7 * sinr.min()
    assert sinr.min() == pytest.approx(res.gamma_sum, rel=1e-9)
    # the association is unique when every user's cheapest BS wins clearly
    costs = np.sort(uplink_unit_sinr_power(net, res.power_ul).per_bs, axis=0)
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

    def test_failed_solve_falls_back_to_dense_eig(self, monkeypatch):
        def singular(a, b, overwrite_a=0):
            return a, None, b, 1

        monkeypatch.setattr(power, "dgesv", singular)
        matrix = np.array([[1.0, 2.0], [3.0, 1.0]])
        pair = perron_pair(matrix)
        assert pair.dense and pair.converged
        assert pair.rho == pytest.approx(1.0 + np.sqrt(6.0), rel=1e-12)


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
        sinr = uplink_sinr(net, capped.assoc, capped.power_ul)
        assert sinr.min() == pytest.approx(capped.gamma_sum, rel=1e-12)

    def test_single_bs_is_closed_form(self):
        # one BS, one user: gamma = pool * gain / noise
        net = Network(gain=[[3.0]], budget=[2.0], noise_dl=[1.0], noise_ul=[0.5])
        res = ulsum_exact(net, 4.0)
        assert res.gamma_sum == pytest.approx(4.0 * 3.0 / 0.5, rel=1e-14)
        assert res.converged and res.iterations == 1
