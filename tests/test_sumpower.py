"""Sum-power relaxation tests: the uplink unit-power map, the joint
fixed-point solver against an enumeration oracle, uplink/downlink duality,
the relaxation bound, and the contraction-rate diagnostic."""

import numpy as np
import pytest

from hetnet_maxmin.model import Network, uplink_sinr
from hetnet_maxmin.oracle import brute_force_optimum
from hetnet_maxmin.power import FixedPointOptions
from hetnet_maxmin.sumpower import (
    convergence_rate_bound,
    dl_sumpower_power,
    ulsum,
    ulsum_exact,
    uplink_unit_sinr_power,
)

from helpers import (
    oracle_dl_sum_maxmin,
    oracle_ulsum_value,
    random_network,
)


def symmetric_net() -> Network:
    return Network(
        gain=[[2.0, 1.0], [1.0, 2.0]],
        budget=[1.0, 1.0],
        noise_dl=[1.0, 1.0],
        noise_ul=[1.0, 1.0],
    )


class TestUplinkUnitPower:
    def test_zero_power_two_bs(self):
        net = Network(gain=[[1.0], [2.0]], budget=[1, 1], noise_dl=[1.0], noise_ul=[1.0, 1.0])
        maps = uplink_unit_sinr_power(net, [0.0])
        np.testing.assert_allclose(maps.per_bs[:, 0], [1.0, 0.5])
        assert maps.best[0] == pytest.approx(0.5)
        assert maps.best_bs[0] == 1

    def test_zero_power_reduces_to_noise_over_gain(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, 3, 4)
        maps = uplink_unit_sinr_power(net, np.zeros(4))
        np.testing.assert_allclose(maps.per_bs, net.noise_ul[:, None] / net.gain)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, 3, 3)
        p = rng.uniform(0.0, 2.0, size=3)
        maps = uplink_unit_sinr_power(net, p)
        for n in range(3):
            for k in range(3):
                interference = sum(net.gain[n, j] * p[j] for j in range(3) if j != k)
                expected = (net.noise_ul[n] + interference) / net.gain[n, k]
                assert maps.per_bs[n, k] == pytest.approx(expected, rel=1e-12)

    def test_no_link_entries_are_infinite(self):
        net = Network(
            gain=[[1.0, 1.0], [0.0, 2.0]], budget=[1, 1], noise_dl=[1, 1], noise_ul=[1, 1]
        )
        maps = uplink_unit_sinr_power(net, [0.5, 0.5])
        assert np.isinf(maps.per_bs[1, 0])
        assert maps.best_bs[0] == 0


class TestUlsum:
    def test_single_user_single_bs(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[0.5])
        res = ulsum(net, 3.0)
        assert res.assoc.tolist() == [0]
        assert res.power_ul == pytest.approx([3.0])
        assert res.gamma_sum == pytest.approx(2.0 * 3.0 / 0.5)

    def test_symmetric_two_by_two(self):
        res = ulsum(symmetric_net(), 2.0)
        assert res.converged
        assert res.assoc.tolist() == [0, 1]
        np.testing.assert_allclose(res.power_ul, [1.0, 1.0], atol=1e-9)
        assert res.gamma_sum == pytest.approx(1.0, abs=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            net = random_network(rng, n, n)
            pool = float(net.budget.sum())
            res = ulsum(net, pool)
            oracle = oracle_ulsum_value(net, pool, tol=1e-10)
            assert res.gamma_sum == pytest.approx(oracle, rel=1e-6)

    def test_full_sum_power_spent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            pool = float(net.budget.sum())
            res = ulsum(net, pool)
            assert res.converged
            assert float(res.power_ul.sum()) == pytest.approx(pool, rel=1e-9)

    def test_fixed_point_residual_and_equal_sinr(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            net = random_network(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            pool = float(net.budget.sum())
            res = ulsum(net, pool)
            maps = uplink_unit_sinr_power(net, res.power_ul)
            image = maps.best * pool / maps.best.sum()
            assert np.max(np.abs(res.power_ul - image)) <= 1e-10 * pool
            sinr = uplink_sinr(net, res.assoc, res.power_ul)
            assert sinr.max() - sinr.min() <= 1e-6 * sinr.min()
            np.testing.assert_allclose(sinr, res.gamma_sum, rtol=1e-8)

    def test_association_stabilizes_early(self):
        # the association settles before the powers: a run cut at 90 % of
        # the iterations has not converged but already has the final assoc
        rng = np.random.default_rng(5)
        for _ in range(15):
            net = random_network(rng, 3, 4)
            res = ulsum(net)
            assert res.converged
            cut = ulsum(net, opts=FixedPointOptions(max_iter=int(0.9 * res.iterations)))
            assert not cut.converged
            assert cut.assoc.tolist() == res.assoc.tolist()

    def test_map_concavity_sampled(self):
        # The per-user map is a min of affine maps, hence concave.
        rng = np.random.default_rng(6)
        net = random_network(rng, 3, 4)
        for _ in range(50):
            p = rng.uniform(0.0, 2.0, size=4)
            q = rng.uniform(0.0, 2.0, size=4)
            lam = float(rng.random())
            mix = uplink_unit_sinr_power(net, lam * p + (1 - lam) * q).best
            parts = (
                lam * uplink_unit_sinr_power(net, p).best
                + (1 - lam) * uplink_unit_sinr_power(net, q).best
            )
            assert np.all(mix >= parts - 1e-12)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            ulsum(symmetric_net(), 0.0)


class TestDlSumpower:
    def test_single_user(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[0.5], noise_ul=[0.5])
        res = dl_sumpower_power(net, [0], 3.0)
        assert res.power == pytest.approx([3.0])
        assert res.min_sinr == pytest.approx(2.0 * 3.0 / 0.5)

    def test_duality_with_equal_noise(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            net = random_network(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            ul = ulsum(net)
            dl = dl_sumpower_power(net, ul.assoc)
            assert dl.min_sinr == pytest.approx(ul.gamma_sum, rel=1e-6)

    def test_asymmetric_instance_matches_bisection(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, 2, 2)
        pool = float(net.budget.sum())
        assoc = [0, 1]
        res = dl_sumpower_power(net, assoc, pool)
        oracle = oracle_dl_sum_maxmin(net, assoc, pool, tol=1e-10)
        assert res.min_sinr == pytest.approx(oracle, rel=1e-6)
        assert float(res.power.sum()) == pytest.approx(pool, rel=1e-12)


class TestUpperBound:
    def test_single_user_two_bs(self):
        net = Network(gain=[[3.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        wide = Network(gain=[[3.0], [3.0]], budget=[1.0, 3.0], noise_dl=[1.0], noise_ul=[1.0, 1.0])
        # pooled budget 4 beats the best single budget 3
        assert ulsum_exact(wide).gamma_sum == pytest.approx(3.0 * 4.0)
        assert ulsum_exact(wide).gamma_sum >= 3.0 * 3.0

    def test_dominates_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            net = random_network(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            star = brute_force_optimum(net)
            assert ulsum_exact(net).gamma_sum >= star.min_sinr - 1e-9

    def test_budget_scaling_passes_through(self):
        rng = np.random.default_rng(10)
        net = random_network(rng, 2, 3)
        doubled = Network(
            gain=net.gain, budget=net.budget * 2, noise_dl=net.noise_dl, noise_ul=net.noise_ul
        )
        # the default pool is the doubled budget total
        direct = ulsum_exact(doubled, 2.0 * float(net.budget.sum())).gamma_sum
        assert ulsum_exact(doubled).gamma_sum == pytest.approx(direct, rel=1e-12)


class TestConvergenceRateBound:
    def test_single_user_closed_form(self):
        g, noise, pool = 2.0, 0.7, 1.3
        net = Network(gain=[[g]], budget=[1.0], noise_dl=[noise], noise_ul=[noise])
        kappa = convergence_rate_bound(net, pool)
        assert kappa == pytest.approx(pool * g / (noise + pool * g))

    def test_vanishing_budget_gives_instant_rate(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, 3, 4)
        assert convergence_rate_bound(net, 1e-12) < 1e-9

    def test_bounds_observed_decay(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(15):
            net = random_network(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            pool = float(net.budget.sum())
            res = ulsum(net, pool, FixedPointOptions(tol=1e-12))
            kappa = convergence_rate_bound(net, pool)
            trace = res.residuals
            live = np.flatnonzero(trace > 1e-9)
            if live.size < 8:
                continue
            window = trace[live[live.size // 2] : live[-1] + 1]
            decay = (window[-1] / window[0]) ** (1.0 / (window.size - 1))
            assert decay <= kappa + 1e-6
            checked += 1
        assert checked >= 8
