"""Two-stage algorithm tests: stage wiring, power balancing, effective sum
power, relaxation dominance, and the value-certificate equivalences on
exhaustively solvable instances."""

from dataclasses import replace

import numpy as np
import pytest

from hetnet_maxmin.model import Network, ValidationError
from hetnet_maxmin.oracle import brute_force_optimum
from hetnet_maxmin.power import load_norm
from hetnet_maxmin.scenario import ScenarioConfig, generate_hetnet
from hetnet_maxmin.sumpower import ulsum_exact
from hetnet_maxmin.twostage import dlsum, dlsuma, power_balance_transform, ulsuma

from helpers import frozen_network, random_network


def congested_pair_net() -> Network:
    # two users, one strong BS: the sum relaxation is strictly loose here
    return Network(
        gain=[[4.0, 4.0], [0.1, 0.1]],
        budget=[1.0, 1.0],
        noise_dl=[1.0, 1.0],
        noise_ul=[1.0, 1.0],
    )


class TestDlsum:
    def test_single_user_relaxation_is_tight(self):
        net = Network(gain=[[2.0]], budget=[1.5], noise_dl=[1.0], noise_ul=[1.0])
        res = dlsum(net)
        assert res.result.min_sinr == pytest.approx(2.0 * 1.5)
        assert res.result.min_sinr == pytest.approx(res.upper_bound, rel=1e-9)

    def test_value_certificate_on_small_instances(self):
        # whenever the two-stage value clears 1, it is the exact optimum
        rng = np.random.default_rng(0)
        certified = 0
        for _ in range(60):
            net = random_network(rng, 3, 3, spread=1.0)
            res = dlsum(net)
            if res.result.min_sinr >= 1.0:
                star = brute_force_optimum(net)
                assert res.result.min_sinr == pytest.approx(star.min_sinr, rel=1e-6)
                certified += 1
        assert certified >= 5

    def test_congested_instance_has_positive_gap(self):
        res = dlsum(congested_pair_net())
        assert res.result.min_sinr == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert res.upper_bound == pytest.approx(0.8, rel=1e-8)
        star = brute_force_optimum(congested_pair_net())
        assert star.min_sinr == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert res.result.min_sinr < res.upper_bound - 0.1

    def test_stage_telemetry(self):
        res = dlsum(congested_pair_net())
        assert len(res.stages) == 2
        assert res.stages[0].gamma == pytest.approx(res.upper_bound)
        assert res.stages[1].gamma == pytest.approx(res.result.min_sinr)


class TestPowerBalance:
    def test_equal_budgets_is_identity(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, 3, 4, equal_budgets=True)
        balanced = power_balance_transform(net)
        np.testing.assert_array_equal(balanced.gain, net.gain)
        np.testing.assert_array_equal(balanced.budget, net.budget)

    def test_sixteen_db_gap_example(self):
        net = Network(
            gain=[[2.0, 3.0], [40.0, 40.0]],
            budget=[1.0, 0.025],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        balanced = power_balance_transform(net)
        np.testing.assert_allclose(balanced.gain[1], [1.0, 1.0])
        np.testing.assert_allclose(balanced.budget, [1.0, 1.0])

    def test_balanced_network_is_validated_where_balancing_can_break_it(self):
        # user 0's only link is at the BS whose budget over the largest one
        # underflows to 0, so balancing leaves it without a positive gain
        net = Network(
            gain=[[1e-20, 1.0], [0.0, 1.0]],
            budget=[1e-300, 1e300],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        for solve in (power_balance_transform, ulsuma, dlsuma):
            with pytest.raises(ValidationError, match=r"users \[0\] have no BS with positive gain"):
                solve(net)
        balanced = power_balance_transform(random_network(np.random.default_rng(7), 3, 4))
        for name in ("gain", "budget", "noise_dl", "noise_ul"):
            assert not getattr(balanced, name).flags.writeable, name

    def test_constrained_optimum_is_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            net = random_network(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            star = brute_force_optimum(net).min_sinr
            star_scaled = brute_force_optimum(power_balance_transform(net)).min_sinr
            assert star == pytest.approx(star_scaled, rel=1e-6)


class TestUlsumaBound:
    def test_equal_budgets_matches_plain_bound(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 3, 4, equal_budgets=True)
        assert ulsuma(net).gamma_sum == pytest.approx(ulsum_exact(net).gamma_sum, rel=1e-12)

    def test_dominates_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            net = random_network(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            star = brute_force_optimum(net).min_sinr
            assert ulsuma(net).gamma_sum >= star - 1e-9

    def test_tighter_on_average_for_imbalanced_budgets(self):
        # sampled comparison; per-instance dominance is not claimed
        base = ScenarioConfig(
            n_macro=2, picos_per_macro=1, n_users=6, user_dist="congested", snr_db=10.0
        )
        plain, balanced = [], []
        for seed in range(30):
            net = generate_hetnet(replace(base, seed=seed)).network
            plain.append(ulsum_exact(net).gamma_sum)
            balanced.append(ulsuma(net).gamma_sum)
        assert np.mean(balanced) <= np.mean(plain)

    def test_two_stage_bounds_are_the_relaxation_values(self):
        # criterion-08 draw (4 macros x 2 picos, 18 users, 35 dB) on which
        # a separately pooled stage 1 differed from ulsuma in the last bits
        net = frozen_network("uni_4x2_k18_35db_seed7000015")
        assert dlsuma(net).upper_bound == ulsuma(net).gamma_sum
        assert dlsum(net).upper_bound == ulsum_exact(net).gamma_sum

    def test_precomputed_stage_one_gives_the_same_result(self):
        net = frozen_network("uni_4x2_k18_35db_seed7000015")
        for solve, relax in ((dlsum, ulsum_exact), (dlsuma, ulsuma)):
            fresh, given = solve(net), solve(net, stage1=relax(net))
            assert given.upper_bound == fresh.upper_bound
            assert given.selected_stage == fresh.selected_stage
            for field in ("association", "power", "sinr"):
                assert np.array_equal(getattr(given.result, field), getattr(fresh.result, field))
            assert [s.gamma for s in given.stages] == [s.gamma for s in fresh.stages]


class TestDlsuma:
    def test_reuses_stage_two_when_association_repeats(self):
        net = Network(gain=[[2.0]], budget=[1.5], noise_dl=[1.0], noise_ul=[1.0])
        res = dlsuma(net)
        assert len(res.stages) == 4
        assert "reused" in res.stages[3].name
        assert res.stages[3].gamma == res.stages[1].gamma
        assert res.result.min_sinr == pytest.approx(2.0 * 1.5)

    def test_value_certificate_on_small_instances(self):
        rng = np.random.default_rng(5)
        certified = 0
        for _ in range(60):
            net = random_network(rng, 3, 3, spread=1.0)
            res = dlsuma(net)
            if res.result.min_sinr >= 1.0:
                star = brute_force_optimum(net)
                assert res.result.min_sinr == pytest.approx(star.min_sinr, rel=1e-6)
                certified += 1
        assert certified >= 5

    def test_keeps_first_power_stage_when_refresh_is_worse(self):
        # the refreshed association can genuinely lose; the better stage wins.
        # congested draw: 2 macros x 1 pico, 6 users, 10 dB
        net = frozen_network("congested_2x1_k6_10db_seed6")
        res = dlsuma(net)
        assert "refreshed" in res.stages[3].name
        assert res.selected_stage == 1
        assert res.stages[1].gamma > res.stages[3].gamma
        assert res.result.min_sinr == pytest.approx(res.stages[1].gamma, rel=1e-9)

    def test_mean_at_least_basic_variant_on_imbalanced_congested(self):
        base = ScenarioConfig(
            n_macro=2, picos_per_macro=1, n_users=6, user_dist="congested", snr_db=10.0
        )
        basic, advanced = [], []
        for seed in range(30):
            net = generate_hetnet(replace(base, seed=seed)).network
            basic.append(dlsum(net).result.min_sinr)
            advanced.append(dlsuma(net).result.min_sinr)
        assert np.mean(advanced) >= np.mean(basic) - 1e-9

    def test_feasible_for_original_budgets(self):
        base = ScenarioConfig(
            n_macro=2, picos_per_macro=1, n_users=5, user_dist="congested", snr_db=20.0
        )
        for seed in range(10):
            net = generate_hetnet(replace(base, seed=seed)).network
            res = dlsuma(net)
            assert load_norm(res.result.power, res.result.association, net.budget) <= 1 + 1e-9
            spread = res.result.sinr.max() - res.result.sinr.min()
            assert spread <= 1e-6 * res.result.sinr.min()
            # mapping back from the balanced domain preserves the value
            winner = res.stages[res.selected_stage]
            assert res.result.min_sinr == pytest.approx(winner.gamma, rel=1e-9)


class TestRelaxationChain:
    def test_value_never_exceeds_reported_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            net = random_network(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            basic = dlsum(net)
            advanced = dlsuma(net)
            assert basic.result.min_sinr <= basic.upper_bound * (1 + 1e-9)
            assert advanced.result.min_sinr <= advanced.upper_bound * (1 + 1e-9)

    def test_effective_pool_within_total_budget(self):
        # stage 2 runs on the balanced network, so its spent power is capped
        # by that network's budget total n_bs * max_budget
        rng = np.random.default_rng(7)
        for _ in range(15):
            net = random_network(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            res = dlsuma(net)
            pool_stage = res.stages[2]
            assert pool_stage.sum_power <= net.n_bs * float(np.max(net.budget)) + 1e-9

    def test_unity_threshold_equivalence(self):
        # the two-stage value clears 1 exactly when the true optimum does
        rng = np.random.default_rng(8)
        seen_both = set()
        for _ in range(80):
            net = random_network(rng, 3, 3, spread=1.0)
            star = brute_force_optimum(net).min_sinr
            basic = dlsum(net).result.min_sinr
            advanced = dlsuma(net).result.min_sinr
            if abs(star - 1.0) < 1e-6:
                continue
            assert (basic >= 1.0) == (star >= 1.0)
            assert (advanced >= 1.0) == (star >= 1.0)
            seen_both.add(star >= 1.0)
        assert seen_both == {True, False}
