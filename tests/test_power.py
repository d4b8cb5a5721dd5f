"""Power-allocation tests: the unit-power map, the budget load norm, the
normalized fixed point against independent oracles, and the target-SINR
feasibility test."""

import math

import numpy as np
import pytest

from hetnet_maxmin import model, oracle, power, sumpower
from hetnet_maxmin.model import Network, ValidationError, downlink_sinr, max_snr_association
from hetnet_maxmin.power import (
    FixedPointOptions,
    load_norm,
    solve_power,
    solve_power_exact,
    unit_sinr_power,
)
from hetnet_maxmin.oracle import brute_force_optimum
from hetnet_maxmin.sumpower import dl_sumpower_power, ulsum, ulsum_exact

from helpers import bisect_maxmin, frozen_network, loop_unit_sinr_power, random_network, target_power

GAMMA_PAIR = (math.sqrt(7.0) - 1.0) / 3.0
P_LOW = (math.sqrt(7.0) - 1.0) / 2.0


def pair_block_network() -> Network:
    return Network(
        gain=[[2.0, 1.0], [2.0, 1.0]],
        budget=[1.0, 1.0],
        noise_dl=[1.0, 1.0],
        noise_ul=[1.0, 1.0],
    )


class TestUnitSinrPower:
    def test_single_user(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        assert unit_sinr_power(net, [0], [0.7]) == pytest.approx([0.5])

    def test_two_user_cross_gain(self):
        # user 0 on BS 0 (direct gain 2), user 1 on BS 1; BS 1 reaches user 0
        # with gain 1, so unit power for user 0 is (1 + 1*1)/2 = 1.
        net = Network(
            gain=[[2.0, 1.0], [1.0, 2.0]],
            budget=[1.0, 1.0],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        m = unit_sinr_power(net, [0, 1], [0.3, 1.0])
        assert m[0] == pytest.approx(1.0)

    def test_consistent_with_sinr(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            net = random_network(rng, 3, 5)
            assoc = rng.integers(0, 3, size=5)
            p = rng.uniform(0.05, 2.0, size=5)
            m = unit_sinr_power(net, assoc, p)
            np.testing.assert_allclose(p / m, downlink_sinr(net, assoc, p), rtol=1e-12)

    def test_matches_the_loop_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            net = random_network(rng, 3, 5)
            assoc = rng.integers(0, 3, size=5)
            p = rng.uniform(0.05, 2.0, size=5)
            np.testing.assert_allclose(
                unit_sinr_power(net, assoc, p), loop_unit_sinr_power(net, assoc, p), rtol=1e-12
            )

    def test_user_without_interference_gets_the_exact_noise(self):
        # SNR 1e20: (noise + total) - own would round the noise away to 0
        net = Network(gain=[[1.0, 0.0], [0.0, 4.0]], budget=[1, 1], noise_dl=[1e-20, 1e-20], noise_ul=[1, 1])
        m = unit_sinr_power(net, [0, 1], [1.0, 1.0])
        assert m.tolist() == loop_unit_sinr_power(net, [0, 1], [1.0, 1.0]).tolist() == [1e-20, 2.5e-21]


class TestValidateOnce:
    """The solvers check their inputs at entry; the per-step maps take checked arrays."""

    def test_zero_direct_gain_rejected(self):
        net = Network(gain=[[1.0, 0.0], [1.0, 1.0]], budget=[1, 1], noise_dl=[1, 1], noise_ul=[1, 1])
        for solve in (solve_power, solve_power_exact, dl_sumpower_power):
            with pytest.raises(ValidationError, match="zero-gain"):
                solve(net, [0, 0])

    @pytest.mark.parametrize(
        "assoc, message",
        [
            (np.array([0.0, 1.0]), "integers"),
            ([0, 2], "valid BS indices"),
            ([0, 0], "zero-gain"),
        ],
        ids=["float", "out-of-range", "zero-gain"],
    )
    @pytest.mark.parametrize(
        "entry",
        [solve_power_exact, lambda net, assoc: downlink_sinr(net, assoc, [1.0, 1.0])],
        ids=["solve_power_exact", "downlink_sinr"],
    )
    def test_public_entries_check_the_association(self, entry, assoc, message):
        # the solvers skip the check on associations they made themselves;
        # a caller's association is still checked
        net = Network(gain=[[1.0, 0.0], [1.0, 1.0]], budget=[1, 1], noise_dl=[1, 1], noise_ul=[1, 1])
        with pytest.raises(ValidationError, match=message):
            entry(net, assoc)

    def test_checks_do_not_grow_with_the_iteration_count(self, monkeypatch):
        calls = []
        for module in (model, power, sumpower, oracle):
            for name in ("check_association", "check_power"):
                if hasattr(module, name):
                    check = getattr(module, name)
                    monkeypatch.setattr(
                        module, name, lambda *args, _check=check: calls.append(1) or _check(*args)
                    )
        net = frozen_network("uni_4x2_k18_35db_seed7000015")
        assoc = max_snr_association(net)
        solvers = {
            "solve_power": lambda opts: solve_power(net, assoc, opts),
            "dl_sumpower_power": lambda opts: dl_sumpower_power(net, assoc, opts=opts),
            "ulsum": lambda opts: ulsum(net, opts=opts),
        }
        for name, run in solvers.items():
            counts = []
            for opts in (FixedPointOptions(max_iter=2), FixedPointOptions()):
                calls.clear()
                res = run(opts)
                counts.append(len(calls))
            assert res.converged and res.iterations >= 50, (name, res.iterations)
            assert counts[0] == counts[1], (name, counts)
        # the policy iteration, the per-BS climb and the brute force's candidate loop
        small = frozen_network("congested_2x1_k6_10db_seed6")
        for run in (
            lambda: ulsum_exact(net),
            lambda: solve_power_exact(net, assoc),
            lambda: brute_force_optimum(small),
        ):
            calls.clear()
            run()
            assert len(calls) <= 1

    @pytest.mark.parametrize("solver", [solve_power, dl_sumpower_power], ids=["solve_power", "dl_sumpower_power"])
    def test_fixed_points_check_only_the_association_at_entry(self, monkeypatch, solver):
        # the power a fixed point returns is its own iterate, so its SINR
        # comes from the unchecked core and no check_power call runs
        calls = {"check_association": 0, "check_power": 0}
        for module in (model, power, sumpower):
            for name in calls:
                if hasattr(module, name):

                    def counted(*args, _check=getattr(module, name), _name=name):
                        calls[_name] += 1
                        return _check(*args)

                    monkeypatch.setattr(module, name, counted)
        net = frozen_network("uni_4x2_k18_35db_seed7000015")
        assert solver(net, max_snr_association(net)).converged
        assert calls == {"check_association": 1, "check_power": 0}


class TestLoadNorm:
    def test_shared_bs(self):
        assert load_norm([0.5, 0.5], [0, 0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_pair_block_boundary(self):
        assert load_norm([P_LOW, 1.0], [0, 1], [1.0, 1.0]) == pytest.approx(1.0)

    def test_one_to_one_equal_budgets_reduces_to_max_ratio(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 3.0, size=4)
        assert load_norm(p, [0, 1, 2, 3], [2.0] * 4) == pytest.approx(p.max() / 2.0)

    def test_empty_set_contributes_nothing(self):
        assert load_norm([0.2], [0], [1.0, 5.0]) == pytest.approx(0.2)


class TestSolvePower:
    def test_pair_block_split(self):
        res = solve_power(pair_block_network(), [0, 1])
        assert res.converged
        assert res.min_sinr == pytest.approx(GAMMA_PAIR, abs=1e-9)
        np.testing.assert_allclose(res.power, [P_LOW, 1.0], atol=1e-8)

    def test_pair_block_shared_bs(self):
        # one BS serves both users from a single unit budget
        res = solve_power(pair_block_network(), [0, 0])
        assert res.min_sinr == pytest.approx(0.4, abs=1e-9)
        np.testing.assert_allclose(res.power, [3.0 / 7.0, 4.0 / 7.0], atol=1e-8)

    def test_single_user_full_power(self):
        net = Network(gain=[[2.0]], budget=[1.5], noise_dl=[0.5], noise_ul=[1.0])
        res = solve_power(net, [0])
        assert res.power == pytest.approx([1.5])
        assert res.min_sinr == pytest.approx(1.5 * 2.0 / 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "solver, expected",
        [(solve_power, [1.0, 0.75]), (dl_sumpower_power, [8.0 / 7.0, 6.0 / 7.0])],
        ids=["solve_power", "dl_sumpower_power"],
    )
    def test_interference_free_users_at_snr_1e15(self, solver, expected):
        # each user's step is its noise over its gain, 1e-15 and 7.5e-16,
        # scaled to the budget; (noise + total) - own rounds each noise to a
        # multiple of its received power's ulp and put the power 4-7 % off
        net = Network(gain=[[1.0, 0.0], [0.0, 4.0]], budget=[1, 1], noise_dl=[1e-15, 3e-15], noise_ul=[1, 1])
        res = solver(net, [0, 1])
        assert res.converged
        assert res.power == pytest.approx(expected, rel=1e-12)

    def test_matches_grid_search_oracle(self):
        # Independent oracle: exhaustive grid over the two tight-budget faces
        # of the feasible power set, refined to ~1e-4 resolution.
        rng = np.random.default_rng(42)
        gain = 10 ** rng.normal(0, 0.5, (2, 3))
        net = Network(gain=gain, budget=[1.0, 1.0], noise_dl=np.ones(3), noise_ul=np.ones(2))
        assoc = [0, 0, 1]
        g, s = net.gain, net.noise_dl

        def grid_bs0_tight(p0, p2, _):
            lead, trail = np.meshgrid(p0, p2, indexing="ij")
            mid = 1.0 - lead
            s0 = lead * g[0, 0] / (s[0] + mid * g[0, 0] + trail * g[1, 0])
            s1 = mid * g[0, 1] / (s[1] + lead * g[0, 1] + trail * g[1, 1])
            s2 = trail * g[1, 2] / (s[2] + (lead + mid) * g[0, 2])
            return np.minimum(np.minimum(s0, s1), s2)

        def grid_bs1_tight(p0, p1, _):
            lead, mid = np.meshgrid(p0, p1, indexing="ij")
            ok = lead + mid <= 1.0 + 1e-15
            s0 = lead * g[0, 0] / (s[0] + mid * g[0, 0] + g[1, 0])
            s1 = mid * g[0, 1] / (s[1] + lead * g[0, 1] + g[1, 1])
            s2 = g[1, 2] / (s[2] + (lead + mid) * g[0, 2])
            v = np.minimum(np.minimum(s0, s1), s2)
            v[~ok] = -1.0
            return v

        def refine(fn, x_range, y_range, n=201, passes=3):
            best = -1.0
            for _ in range(passes):
                xs = np.linspace(*x_range, n)
                ys = np.linspace(*y_range, n)
                values = fn(xs, ys, None)
                i, j = np.unravel_index(np.argmax(values), values.shape)
                dx = (x_range[1] - x_range[0]) / (n - 1)
                dy = (y_range[1] - y_range[0]) / (n - 1)
                x_range = (max(x_range[0], xs[i] - 2 * dx), min(x_range[1], xs[i] + 2 * dx))
                y_range = (max(y_range[0], ys[j] - 2 * dy), min(y_range[1], ys[j] + 2 * dy))
                best = float(values[i, j])
            return best

        grid_value = max(
            refine(grid_bs0_tight, (0.0, 1.0), (0.0, 1.0)),
            refine(grid_bs1_tight, (0.0, 1.0), (0.0, 1.0)),
        )
        assert grid_value == pytest.approx(0.08932683710750401, abs=1e-12)  # frozen
        res = solve_power(net, assoc)
        assert res.min_sinr == pytest.approx(grid_value, abs=1e-3)

    def test_matches_bisection_oracle_small(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            net = random_network(rng, n, k)
            assoc = np.array([int(np.argmax(net.gain[:, j])) for j in range(k)])
            res = solve_power(net, assoc)
            oracle = bisect_maxmin(
                lambda gmm: target_power(net, assoc, gmm)[1], tol=1e-9
            )
            assert res.min_sinr == pytest.approx(oracle, rel=1e-6)

    def test_equal_sinr_and_budget_satisfaction(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            net = random_network(rng, n, k)
            assoc = np.array([int(np.argmax(net.gain[:, j])) for j in range(k)])
            res = solve_power(net, assoc)
            assert res.converged
            assert res.residual <= 1e-10
            # the returned power itself satisfies the fixed-point equation
            m = unit_sinr_power(net, assoc, res.power)
            image = m / load_norm(m, assoc, net.budget)
            assert np.max(np.abs(res.power - image)) <= 1e-10 * net.budget.max()
            spread = res.sinr.max() - res.sinr.min()
            assert spread <= 1e-6 * res.sinr.min()
            assert load_norm(res.power, assoc, net.budget) <= 1.0 + 1e-9
            assert abs(load_norm(res.power, assoc, net.budget) - 1.0) <= 1e-12

    def test_residuals_shrink_geometrically(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            net = random_network(rng, 3, 5)
            assoc = np.array([int(np.argmax(net.gain[:, j])) for j in range(5)])
            res = solve_power(net, assoc)
            trace = res.residuals
            live = trace[trace > 1e-9]
            if live.size < 6:
                continue
            tail = live[live.size // 2 :]
            ratios = tail[1:] / tail[:-1]
            assert np.all(ratios <= 1.0 - 1e-12)

    def test_special_case_update_matches_per_user_rule(self):
        # One-to-one association with a common power-of-two budget: one solver
        # update must equal the per-user rule p_k <- M_k * P / max_j M_j
        # bit for bit (with P = 2.0 both expressions round identically).
        rng = np.random.default_rng(5)
        p_max = 2.0
        net = Network(
            gain=10 ** rng.normal(0, 0.5, (4, 4)),
            budget=[p_max] * 4,
            noise_dl=np.ones(4),
            noise_ul=np.ones(4),
        )
        assoc = np.array([0, 1, 2, 3])
        p = rng.uniform(0.05, 2.0, size=4)
        m = unit_sinr_power(net, assoc, p)
        one_step = m / load_norm(m, assoc, net.budget)
        per_user_rule = m * p_max / np.max(m)
        np.testing.assert_array_equal(one_step, per_user_rule)

    def test_unconverged_flagged(self):
        net = pair_block_network()
        res = solve_power(net, [0, 1], FixedPointOptions(tol=1e-10, max_iter=2))
        assert not res.converged
        assert res.iterations == 2

    def test_option_validation(self):
        with pytest.raises(ValueError):
            FixedPointOptions(tol=0.0)
        with pytest.raises(ValueError):
            FixedPointOptions(max_iter=0)


class TestMinPowerForTarget:
    """The least power for an SINR target, from the brute force's screen on one row."""

    def test_single_user(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        p, feasible = target_power(net, [0], 1.0)
        assert feasible
        assert p == pytest.approx([0.5])

    def test_pair_block_boundary_and_beyond(self):
        net = pair_block_network()
        at_opt, feasible = target_power(net, [0, 1], GAMMA_PAIR - 1e-9)
        assert feasible
        np.testing.assert_allclose(at_opt, [P_LOW, 1.0], atol=1e-5)
        assert not target_power(net, [0, 1], 0.6)[1]

    def test_vanishing_target_needs_vanishing_power(self):
        net = pair_block_network()
        p, feasible = target_power(net, [0, 1], 1e-9)
        assert feasible
        assert np.max(p) < 1e-8
