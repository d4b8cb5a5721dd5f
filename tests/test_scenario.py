"""HetNet generation tests: determinism, grid geometry, shadowing
statistics, path-loss anchoring, user layouts, sampler invariants and
uniformity, and config serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from hetnet_maxmin.model import ValidationError
from hetnet_maxmin.scenario import (
    ScenarioConfig,
    generate_hetnet,
    geometry_to_json,
    place_users,
    scenario_from_json,
    scenario_to_json,
    _budget,
    _in_hex,
)

from helpers import fresh_python, naive_cell_points


def _skeleton(bs_positions, n_macro):
    """The (bs_positions, bs_is_macro) arguments of place_users."""
    return np.asarray(bs_positions, dtype=float), np.arange(len(bs_positions)) < n_macro


def _nearest_bs(bs_positions, points):
    return [min(range(len(bs_positions)), key=lambda n: math.dist(bs_positions[n], p))
            for p in points]


class TestDeterminism:
    def test_identical_seed_identical_network(self):
        config = ScenarioConfig(n_macro=4, picos_per_macro=2, n_users=10, snr_db=15.0, seed=123)
        a = generate_hetnet(config)
        b = generate_hetnet(config)
        np.testing.assert_array_equal(a.network.gain, b.network.gain)
        np.testing.assert_array_equal(a.network.budget, b.network.budget)
        np.testing.assert_array_equal(a.geometry.user_positions, b.geometry.user_positions)

    def test_different_seed_differs(self):
        base = ScenarioConfig(n_macro=4, picos_per_macro=1, n_users=6, seed=1)
        other = ScenarioConfig(n_macro=4, picos_per_macro=1, n_users=6, seed=2)
        assert not np.array_equal(
            generate_hetnet(base).network.gain, generate_hetnet(other).network.gain
        )


class TestGeometry:
    def test_counts_and_kinds(self):
        config = ScenarioConfig(n_macro=9, picos_per_macro=2, n_users=5, seed=0)
        inst = generate_hetnet(config)
        assert config.n_bs == 27
        assert inst.network.n_bs == 27
        assert int(inst.geometry.bs_is_macro.sum()) == 9
        assert inst.network.n_users == 5

    def test_macro_grid_spacing(self):
        for n_macro in (9, 16, 25):
            config = ScenarioConfig(n_macro=n_macro, picos_per_macro=0, n_users=1, seed=0)
            pos = generate_hetnet(config).geometry.bs_positions
            # every macro's nearest neighbour sits exactly one spacing away
            for i in range(n_macro):
                dists = np.linalg.norm(pos - pos[i], axis=1)
                dists[i] = np.inf
                assert dists.min() == pytest.approx(1000.0, rel=1e-9)

    def test_picos_keep_min_distance_to_their_macro(self):
        config = ScenarioConfig(n_macro=4, picos_per_macro=3, n_users=2, seed=7)
        geo = generate_hetnet(config).geometry
        macros = geo.bs_positions[geo.bs_is_macro]
        for idx in np.flatnonzero(~geo.bs_is_macro):
            parent = geo.bs_parent_macro[idx]
            d = np.linalg.norm(geo.bs_positions[idx] - macros[parent])
            assert d >= 250.0
            assert _in_hex(geo.bs_positions[idx], macros[parent], 1000.0)[0]

    def test_unsatisfiable_pico_distance_raises(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(
                n_macro=1, picos_per_macro=1, n_users=1, pico_min_dist_m=2000.0, seed=0
            )


class TestChannel:
    def test_budgets_follow_snr_and_gap(self):
        config = ScenarioConfig(n_macro=2, picos_per_macro=1, n_users=2, snr_db=20.0, seed=0)
        net = generate_hetnet(config).network
        geo = generate_hetnet(config).geometry
        np.testing.assert_array_equal(_budget(config, 20.0, geo.bs_is_macro), net.budget)
        # past the float range both kinds read inf, which Network then rejects
        np.testing.assert_array_equal(_budget(config, 3100.0, geo.bs_is_macro), np.inf)
        np.testing.assert_allclose(net.budget[geo.bs_is_macro], 3981.0717055349733)
        np.testing.assert_allclose(net.budget[~geo.bs_is_macro], 100.0)
        np.testing.assert_array_equal(net.noise_dl, np.ones(2))
        np.testing.assert_array_equal(net.noise_ul, np.ones(net.n_bs))

    def test_pure_pathloss_matches_power_law(self):
        config = ScenarioConfig(
            n_macro=4, picos_per_macro=1, n_users=20, shadow_std_db=0.0, seed=3
        )
        inst = generate_hetnet(config)
        deltas = inst.geometry.bs_positions[:, None, :] - inst.geometry.user_positions[None, :, :]
        dist = np.maximum(np.sqrt((deltas**2).sum(axis=-1)), 1.0)
        np.testing.assert_allclose(inst.network.gain, (200.0 / dist) ** 3.7, rtol=1e-12)
        # anchored at the reference distance: nearer than 200 m means gain > 1
        assert np.all((inst.network.gain > 1.0) == (dist < 200.0))
        # strictly decreasing in distance along each BS row
        for n in range(inst.network.n_bs):
            order = np.argsort(dist[n])
            row = inst.network.gain[n][order]
            assert np.all(np.diff(row) < 0)

    def test_reference_distance_values(self):
        assert (200.0 / 200.0) ** 3.7 == 1.0
        assert (200.0 / 400.0) ** 3.7 == pytest.approx(0.07694652583405726, rel=1e-12)

    def test_shadowing_statistics(self):
        config = ScenarioConfig(
            n_macro=4,
            picos_per_macro=0,
            n_users=25_000,
            user_dist="congested",
            seed=11,
        )
        inst = generate_hetnet(config)
        deltas = inst.geometry.bs_positions[:, None, :] - inst.geometry.user_positions[None, :, :]
        dist = np.maximum(np.sqrt((deltas**2).sum(axis=-1)), 1.0)
        shadow_db = 10.0 * np.log10(inst.network.gain / (200.0 / dist) ** 3.7)
        assert shadow_db.size == 100_000
        assert abs(shadow_db.mean()) < 0.1
        assert abs(shadow_db.std() - 8.0) < 0.2

    def test_wrap_around_changes_edge_gains(self):
        base = ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=8, shadow_std_db=0.0, seed=5)
        wrapped = ScenarioConfig(
            n_macro=4, picos_per_macro=0, n_users=8, shadow_std_db=0.0, seed=5, wrap_around=True
        )
        g0 = generate_hetnet(base).network.gain
        g1 = generate_hetnet(wrapped).network.gain
        assert np.all(g1 >= g0 - 1e-15)
        assert np.any(g1 > g0)


_PEAK_SCRIPT = """
import resource
import sys
from hetnet_maxmin.scenario import ScenarioConfig, generate_hetnet

generate_hetnet(ScenarioConfig(n_macro=2000, picos_per_macro=0, n_users=2000))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB, bytes on macOS
print(peak / (2**20 if sys.platform == "darwin" else 2**10))
"""


class TestMemory:
    def test_largest_scenario_peaks_below_240_mb(self):
        # a fresh interpreter at the 2,000 x 2,000 cap (a 32 MB gain matrix):
        # distances built one axis at a time peak near 190 MB, an (N, K, 2)
        # array of differences and its square near 280 MB
        pytest.importorskip("resource")
        proc = fresh_python("-c", _PEAK_SCRIPT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 240.0


class TestUserLayouts:
    def test_uni_in_cell_one_user_per_cell(self):
        config = ScenarioConfig(n_macro=4, picos_per_macro=1, n_users=8, seed=2)
        geo = generate_hetnet(config).geometry
        counts = np.bincount(geo.user_cell, minlength=8)
        assert counts.tolist() == [1] * 8

    def test_uni_in_cell_two_users_per_cell(self):
        config = ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=8, seed=2)
        geo = generate_hetnet(config).geometry
        counts = np.bincount(geo.user_cell, minlength=4)
        assert counts.tolist() == [2] * 4

    def test_congested_floor_sqrt_in_hot_cell(self):
        config = ScenarioConfig(
            n_macro=9, picos_per_macro=0, n_users=9, user_dist="congested", seed=4
        )
        inst = generate_hetnet(config)
        geo = inst.geometry
        macros = geo.bs_positions[geo.bs_is_macro]
        centroid = macros.mean(axis=0)
        hot = int(np.argmin(((macros - centroid) ** 2).sum(axis=1)))
        n_hot = int(math.floor(math.sqrt(9)))
        for k in range(n_hot):
            assert _in_hex(geo.user_positions[k], macros[hot], 1000.0)[0]

    def test_congested_cell_override(self):
        config = ScenarioConfig(
            n_macro=4,
            picos_per_macro=0,
            n_users=4,
            user_dist="congested",
            congested_cell=3,
            seed=4,
        )
        geo = generate_hetnet(config).geometry
        macros = geo.bs_positions[geo.bs_is_macro]
        assert _in_hex(geo.user_positions[0], macros[3], 1000.0)[0]
        assert _in_hex(geo.user_positions[1], macros[3], 1000.0)[0]

    def test_users_stay_inside_network_area(self):
        for dist in ("congested", "uni_in_cell"):
            config = ScenarioConfig(
                n_macro=9, picos_per_macro=1, n_users=30, user_dist=dist, seed=13
            )
            geo = generate_hetnet(config).geometry
            macros = geo.bs_positions[geo.bs_is_macro]
            for pos in geo.user_positions:
                assert any(_in_hex(pos, center, 1000.0)[0] for center in macros)

    def test_place_users_respects_given_rng(self):
        config = ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4, seed=9)
        geo = generate_hetnet(config).geometry
        first = place_users(config, geo.bs_positions, geo.bs_is_macro, np.random.default_rng(33))
        second = place_users(config, geo.bs_positions, geo.bs_is_macro, np.random.default_rng(33))
        np.testing.assert_array_equal(first, second)


class TestSamplerInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        user_dist=st.sampled_from(["congested", "uni_in_cell"]),
        n_macro=st.integers(1, 9),
        picos_per_macro=st.integers(0, 3),
        n_users=st.integers(1, 30),
        pico_min_dist_m=st.floats(1.0, 500.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_invariants(
        self, user_dist, n_macro, picos_per_macro, n_users, pico_min_dist_m, seed
    ):
        config = ScenarioConfig(
            n_macro=n_macro, picos_per_macro=picos_per_macro, n_users=n_users,
            user_dist=user_dist, pico_min_dist_m=pico_min_dist_m, seed=seed,
        )
        inst = generate_hetnet(config)
        geo = inst.geometry
        macros = geo.bs_positions[geo.bs_is_macro]
        for idx in np.flatnonzero(~geo.bs_is_macro):
            parent = macros[geo.bs_parent_macro[idx]]
            assert np.linalg.norm(geo.bs_positions[idx] - parent) >= pico_min_dist_m
            assert _in_hex(geo.bs_positions[idx], parent, 1000.0)[0]
        for pos in geo.user_positions:
            assert any(_in_hex(pos, center, 1000.0)[0] for center in macros)

        again = generate_hetnet(config)
        np.testing.assert_array_equal(inst.network.gain, again.network.gain)
        np.testing.assert_array_equal(geo.bs_positions, again.geometry.bs_positions)
        np.testing.assert_array_equal(geo.user_positions, again.geometry.user_positions)

        if user_dist == "uni_in_cell":
            # place_users draws its permutation first
            perm = np.random.default_rng(seed).permutation(config.n_bs)
            users = place_users(
                config, geo.bs_positions, geo.bs_is_macro, np.random.default_rng(seed)
            )
            served = _nearest_bs(geo.bs_positions, users)
            assert served == [perm[k % config.n_bs] for k in range(n_users)]
        assert geo.user_cell.tolist() == _nearest_bs(geo.bs_positions, geo.user_positions)

    def test_uni_in_cell_matches_naive_sampler(self):
        # 4 macros, one pico in an open cell and a pico (index 5) ringed by
        # three more at 160 m, whose cell is a ~33,000 m^2 triangle
        small = np.array([1250.0, 700.0])
        ring = [small + 160.0 * np.array([math.cos(a), math.sin(a)]) for a in (0.0, 2.1, 4.2)]
        macros = np.array([[0.0, 0.0], [1000.0, 0.0], [500.0, 866.0254037844386],
                           [1500.0, 866.0254037844386]])
        bs = np.vstack([macros, [[300.0, 250.0]], [small], ring])
        reps = 300
        config = ScenarioConfig(n_macro=4, picos_per_macro=1, n_users=reps * len(bs))
        users = place_users(config, *_skeleton(bs, 4), np.random.default_rng(20))
        cells = np.array(_nearest_bs(bs, users))
        assert np.bincount(cells).tolist() == [reps] * len(bs)

        points, labels = naive_cell_points(np.random.default_rng(21), bs, macros, 1000.0, 50_000)
        assert np.bincount(labels).min() >= reps
        naive = np.concatenate([np.flatnonzero(labels == n)[:reps] for n in range(len(bs))])

        def stats(pos, serving):
            return [np.linalg.norm(pos - bs[serving], axis=1), pos[:, 0], pos[:, 1]]

        for pick, ref in ((np.arange(len(users)), naive), (cells == 5, naive[labels[naive] == 5])):
            ours = stats(users[pick], cells[pick])
            theirs = stats(points[ref], labels[ref])
            for a, b in zip(ours, theirs):
                assert ks_2samp(a, b).pvalue > 0.01

    def test_empty_voronoi_cell_raises(self):
        # BS 2 sits on BS 1, so ties give every point to BS 1 and BS 2's
        # cell is empty; a user assigned to it cannot be placed
        bs = [[0.0, 0.0], [200.0, 300.0], [200.0, 300.0]]
        config = ScenarioConfig(n_macro=1, picos_per_macro=2, n_users=3)
        with pytest.raises(ValidationError, match="Voronoi cell of BS 2"):
            place_users(config, *_skeleton(bs, 1), np.random.default_rng(0))


class TestConfigSerialization:
    def test_round_trip(self):
        config = ScenarioConfig(n_macro=4, picos_per_macro=2, n_users=7, snr_db=25.0, seed=6)
        doc = json.loads(json.dumps(scenario_to_json(config)))
        assert scenario_from_json(doc) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            scenario_from_json({"n_macro": 4, "bogus": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(n_macro=0)
        with pytest.raises(ValidationError):
            ScenarioConfig(user_dist="everywhere")
        with pytest.raises(ValidationError):
            ScenarioConfig(macro_spacing_m=-1.0)
        with pytest.raises(ValidationError, match="shadow_std_db"):
            ScenarioConfig(shadow_std_db=-1.0)
        with pytest.raises(ValidationError, match="congested_cell"):
            ScenarioConfig(n_macro=4, congested_cell=4)
        with pytest.raises(ValidationError, match="^seed must be non-negative, got -4"):
            ScenarioConfig(seed=-4)
        with pytest.raises(ValidationError, match="exceeds the cap of 4000000 gain entries"):
            ScenarioConfig(n_macro=2001, picos_per_macro=0, n_users=2000)

    @pytest.mark.parametrize("field", ["snr_db", "macro_spacing_m", "shadow_std_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, field, value):
        # JSON admits NaN and Infinity, so a document can carry them
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            scenario_from_json({field: value})

    def test_geometry_export(self):
        inst = generate_hetnet(ScenarioConfig(n_macro=4, picos_per_macro=1, n_users=3, seed=8))
        doc = geometry_to_json(inst.geometry)
        assert len(doc["bs_positions"]) == 8
        assert len(doc["user_positions"]) == 3
        json.dumps(doc)
