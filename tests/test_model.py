"""Model-layer tests: SINR evaluation, greedy association,
scale consistency, the load bound, and JSON round trips."""

import json
import math

import numpy as np
import pytest

from hetnet_maxmin.model import (
    Network,
    ValidationError,
    check_association,
    downlink_sinr,
    max_snr_association,
    network_from_json,
    network_to_json,
    uplink_sinr,
)

from helpers import loop_downlink_sinr, loop_uplink_sinr, random_network

GAMMA_PAIR = (math.sqrt(7.0) - 1.0) / 3.0
P_LOW = (math.sqrt(7.0) - 1.0) / 2.0


def pair_block_network() -> Network:
    # Two BSs, two users; the first user hears 2 from both BSs, the second 1.
    return Network(
        gain=[[2.0, 1.0], [2.0, 1.0]],
        budget=[1.0, 1.0],
        noise_dl=[1.0, 1.0],
        noise_ul=[1.0, 1.0],
    )


class TestDownlinkSinr:
    def test_single_user(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        assert downlink_sinr(net, [0], [0.5]) == pytest.approx([1.0])

    def test_pair_block_split_powers(self):
        net = pair_block_network()
        sinr = downlink_sinr(net, [0, 1], [P_LOW, 1.0])
        assert sinr == pytest.approx([GAMMA_PAIR, GAMMA_PAIR], abs=1e-12)

    def test_shared_bs_tiny_noise(self):
        net = Network(
            gain=[[1.0, 1.0]], budget=[2.0], noise_dl=[1e-12, 1e-12], noise_ul=[1.0]
        )
        sinr = downlink_sinr(net, [0, 0], [1.0, 1.0])
        # hand expansion: 1*1 / (1e-12 + 1*1)
        assert sinr == pytest.approx([1.0, 1.0], rel=1e-6)

    def test_zero_power_user_gets_zero(self):
        net = pair_block_network()
        sinr = downlink_sinr(net, [0, 1], [0.0, 1.0])
        assert sinr[0] == 0.0
        assert sinr[1] > 0.0

    def test_matches_loop_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = random_network(rng, 3, 5)
            assoc = rng.integers(0, 3, size=5)
            p = rng.uniform(0.0, 2.0, size=5)
            fast = downlink_sinr(net, assoc, p)
            slow = loop_downlink_sinr(net, assoc, p)
            np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_scale_consistency(self):
        rng = np.random.default_rng(6)
        for c in (0.5, 3.7, 1e6):
            net = random_network(rng, 3, 4)
            assoc = rng.integers(0, 3, size=4)
            p = rng.uniform(0.1, 1.5, size=4)
            scaled = Network(
                gain=net.gain,
                budget=net.budget,
                noise_dl=net.noise_dl * c,
                noise_ul=net.noise_ul,
            )
            base = downlink_sinr(net, assoc, p)
            boosted = downlink_sinr(scaled, assoc, p * c)
            np.testing.assert_allclose(boosted, base, rtol=1e-12)

    def test_dimension_mismatch(self):
        net = pair_block_network()
        with pytest.raises(ValidationError):
            downlink_sinr(net, [0, 1], [1.0])
        with pytest.raises(ValidationError):
            downlink_sinr(net, [0], [1.0, 1.0])


class TestUplinkSinr:
    def test_single_user(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        assert uplink_sinr(net, [0], [0.5]) == pytest.approx([1.0])

    def test_symmetric_two_by_two(self):
        net = Network(
            gain=[[2.0, 1.0], [1.0, 2.0]],
            budget=[1.0, 1.0],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        sinr = uplink_sinr(net, [0, 1], [1.0, 1.0])
        assert sinr == pytest.approx([1.0, 1.0])

    def test_zero_power_user(self):
        net = Network(
            gain=[[2.0, 1.0], [1.0, 2.0]],
            budget=[1.0, 1.0],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        sinr = uplink_sinr(net, [0, 1], [1.0, 0.0])
        assert sinr == pytest.approx([2.0, 0.0])

    def test_matches_loop_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_network(rng, 4, 4)
            assoc = rng.integers(0, 4, size=4)
            p = rng.uniform(0.0, 2.0, size=4)
            np.testing.assert_allclose(
                uplink_sinr(net, assoc, p),
                loop_uplink_sinr(net, assoc, p),
                rtol=1e-12,
            )


class TestMaxSnrAssociation:
    def test_prefers_stronger_gain(self):
        net = Network(gain=[[1.0], [3.0]], budget=[1.0, 1.0], noise_dl=[1.0], noise_ul=[1, 1])
        assert max_snr_association(net).tolist() == [1]

    def test_budget_outweighs_gain(self):
        net = Network(gain=[[2.0], [1.0]], budget=[1.0, 4.0], noise_dl=[1.0], noise_ul=[1, 1])
        assert max_snr_association(net).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        net = Network(gain=[[1.0], [1.0]], budget=[1.0, 1.0], noise_dl=[1.0], noise_ul=[1, 1])
        assert max_snr_association(net).tolist() == [0]


class TestLoadBound:
    def test_min_sinr_bounds_bs_load(self):
        # min-SINR >= 1/m forces every BS to serve at most m users.
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 8))
            net = random_network(rng, n, k)
            assoc = rng.integers(0, n, size=k)
            p = rng.uniform(1e-3, 1.0, size=k)
            gamma = float(np.min(downlink_sinr(net, assoc, p)))
            if gamma <= 0:
                continue
            m = math.ceil(1.0 / gamma - 1e-12)
            loads = np.bincount(assoc, minlength=n)
            assert loads.max() <= m
            checked += 1
        assert checked > 1500


class TestValidation:
    def test_zero_link_association_rejected(self):
        net = Network(gain=[[1.0, 0.0], [1.0, 1.0]], budget=[1, 1], noise_dl=[1, 1], noise_ul=[1, 1])
        with pytest.raises(ValidationError):
            check_association(net, [0, 0])
        check_association(net, [0, 1])
        with pytest.raises(ValidationError, match="valid BS indices"):
            check_association(net, [0, 2])
        with pytest.raises(ValidationError, match="integers"):
            check_association(net, [0.0, 1.0])  # a float dtype is rejected, even with whole values

    def test_unreachable_user_rejected(self):
        with pytest.raises(ValidationError):
            Network(gain=[[1.0, 0.0]], budget=[1.0], noise_dl=[1, 1], noise_ul=[1.0])

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValidationError):
            Network(gain=[[1.0]], budget=[0.0], noise_dl=[1.0], noise_ul=[1.0])
        with pytest.raises(ValidationError):
            Network(gain=[[1.0]], budget=[1.0], noise_dl=[-1.0], noise_ul=[1.0])
        with pytest.raises(ValidationError):
            Network(gain=[[np.inf]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        with pytest.raises(ValidationError, match="power"):
            downlink_sinr(pair_block_network(), [0, 1], [-1.0, 1.0])

    def test_network_is_immutable(self):
        net = pair_block_network()
        with pytest.raises(ValueError):
            net.gain[0, 0] = 5.0


class TestNetworkJson:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 3, 4)
        doc = network_to_json(net)
        assert set(doc) == {"n_bs", "n_users", "gain", "budget", "noise_dl", "noise_ul"}
        restored = network_from_json(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(restored.gain, net.gain)
        np.testing.assert_array_equal(restored.budget, net.budget)
        np.testing.assert_array_equal(restored.noise_dl, net.noise_dl)
        np.testing.assert_array_equal(restored.noise_ul, net.noise_ul)

    def test_dimension_mismatch_detected(self):
        doc = network_to_json(pair_block_network())
        doc["n_users"] = 3
        with pytest.raises(ValidationError):
            network_from_json(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gain", [["2", 1.0], [1.0, 1.0]]),
            ("gain", [[1.0, "x"], [1.0, 1.0]]),
            ("gain", [[1.0, 1.0], [1.0]]),
            ("gain", [1.0, 1.0]),
            ("gain", [[1.0, 10**400], [1.0, 1.0]]),
            ("budget", [True, 1.0]),
            ("noise_dl", [[1.0], [1.0]]),
            ("noise_ul", "1.0"),
            ("gain", []),
            ("gain", [[]]),
            ("budget", [1.0]),
            ("noise_dl", [math.nan, 1.0]),
        ],
        ids=[
            "string",
            "non-numeric",
            "ragged",
            "flat-gain",
            "huge-int",
            "bool",
            "nested",
            "scalar",
            "empty-gain",
            "no-users",
            "short-budget",
            "nan-noise",
        ],
    )
    def test_arrays_must_be_rectangular_json_numbers(self, field, value):
        doc = {**network_to_json(pair_block_network()), field: value}
        with pytest.raises(ValidationError):
            network_from_json(doc)
