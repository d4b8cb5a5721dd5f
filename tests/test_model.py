"""Model-layer tests: SINR evaluation, greedy association,
scale consistency, the load bound, and JSON round trips."""

import json
import math
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hetnet_maxmin.model import (
    Network,
    ValidationError,
    check_association,
    downlink_sinr,
    max_snr_association,
    network_from_json,
    network_to_json,
)

from helpers import DATA, loop_downlink_sinr, loop_uplink_sinr, pair_block_network, random_network

# Floats m * 10^e over the whole range, e in [-324, 308]: a decimal below half
# the smallest subnormal parses to 0, and the top decade is clipped to the
# largest finite float.  The sampled values pin the edges of the range.
WIDE_FLOATS = st.builds(
    lambda m, e: min(float(f"{m!r}e{e}"), sys.float_info.max),
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-324, 308),
) | st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, sys.float_info.max])

GAMMA_PAIR = (math.sqrt(7.0) - 1.0) / 3.0
P_LOW = (math.sqrt(7.0) - 1.0) / 2.0


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
    """Hand-computed cases for the uplink oracle of the sum-power tests."""

    def test_single_user(self):
        net = Network(gain=[[2.0]], budget=[1.0], noise_dl=[1.0], noise_ul=[1.0])
        assert loop_uplink_sinr(net, [0], [0.5]) == pytest.approx([1.0])

    def test_symmetric_two_by_two(self):
        net = Network(
            gain=[[2.0, 1.0], [1.0, 2.0]],
            budget=[1.0, 1.0],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        sinr = loop_uplink_sinr(net, [0, 1], [1.0, 1.0])
        assert sinr == pytest.approx([1.0, 1.0])

    def test_zero_power_user(self):
        net = Network(
            gain=[[2.0, 1.0], [1.0, 2.0]],
            budget=[1.0, 1.0],
            noise_dl=[1.0, 1.0],
            noise_ul=[1.0, 1.0],
        )
        sinr = loop_uplink_sinr(net, [0, 1], [1.0, 0.0])
        assert sinr == pytest.approx([2.0, 0.0])


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


def _every_quotient_in_range(gain, noise_dl, noise_ul) -> bool:
    """The N x K form of the noise-over-gain rule: every user has a link, and
    each noise over each linked gain, in both directions, is positive and
    finite."""
    linked = gain > 0
    safe = np.where(linked, gain, 1.0)
    with np.errstate(over="ignore"):
        dl, ul = noise_dl[None, :] / safe, noise_ul[:, None] / safe
    in_range = (0 < dl) & (dl < np.inf) & (0 < ul) & (ul < np.inf)
    return bool(linked.any(axis=0).all() and (in_range | ~linked).all())


class TestNoiseOverGain:
    def test_underflow_fixture_is_rejected_when_read(self):
        # noise 1e-320 over a gain of 1e10 rounds to 0.  Once read, the network
        # made dl_sumpower_power divide by zero, solve_power blame the power
        # and convergence_rate_bound return 1.0; none of them can now get it
        doc = json.loads((DATA / "underflow_noise_1x1.json").read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                network_from_json(doc)
        assert str(info.value) == "noise over gain underflows to 0: noise_dl of users [0], noise_ul of BSs [0]"

    def test_overflow_fixture_is_rejected_when_read(self):
        # noise 1e300 over a gain of 1e-20 rounds to inf.  Once read, the
        # network made ulsum and dlsuma warn three times and fail inside numpy,
        # and maxsnr and brute warn in the coupling before their overflow error
        doc = json.loads((DATA / "overflow_noise_1x1.json").read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                network_from_json(doc)
        assert str(info.value) == "noise over gain overflows to inf: noise_dl of users [0], noise_ul of BSs [0]"

    def test_unused_strong_link_is_rejected(self):
        # the rule covers every link: noise_dl 1e-30 over the unused gain 1e300
        # rounds to 0, though maxsnr serves the user across gain 1 and the
        # uplink relaxations never read noise_dl; all three once solved it
        with pytest.raises(ValidationError, match=r"noise_dl of users \[0\], noise_ul of BSs \[\]"):
            Network(gain=[[1.0], [1e300]], budget=[1.0, 1e-301], noise_dl=[1e-30], noise_ul=[1.0, 1.0])

    def test_a_bs_without_a_link_divides_nothing(self):
        # BS 1 has no link, so neither its tiny nor its huge noise has a quotient
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for noise in (5e-324, 1e308):
                net = Network(gain=[[1e-10], [0.0]], budget=[1.0, 1.0], noise_dl=[1.0], noise_ul=[1.0, noise])
                assert net.n_bs == 2

    def test_a_derived_gain_is_checked(self):
        net = Network(gain=[[1.0]], budget=[1.0], noise_dl=[1e-30], noise_ul=[1.0])
        with pytest.raises(ValidationError, match=r"noise_dl of users \[0\], noise_ul of BSs \[\]"):
            replace(net, gain=net.gain * 1e300)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
            lambda shape: st.tuples(
                arrays(float, shape, elements=WIDE_FLOATS),
                arrays(float, shape[1], elements=WIDE_FLOATS.filter(lambda v: v > 0)),
                arrays(float, shape[0], elements=WIDE_FLOATS.filter(lambda v: v > 0)),
            )
        )
    )
    def _rule_matches_every_quotient(self, case):
        gain, noise_dl, noise_ul = case
        try:
            Network(gain=gain, budget=np.ones(len(gain)), noise_dl=noise_dl, noise_ul=noise_ul)
        except ValidationError as exc:
            assert any(
                reason in str(exc)
                for reason in ("underflows to 0", "overflows to inf", "no BS with positive gain")
            )
            accepted = False
        else:
            accepted = True
        assert accepted == _every_quotient_in_range(gain, noise_dl, noise_ul)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extremes_decide_the_rule_exactly(self):
        # correctly rounded division is monotone, so noise over the largest
        # linked gain is the smallest quotient and over the least the largest:
        # the rule on the extremes accepts exactly the networks whose every
        # linked quotient is positive and finite
        start = time.process_time()
        self._rule_matches_every_quotient()
        assert time.process_time() - start < 10.0


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
