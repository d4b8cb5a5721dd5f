"""Harness tests: per-trial records, dominance bookkeeping, aggregation,
CSV/JSON exports with byte-level determinism, and the CLI surface."""

import concurrent.futures
import json
import math
import re
import subprocess
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hetnet_maxmin import cli, harness, twostage
from hetnet_maxmin.cli import _solve_document, main as cli_main
from hetnet_maxmin.harness import (
    ALGORITHMS,
    AlgoCell,
    ExperimentSpec,
    MonteCarloResult,
    Outcome,
    experiment_from_json,
    experiment_to_json,
    export_csv,
    export_json,
    monte_carlo,
    run_algorithm,
    run_trial,
)
from hetnet_maxmin.matching import default_eps, log_gain_matrix
from hetnet_maxmin.model import (
    Network,
    ValidationError,
    _dump_json,
    downlink_sinr,
    max_snr_association,
    network_to_json,
)
from hetnet_maxmin.oracle import _TIE_RTOL
from hetnet_maxmin.scenario import Geometry, ScenarioConfig, generate_hetnet, scenario_to_json

from helpers import DATA, fresh_python, frozen_network, load_records_csv, networks

# Relative tolerance of the scale-invariance property; the largest change seen
# over 1,500 random 1-3 BS x 1-5 user networks was 6.4e-12 (dlsuma).
SCALE_RTOL = 1e-9
# Relative tolerance of the relabeling property; the largest change seen over
# 1,500 random 1-3 BS x 1-5 user networks was 1.1e-13 (ulsum).
RELABEL_RTOL = 1e-9
# Relative tolerance of the self-consistency property, on the BS loads and on
# min_sinr recomputed by downlink_sinr.
SELF_RTOL = 1e-9
# Relative tolerance of the ordering properties around the brute force's
# optimum; both held on 1,500 random 1-3 BS x 1-5 user networks.
ORDER_RTOL = 1e-9


# Criterion-08 draws: 4 macros with 2 picos each and 18 users.
C08_SCENARIO = ScenarioConfig(n_macro=4, picos_per_macro=2, n_users=18)
# Spec orders in which each relaxation entry comes before, or after, the
# two-stage entry built on it.
SHARING_ORDERS = [
    ("maxsnr", "ulsum", "dlsum", "ulsuma", "dlsuma"),
    ("dlsuma", "dlsum", "maxsnr", "ulsuma", "ulsum"),
]


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool by one that records each pool's worker count
    and its map's task count and chunk size.  A fork pool starts all its
    workers at the first submit, so this one maps serially and starts none."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append({"workers": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            pools[-1].update(tasks=len(tasks), chunksize=chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def assert_same_network(net: Network, want: Network) -> None:
    """``net`` has read-only arrays equal to ``want``'s bit for bit."""
    for field in fields(Network):
        got, expected = getattr(net, field.name), getattr(want, field.name)
        assert not got.flags.writeable, field.name
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), field.name
        assert got.tobytes() == expected.tobytes(), field.name


def _refuse_constant(constant):
    """A ``parse_constant`` hook: a document holds no NaN or Infinity."""
    raise AssertionError(f"not JSON: {constant}")


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4),
        snr_db=(10.0,),
        algorithms=("maxsnr", "dlsuma", "ulsuma"),
        n_runs=3,
        seed_base=17,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunTrial:
    def test_single_user_maxsnr(self):
        spec = small_spec(
            scenario=ScenarioConfig(n_macro=1, picos_per_macro=0, n_users=1),
            algorithms=("maxsnr",),
        )
        record = run_trial(spec, 0, 10.0)
        net = generate_hetnet(replace(spec.scenario, snr_db=10.0, seed=17)).network
        best = int(max_snr_association(net)[0])
        expected = net.budget[best] * net.gain[best, 0] / net.noise_dl[0]
        assert record.cells["maxsnr"].min_sinr == pytest.approx(expected, rel=1e-9)

    def test_bound_dominates_feasible_value_per_trial(self):
        spec = small_spec(algorithms=("maxsnr", "dlsum", "dlsuma", "ulsum", "ulsuma"))
        for trial in range(4):
            record = run_trial(spec, trial, 15.0)
            for bound_name in ("ulsum", "ulsuma"):
                bound = record.cells[bound_name].min_sinr
                for name in ("maxsnr", "dlsum", "dlsuma"):
                    assert record.cells[name].min_sinr <= bound + 1e-9
            for name in ("dlsum", "dlsuma"):
                cell = record.cells[name]
                assert cell.min_sinr <= cell.upper_bound + 1e-9

    def test_brute_force_dominates_two_stage(self):
        spec = small_spec(
            scenario=ScenarioConfig(n_macro=3, picos_per_macro=0, n_users=3),
            algorithms=("brute", "dlsum", "maxsnr"),
        )
        for trial in range(3):
            record = run_trial(spec, trial, 20.0)
            brute = record.cells["brute"].min_sinr
            assert brute >= record.cells["dlsum"].min_sinr - 1e-9
            assert brute >= record.cells["maxsnr"].min_sinr - 1e-9

    def test_one_to_one_algorithms_skip_rectangular_networks(self):
        # a rectangular network is an error cell, whose note names the rule
        spec = small_spec(
            scenario=ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=6),
            algorithms=("aufp", "p1prime"),
        )
        record = run_trial(spec, 0, 10.0)
        for name in ("aufp", "p1prime"):
            cell = record.cells[name]
            assert cell.min_sinr is None and cell.converged is None
            assert cell.note == (
                "error: assignment gain must be square "
                "(p1prime and aufp need as many BSs as users), got (4, 6)"
            )

    def test_algorithm_error_is_recorded_not_raised(self, tmp_path, monkeypatch):
        def boom(net):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(ALGORITHMS, "maxsnr", boom)
        result = monte_carlo(small_spec(algorithms=("maxsnr", "ulsuma"), n_runs=1))
        record = result.records[0]
        assert record.cells["maxsnr"].min_sinr is None
        assert "synthetic failure" in record.cells["maxsnr"].note
        assert record.cells["ulsuma"].min_sinr is not None
        # the failed cell's row has no value in either min-SINR column
        export_csv(result, tmp_path / "r.csv")
        failed = load_records_csv(tmp_path / "r.csv")[0]
        assert failed["algorithm"] == "maxsnr"
        assert failed["min_sinr_linear"] is None and failed["min_sinr_db"] is None
        assert failed["note"] == "error: synthetic failure"

    @pytest.mark.parametrize("algorithms", SHARING_ORDERS, ids=["relaxation-first", "two-stage-first"])
    def test_shared_relaxation_cells_equal_unshared_ones(self, algorithms):
        spec = small_spec(scenario=C08_SCENARIO, algorithms=algorithms)
        for snr in (5.0, 35.0):
            for trial in range(2):
                record = run_trial(spec, trial, snr)
                config = replace(spec.scenario, snr_db=snr, seed=record.seed)
                net = generate_hetnet(config).network
                for name in algorithms:
                    shared, alone = record.cells[name], run_algorithm(name, net)
                    assert (shared.min_sinr, shared.upper_bound) == (alone.min_sinr, alone.upper_bound)
                    assert (shared.converged, shared.note) == (alone.converged, alone.note)
                # ulsum and ulsuma are the stage 1 of dlsum and dlsuma, bit for bit
                for relaxation, two_stage in (("ulsum", "dlsum"), ("ulsuma", "dlsuma")):
                    assert record.cells[relaxation].upper_bound == record.cells[two_stage].upper_bound

    @pytest.mark.parametrize("algorithms", SHARING_ORDERS, ids=["relaxation-first", "two-stage-first"])
    def test_failed_relaxation_fails_each_cell_as_alone(self, monkeypatch, algorithms):
        calls = []

        def boom(net, sum_budget=None):
            calls.append(None)
            raise RuntimeError("synthetic relaxation failure")

        for module in (harness, twostage):
            monkeypatch.setattr(module, "ulsum_exact", boom)
        record = run_trial(small_spec(scenario=C08_SCENARIO, algorithms=algorithms), 0, 15.0)
        # nothing failed is shared: each of the four cells solved, and failed, on its own
        assert len(calls) == 4
        net = generate_hetnet(replace(C08_SCENARIO, snr_db=15.0, seed=record.seed)).network
        for name in ("ulsum", "dlsum", "ulsuma", "dlsuma"):
            cell = record.cells[name]
            assert cell.note == run_algorithm(name, net).note == "error: synthetic relaxation failure"
            assert cell.min_sinr is None and cell.upper_bound is None
        assert record.cells["maxsnr"].note is None

    @pytest.mark.parametrize(
        "algorithms", [("maxsnr", "dlsuma", "ulsuma"), ("ulsuma", "maxsnr", "dlsuma")]
    )
    def test_criterion_08_trial_solves_the_balanced_relaxation_once(self, monkeypatch, algorithms):
        # dlsuma's stages 1 and 3; ulsuma reads stage 1 instead of solving it again
        calls = []
        solve = twostage.ulsum_exact

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(twostage, "ulsum_exact", counted)
        run_trial(small_spec(scenario=C08_SCENARIO, algorithms=algorithms), 0, 25.0)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "algorithms", [("maxsnr", "dlsuma", "ulsuma"), ("ulsuma", "maxsnr", "dlsuma")]
    )
    def test_criterion_08_trial_balances_the_network_once(self, monkeypatch, algorithms):
        # dlsuma takes the balanced network with the stage 1 that ulsuma solved on it
        calls = []
        balance = twostage.power_balance_transform

        def counted(net):
            calls.append(None)
            return balance(net)

        monkeypatch.setattr(twostage, "power_balance_transform", counted)
        run_trial(small_spec(scenario=C08_SCENARIO, algorithms=algorithms), 0, 25.0)
        assert len(calls) == 1

    def test_criterion_08_seed_draws_once_and_validates_every_network(self, monkeypatch):
        # one draw per seed; each later SNR point and each balanced network is
        # built through Network, so validated, and equals its validated build
        drawn, validated, balanced = [], [], []
        post_init, generate = Network.__post_init__, harness.generate_hetnet
        balance = twostage.power_balance_transform

        def balanced_once(net):
            balanced.append((net, balance(net)))
            return balanced[-1][1]

        monkeypatch.setattr(
            Network, "__post_init__", lambda net: validated.append(net) or post_init(net)
        )
        monkeypatch.setattr(
            harness, "generate_hetnet", lambda config: drawn.append(generate(config)) or drawn[-1]
        )
        monkeypatch.setattr(twostage, "power_balance_transform", balanced_once)
        spec = small_spec(
            scenario=C08_SCENARIO,
            snr_db=(5.0, 15.0, 25.0, 35.0),
            algorithms=("dlsuma", "ulsuma"),
            n_runs=1,
        )
        monte_carlo(spec)
        monkeypatch.undo()
        assert (len(drawn), len(validated), len(balanced)) == (1, 8, 4)
        points = [net for net in validated if all(net is not b for _, b in balanced)]
        assert points[0] is drawn[0].network
        # each point's network is balanced once, for ulsuma and dlsuma alike
        assert [id(base) for base, _ in balanced] == [id(net) for net in points]
        for snr, net in zip(spec.snr_db, points):
            fresh = generate_hetnet(replace(C08_SCENARIO, snr_db=snr, seed=spec.seed_base)).network
            assert_same_network(net, fresh)
        for base, net in balanced:
            p_max = float(np.max(base.budget))
            gain = base.gain * (base.budget / p_max)[:, None]
            budget = np.full(base.n_bs, p_max)
            assert_same_network(net, Network(gain, budget, base.noise_dl, base.noise_ul))

    def test_lone_trial_generates_its_own_draw(self, monkeypatch):
        # three arguments: no draw to share, so each call generates one
        calls = []
        generate = harness.generate_hetnet
        monkeypatch.setattr(harness, "generate_hetnet", lambda c: calls.append(c) or generate(c))
        spec = small_spec(algorithms=("maxsnr",))
        run_trial(spec, 0, 10.0)
        record = run_trial(spec, 0, 20.0)
        assert [(c.seed, c.snr_db) for c in calls] == [(17, 10.0), (17, 20.0)]
        net = generate_hetnet(replace(spec.scenario, snr_db=20.0, seed=17)).network
        assert record.cells["maxsnr"].min_sinr == run_algorithm("maxsnr", net).min_sinr

    def test_maxsnr_checks_its_greedy_association(self):
        # user 0's only link scores 1e-200 * 1e-200, which underflows to the
        # score of BS 0, where it has no link
        net = Network(
            gain=[[0.0, 1.0], [1e-200, 1.0]], budget=[1.0, 1e-200], noise_dl=[1, 1], noise_ul=[1, 1]
        )
        assert max_snr_association(net).tolist() == [0, 0]
        cell = run_algorithm("maxsnr", net)
        assert cell.note == "error: users [0] are associated across a zero-gain link"

    def test_maxsnr_keeps_an_exact_tie_under_a_common_power_scale(self):
        # user 1 scores 100 * 10 at BS 0 and 10 * 100 at BS 1; times 10^1.75
        # the rounded products came apart and BS 1 won, 9.95 against 0.989
        net = Network(gain=[[10.0, 100.0], [0.0, 10.0]], budget=[10, 100], noise_dl=[1, 1], noise_ul=[1, 1])
        c = 10.0**1.75
        scaled = Network(net.gain, c * net.budget, c * net.noise_dl, c * net.noise_ul)
        assert max_snr_association(net).tolist() == max_snr_association(scaled).tolist() == [0, 0]

    def test_unknown_algorithm_rejected(self):
        net = generate_hetnet(ScenarioConfig(n_macro=1, picos_per_macro=0, n_users=1)).network
        with pytest.raises(ValueError):
            run_algorithm("simulated-annealing", net)
        with pytest.raises(ValueError, match="DL-SUMA"):
            run_algorithm("DL-SUMA", net)  # names are registry keys, spelled exactly

    def test_oversized_brute_force_records_the_oracle_cap(self):
        cell = run_algorithm("brute", frozen_network("uni_9x1_k18_35db_seed1000021"))
        assert cell.min_sinr is None and cell.converged is None
        assert cell.note.startswith("error:") and "exceed the cap" in cell.note

    @settings(max_examples=100, deadline=None)
    @given(st.booleans().flatmap(lambda sq: networks(3, 5, square=sq)), st.floats(-3.0, 3.0))
    def test_every_algorithm_ignores_a_common_power_scale(self, net, log_c):
        # SINR has degree 0 in powers and noise jointly, so scaling every budget
        # and both noise vectors by c leaves each optimum where it was
        c = 10.0**log_c
        scaled = Network(net.gain, c * net.budget, c * net.noise_dl, c * net.noise_ul)
        for name in ALGORITHMS:
            base, other = run_algorithm(name, net), run_algorithm(name, scaled)
            if base.min_sinr is None:  # p1prime and aufp reject a network that is not square
                assert other.min_sinr is None, name
            else:
                assert other.min_sinr == pytest.approx(base.min_sinr, rel=SCALE_RTOL), name

    @settings(max_examples=100, deadline=None)
    @given(
        st.booleans()
        .flatmap(lambda sq: networks(3, 5, square=sq))
        .flatmap(lambda net: st.tuples(st.just(net), st.permutations(range(net.n_users))))
    )
    def test_every_algorithm_ignores_a_relabeling_of_users(self, case):
        # permuting the users (gain columns with their noise) leaves every
        # answer's value where it was.  The matched entries compare their
        # assignment totals: with tied log-gains the optimal matching, and so
        # its min-SINR, is not unique
        net, order = case
        relabeled = Network(net.gain[:, order], net.budget, net.noise_dl[order], net.noise_ul)
        for name in ("maxsnr", "ulsum", "ulsuma", "dlsum", "dlsuma", "brute"):
            base, other = ALGORITHMS[name](net), ALGORITHMS[name](relabeled)
            assert other.min_sinr == pytest.approx(base.min_sinr, rel=RELABEL_RTOL), name
        try:
            eps = default_eps(log_gain_matrix(net))
        except ValidationError as exc:
            # not square, or no perfect matching: both sides are rejected alike
            for name in ("p1prime", "aufp"):
                for network in (net, relabeled):
                    with pytest.raises(type(exc)):
                        ALGORITHMS[name](network)
            return
        base, other = ALGORITHMS["p1prime"](net), ALGORITHMS["p1prime"](relabeled)
        assert other.assignment_total_gain == pytest.approx(
            base.assignment_total_gain, rel=RELABEL_RTOL
        )
        # each auction ends within k * eps of the optimum
        gap = 2 * net.n_users * eps
        base, other = ALGORITHMS["aufp"](net), ALGORITHMS["aufp"](relabeled)
        assert abs(other.assignment_total_gain - base.assignment_total_gain) <= gap

    @settings(max_examples=100, deadline=None)
    @given(
        st.booleans()
        .flatmap(lambda sq: networks(3, 5, square=sq))
        .flatmap(lambda net: st.tuples(st.just(net), st.permutations(range(net.n_bs))))
    )
    def test_global_optima_ignore_a_relabeling_of_bss(self, case):
        # permuting the BSs (gain rows with their budgets and uplink noise)
        # leaves each global optimum's value where it was, ties included; the
        # brute force's tie rule may keep another tied association, each within
        # _TIE_RTOL of the optimum
        net, order = case
        relabeled = Network(net.gain[order], net.budget[order], net.noise_dl, net.noise_ul[order])
        for name, rtol in (("ulsum", RELABEL_RTOL), ("ulsuma", RELABEL_RTOL), ("brute", 2 * _TIE_RTOL)):
            base, other = ALGORITHMS[name](net), ALGORITHMS[name](relabeled)
            assert other.min_sinr == pytest.approx(base.min_sinr, rel=rtol), name

    @settings(max_examples=100, deadline=None)
    @given(st.booleans().flatmap(lambda sq: st.tuples(st.just(sq), networks(3, 5, square=sq))))
    def test_per_bs_answers_are_self_consistent(self, case):
        # each per-BS entry's power is non-negative, loads no BS beyond its
        # budget, and gives back the entry's min_sinr through downlink_sinr;
        # p1prime and aufp run on the square draws, which always have a
        # perfect matching
        square, net = case
        names = ["maxsnr", "dlsum", "dlsuma", "brute"] + ["p1prime", "aufp"] * square
        for name in names:
            out = ALGORITHMS[name](net)
            assert (out.power >= 0).all(), name
            loads = np.bincount(out.association, weights=out.power, minlength=net.n_bs)
            assert (loads <= net.budget * (1.0 + SELF_RTOL)).all(), name
            sinr = downlink_sinr(net, out.association, out.power)
            assert out.min_sinr == pytest.approx(sinr.min(), rel=SELF_RTOL), name

    @settings(max_examples=100, deadline=None)
    @given(st.booleans().flatmap(lambda sq: st.tuples(st.just(sq), networks(3, 5, square=sq))))
    def test_per_bs_answers_stay_below_the_brute_force(self, case):
        # the brute force's value is the per-BS optimum over every
        # association, so no per-BS answer beats it
        square, net = case
        best = ALGORITHMS["brute"](net).min_sinr
        for name in ["maxsnr", "dlsum", "dlsuma"] + ["p1prime", "aufp"] * square:
            assert ALGORITHMS[name](net).min_sinr <= best * (1.0 + ORDER_RTOL), name

    @settings(max_examples=100, deadline=None)
    @given(
        st.booleans().flatmap(lambda sq: st.tuples(networks(3, 5, square=sq), st.floats(-1.0, 1.0)))
    )
    def test_relaxation_bounds_stay_above_the_brute_force(self, case):
        # with one noise on both links the sum-power relaxations bound the
        # per-BS optimum from above, balanced or not
        drawn, log_noise = case
        noise = 10.0**log_noise
        net = Network(
            drawn.gain, drawn.budget, np.full(drawn.n_users, noise), np.full(drawn.n_bs, noise)
        )
        best = ALGORITHMS["brute"](net).min_sinr
        bounds = {name: ALGORITHMS[name](net).min_sinr for name in ("ulsum", "ulsuma")}
        bounds.update({name: ALGORITHMS[name](net).upper_bound for name in ("dlsum", "dlsuma")})
        for name, bound in bounds.items():
            assert best <= bound * (1.0 + ORDER_RTOL), name


class TestMonteCarlo:
    def test_single_run_mean_equals_record(self):
        spec = small_spec(n_runs=1, algorithms=("maxsnr",))
        result = monte_carlo(spec)
        record_value = result.records[0].cells["maxsnr"].min_sinr
        assert result.means[("maxsnr", 10.0)].mean_min_sinr == record_value
        assert result.means[("maxsnr", 10.0)].n_ok == 1

    def test_nonconverged_values_are_counted_not_averaged(self, monkeypatch):
        def stalled(net):
            return Outcome(1e6, converged=False)

        monkeypatch.setitem(ALGORITHMS, "stalled", stalled)
        spec = small_spec(algorithms=("maxsnr", "stalled"), n_runs=2)
        result = monte_carlo(spec)
        cell = result.means[("stalled", 10.0)]
        assert cell.mean_min_sinr is None
        assert (cell.n_ok, cell.n_nonconverged, cell.n_failed) == (0, 2, 0)
        assert result.cdf[("stalled", 10.0)][0].size == 0
        ok = result.means[("maxsnr", 10.0)]
        assert (ok.n_ok, ok.n_nonconverged, ok.n_failed) == (2, 0, 0)

    def test_nonconverged_trial_left_out_of_mean(self, monkeypatch):
        calls = []

        def flaky(net):
            calls.append(None)
            return Outcome(float(len(calls)), converged=len(calls) != 2)

        monkeypatch.setitem(ALGORITHMS, "flaky", flaky)
        result = monte_carlo(small_spec(algorithms=("flaky",), n_runs=3))
        cell = result.means[("flaky", 10.0)]
        assert cell.mean_min_sinr == pytest.approx((1.0 + 3.0) / 2)
        assert (cell.n_ok, cell.n_nonconverged) == (2, 1)

    def test_registry_twins_give_identical_columns(self, monkeypatch):
        monkeypatch.setitem(ALGORITHMS, "dlsumtwin", ALGORITHMS["dlsum"])
        spec = small_spec(algorithms=("dlsum", "dlsumtwin"), n_runs=2)
        result = monte_carlo(spec)
        for record in result.records:
            assert record.cells["dlsum"].min_sinr == record.cells["dlsumtwin"].min_sinr
            assert record.cells["dlsum"].upper_bound == record.cells["dlsumtwin"].upper_bound

    def test_cdf_is_clipped_and_monotone(self, monkeypatch):
        monkeypatch.setattr(harness, "CDF_CLIP", 1.5)
        spec = small_spec(n_runs=5, algorithms=("ulsuma",))
        result = monte_carlo(spec)
        values, probs = result.cdf[("ulsuma", 10.0)]
        assert values.max() <= 1.5
        assert np.all(np.diff(values) >= 0)
        assert probs[-1] == pytest.approx(1.0)

    def test_parallel_matches_serial(self, tmp_path):
        spec = small_spec(n_runs=4)
        serial = monte_carlo(spec, jobs=1)
        try:
            parallel = monte_carlo(spec, jobs=2)
        except OSError:
            pytest.skip("process pool unavailable in this environment")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(serial, a)
        export_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "jobs, cpus, started",
        [(10**6, 64, [6]), (10**6, 4, [4]), (3, 64, [3]), (10**6, None, []), (1, 64, [])],
        ids=["tasks", "cpus", "jobs", "unknown-cpus", "serial"],
    )
    def test_workers_bounded_by_tasks_and_cpus(
        self, tmp_path, monkeypatch, recording_pool, jobs, cpus, started
    ):
        spec = small_spec(n_runs=6, algorithms=("maxsnr",))
        export_csv(monte_carlo(spec), tmp_path / "serial.csv")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        export_csv(monte_carlo(spec, jobs=jobs), tmp_path / "pooled.csv")
        assert [pool["workers"] for pool in recording_pool] == started
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    @pytest.mark.parametrize("snr_db, chunksize", [((10.0,), 8), ((5.0, 15.0, 25.0, 35.0), 2)])
    def test_pool_chunks_hold_about_eight_trials(
        self, monkeypatch, recording_pool, snr_db, chunksize
    ):
        # a task is a whole seed, so three 4-point seeds make two chunks,
        # one for each worker, as twelve one-point trials did
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monte_carlo(small_spec(snr_db=snr_db, n_runs=3, algorithms=("maxsnr",)), jobs=2)
        assert recording_pool == [{"workers": 2, "tasks": 3, "chunksize": chunksize}]

    @pytest.mark.parametrize(
        "scenario, snr_db",
        [
            (C08_SCENARIO, (5.0, 15.0, 25.0, 35.0)),
            (
                ScenarioConfig(
                    n_macro=3, picos_per_macro=1, n_users=6, user_dist="congested",
                    wrap_around=True, snr_db=7.0,
                ),
                (20.0, 0.0, 10.0),
            ),
        ],
        ids=["criterion-08", "congested-wrap-around"],
    )
    def test_each_snr_point_gets_the_network_of_a_fresh_draw(self, monkeypatch, scenario, snr_db):
        # the points after a seed's first are built from its draw, and must
        # equal what generating at their SNR gives, byte for byte
        seen = []

        def record(name, net, *, relaxations=None):
            seen.append(net)
            return AlgoCell(1.0, 0.0, True, None)

        monkeypatch.setattr(harness, "run_algorithm", record)
        spec = small_spec(scenario=scenario, snr_db=snr_db, algorithms=("maxsnr",), n_runs=20)
        monte_carlo(spec)
        # a serial sweep runs one seed at every point, then the next seed
        points = [(spec.seed_base + t, snr) for t in range(spec.n_runs) for snr in snr_db]
        assert len(seen) == len(points)
        for net, (seed, snr) in zip(seen, points):
            fresh = generate_hetnet(replace(scenario, snr_db=snr, seed=seed)).network
            assert_same_network(net, fresh)

    def test_each_seed_is_generated_once_across_the_grid(self, monkeypatch):
        generated, trials = [], []
        generate, trial = harness.generate_hetnet, harness.run_trial
        monkeypatch.setattr(harness, "generate_hetnet", lambda c: generated.append(c) or generate(c))
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a[1:3]) or trial(*a))
        spec = small_spec(snr_db=(5.0, 15.0, 25.0, 35.0), algorithms=("maxsnr",), n_runs=3)
        result = monte_carlo(spec, jobs=1)
        assert [c.seed for c in generated] == [17, 18, 19]
        assert {c.snr_db for c in generated} == {5.0}
        # one seed at every point in grid order, then the next seed
        assert trials == [(t, s) for t in range(3) for s in spec.snr_db]
        # the records stay SNR-major
        assert [(r.snr_db, r.seed) for r in result.records] == [
            (s, 17 + t) for s in spec.snr_db for t in range(3)
        ]


class TestExports:
    def test_empty_result_gives_header_only(self, tmp_path):
        spec = small_spec()
        empty = MonteCarloResult(spec=spec, records=(), means={}, cdf={})
        path = tmp_path / "empty.csv"
        export_csv(empty, path)
        assert path.read_text().strip() == (
            "n_macro,picos_per_macro,n_users,user_dist,snr_db,seed,algorithm,"
            "min_sinr_linear,min_sinr_db,runtime_ms,converged,upper_bound,note"
        )

    def test_single_record_round_trip(self, tmp_path):
        spec = small_spec(n_runs=1, algorithms=("maxsnr",))
        result = monte_carlo(spec)
        csv_path = tmp_path / "one.csv"
        export_csv(result, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2
        rows = load_records_csv(csv_path)
        assert rows[0]["min_sinr_linear"] == result.records[0].cells["maxsnr"].min_sinr
        json_path = tmp_path / "one.json"
        export_json(result, json_path)
        doc = json.loads(json_path.read_text())
        assert doc["records"][0]["algorithms"]["maxsnr"]["min_sinr"] == (
            result.records[0].cells["maxsnr"].min_sinr
        )

    def test_zero_min_sinr_exports_null_db(self, tmp_path):
        # its dB value is -inf, which json.dump once wrote as -Infinity
        result = monte_carlo(small_spec(n_runs=1, algorithms=("maxsnr",)))
        record = result.records[0]
        zero = replace(record, cells={"maxsnr": replace(record.cells["maxsnr"], min_sinr=0.0)})
        path = tmp_path / "zero.json"
        export_json(replace(result, records=(zero,)), path)
        cell = json.loads(path.read_text(), parse_constant=_refuse_constant)["records"][0]["algorithms"]["maxsnr"]
        assert (cell["min_sinr"], cell["min_sinr_db"]) == (0.0, None)

    def test_reimported_records_reproduce_means(self, tmp_path):
        spec = small_spec(n_runs=25, snr_db=(10.0, 20.0), algorithms=("maxsnr", "ulsuma"))
        result = monte_carlo(spec)
        path = tmp_path / "records.csv"
        export_csv(result, path)
        rows = load_records_csv(path)
        assert len(rows) == 25 * 2 * 2
        for (name, snr), cell in result.means.items():
            values = [
                r["min_sinr_linear"]
                for r in rows
                if r["algorithm"] == name and r["snr_db"] == snr
            ]
            assert float(np.mean(values)) == cell.mean_min_sinr

    def test_sweep_reruns_are_byte_identical(self, tmp_path):
        spec = small_spec(n_runs=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(monte_carlo(spec), a)
        export_csv(monte_carlo(spec), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("algorithms", SHARING_ORDERS, ids=["relaxation-first", "two-stage-first"])
    def test_reusing_cell_is_timed_with_the_shared_relaxation(self, tmp_path, monkeypatch, algorithms):
        # runtime_ms is what an algorithm costs alone: a cell that reuses a
        # relaxation adds the time that relaxation's one solve took
        delay_s, slowed = 0.05, []

        def slow(relax):
            def run(net):
                slowed.append(relax.__name__)
                time.sleep(delay_s)
                return relax(net)

            return run

        for name in ("ulsum_exact", "ulsuma"):
            monkeypatch.setattr(harness, name, slow(getattr(harness, name)))
        spec_path, out = tmp_path / "exp.json", tmp_path / "r.csv"
        spec = small_spec(scenario=C08_SCENARIO, algorithms=algorithms, n_runs=1)
        spec_path.write_text(json.dumps(experiment_to_json(spec)))
        res = CliRunner().invoke(
            cli_main, ["sweep", "--spec", str(spec_path), "--out", str(out), "--timings"]
        )
        assert res.exit_code == 0, res.output
        assert sorted(slowed) == ["ulsum_exact", "ulsuma"]  # one solve of each relaxation
        runtime = {row["algorithm"]: row["runtime_ms"] for row in load_records_csv(out)}
        for name in ("ulsum", "dlsum", "ulsuma", "dlsuma"):
            assert runtime[name] >= delay_s * 1e3, name

    def test_timings_column_gated(self, tmp_path):
        spec = small_spec(n_runs=1, algorithms=("maxsnr",))
        result = monte_carlo(spec)
        bare, timed = tmp_path / "bare.csv", tmp_path / "timed.csv"
        export_csv(result, bare)
        export_csv(result, timed, timings=True)
        assert load_records_csv(bare)[0]["runtime_ms"] is None
        assert load_records_csv(timed)[0]["runtime_ms"] > 0

    def test_experiment_spec_round_trip(self):
        spec = small_spec()
        doc = json.loads(json.dumps(experiment_to_json(spec)))
        assert experiment_from_json(doc) == spec

    @pytest.mark.parametrize(
        "field, value",
        [("out_csv", "r.csv"), ("out_cdf", "c.csv"), ("cdf_clip", 1.5), ("eps", 1e-6)],
        ids=["out_csv", "out_cdf", "cdf_clip", "eps"],
    )
    def test_experiment_document_rejects_removed_fields(self, field, value):
        # output paths are sweep options, the CDF clip is harness.CDF_CLIP and
        # a sweep runs the auction at its default eps
        with pytest.raises(ValidationError, match=f"unknown experiment fields: .*{field}"):
            experiment_from_json({**_SMALL_SPEC, field: value})

    def test_experiment_document_rejects_unknown_fields(self):
        # a misspelt n_runs once ran the 500-trial default
        doc = {"snr_db": [10], "algorithms": ["maxsnr"], "n_run": 5}
        with pytest.raises(ValidationError, match="n_run"):
            experiment_from_json(doc)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(algorithms=("gradient-descent",))
        with pytest.raises(ValueError):
            small_spec(n_runs=0)
        with pytest.raises(ValueError):
            ExperimentSpec(
                scenario=ScenarioConfig(n_macro=9, picos_per_macro=1, n_users=30),
                snr_db=(10.0,),
                algorithms=("brute",),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr_db", (math.nan,)),
            ("snr_db", (10.0, -math.inf)),
            ("snr_db", (10, 10.0)),
            ("snr_db", ()),
            ("algorithms", ("maxsnr", "maxsnr")),
            ("snr_db", ("10", True)),
            ("snr_db", (10.0, True)),
        ],
        ids=[
            "nan-snr",
            "infinite-snr",
            "duplicate-snr",
            "empty-snr",
            "duplicate-algorithm",
            "string-snr",
            "bool-snr",
        ],
    )
    def test_spec_rejects_bad_grid(self, field, value):
        with pytest.raises(ValidationError, match=field):
            small_spec(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr_db", 10.0),
            ("snr_db", None),
            ("snr_db", "10"),
            ("algorithms", None),
            ("algorithms", "maxsnr"),
            ("algorithms", 3),
            ("snr_db", {"10": 10.0}),
            ("algorithms", {"maxsnr": 1}),
        ],
        ids=[
            "float-snr",
            "null-snr",
            "string-snr",
            "null-algorithms",
            "string-algorithms",
            "int-algorithms",
            "object-snr",
            "object-algorithms",
        ],
    )
    def test_spec_fields_must_be_sequences(self, field, value):
        # a bare string is not a sequence of names: "maxsnr" once became
        # unknown algorithms ['m', 'a', 'x', ...]; 10.0 and None once raised
        # TypeError.  An experiment document's field meets the same one rule
        message = f"^{field} must be a sequence, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            small_spec(**{field: value})
        with pytest.raises(ValidationError, match=message):
            experiment_from_json({**_SMALL_SPEC, field: value})

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("algorithms", [["maxsnr"]], "algorithms entries must be names"),
            ("algorithms", [{"a": 1}], "algorithms entries must be names"),
            ("algorithms", [3], "algorithms entries must be names"),
            ("snr_db", [True], "snr_db entries must be numbers"),
            ("snr_db", [None], "snr_db entries must be numbers"),
        ],
        ids=["list-algorithm", "dict-algorithm", "numeric-algorithm", "bool-snr", "null-snr"],
    )
    def test_experiment_document_entries_meet_the_spec_rule(self, field, values, message):
        # one element rule: a document's entries fail as the Python spec's do
        with pytest.raises(ValidationError, match=message):
            experiment_from_json({**_SMALL_SPEC, field: values})
        with pytest.raises(ValidationError, match=message):
            small_spec(**{field: tuple(values)})

    def test_spec_rejects_seeds_of_64_bits(self):
        small_spec(seed_base=2**64 - 3, n_runs=3)
        with pytest.raises(ValidationError, match=r"^seeds must stay below 2\*\*64"):
            small_spec(seed_base=2**64 - 3, n_runs=4)

    def test_spec_rejects_a_negative_seed_base(self):
        # numpy's generators take no negative seed: the first trial once failed
        # with "expected non-negative integer"
        with pytest.raises(ValidationError, match="^seed_base must be non-negative, got -1"):
            small_spec(seed_base=-1)


# A 2 x 2 network whose budgets of 1e308 overflow the sum-power relaxation's
# float range: ulsum and ulsuma return NaN, and dlsum a NaN upper bound.
_OVERFLOW_BUDGETS = frozen_network("overflow_relaxation_budget_2x2")


class TestNonFiniteAnswers:
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("min_sinr", {"min_sinr": math.inf}),
            ("min_sinr", {"min_sinr": math.nan, "upper_bound": math.nan}),
            ("upper_bound", {"min_sinr": 1.0, "upper_bound": math.nan}),
            ("upper_bound", {"min_sinr": 1.0, "upper_bound": -math.inf}),
        ],
        ids=["inf", "nan-both", "nan-bound", "minus-inf-bound"],
    )
    def test_outcome_rejects_a_non_finite_answer(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} is not finite"):
            Outcome(**kwargs)

    @pytest.mark.parametrize(
        "name, field", [("ulsum", "min_sinr"), ("ulsuma", "min_sinr"), ("dlsum", "upper_bound")]
    )
    def test_overflowing_budgets_raise_naming_the_field(self, name, field):
        # numpy warns of the overflow first; -W error::RuntimeWarning raises it
        with pytest.warns(RuntimeWarning) as warned:
            with pytest.raises(ValueError, match=f"^{field} is not finite"):
                ALGORITHMS[name](_OVERFLOW_BUDGETS)
        assert "overflow" in str(warned[0].message)

    @staticmethod
    def _sweep_4x4(tmp_path, snr_db: float, algorithms: list[str]):
        spec, out = tmp_path / "spec.json", tmp_path / "r.csv"
        doc = {**_SMALL_SPEC, "snr_db": [snr_db], "algorithms": algorithms, "n_runs": 4}
        doc["scenario"] = scenario_to_json(ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4))
        spec.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli_main, ["sweep", "--spec", str(spec), "--out", str(out)])
        assert res.exit_code == 0, res.output
        return res.output.splitlines(), load_records_csv(out)

    def test_sweep_counts_non_finite_cells_as_failed(self, tmp_path):
        # at 3064 dB every macro budget is 1e308, so the pooled budget of the
        # sum-power relaxation overflows; NaN cells were once counted as ok
        # and averaged into a mean of nan
        with pytest.warns(RuntimeWarning) as warned:
            lines, rows = self._sweep_4x4(tmp_path, 3064.0, ["ulsuma", "dlsuma"])
        assert "overflow" in str(warned[0].message)
        assert lines == [
            f"{name} @ 3064 dB: mean min-SINR nan (0 ok, 0 non-converged, 4 failed)"
            for name in ("ulsuma", "dlsuma")
        ]
        for name, field in (("ulsuma", "min_sinr"), ("dlsuma", "upper_bound")):
            notes = [row["note"] for row in rows if row["algorithm"] == name]
            assert notes == [f"error: {field} is not finite (nan): the network overflows the float range"] * 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dlsuma_answers_at_1540_db_without_overflow(self, tmp_path):
        # every budget at 1540 dB is finite, and dlsuma's rescale of its
        # balanced powers once overflowed in power * budget before dividing
        # by the largest budget, so every cell failed
        lines, rows = self._sweep_4x4(tmp_path, 1540.0, ["dlsuma"])
        assert lines == ["dlsuma @ 1540 dB: mean min-SINR 12.746 (4 ok, 0 non-converged, 0 failed)"]
        for row in rows:  # a few ulps above the bound at most
            assert row["min_sinr_linear"] <= row["upper_bound"] * (1 + 1e-12), row

    @pytest.mark.parametrize(
        "name, alg, field, value",
        [
            ("overflow_sinr_gain_2x2", "dlsuma", "min_sinr", "inf"),
            ("overflow_relaxation_budget_2x2", "ulsum", "min_sinr", "nan"),
            ("overflow_relaxation_budget_2x2", "dlsuma", "upper_bound", "nan"),
        ],
    )
    def test_solve_with_a_non_finite_answer_exits_one(self, name, alg, field, value):
        # gains of 1e300 cancel in the SINR's interference to 0, and budgets
        # of 1e308 overflow the relaxation's pooled budget; solve once printed
        # "min_sinr": Infinity or NaN, which is not JSON, and exited 0
        proc = _cli_subprocess("solve", "--net", DATA / f"{name}.json", "--alg", alg)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(f"error: {field} is not finite ({value})")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_dlsuma_solves_budgets_of_1e300(self):
        # dlsuma's rescale once overflowed to NaN here, where maxsnr and brute
        # read 2.0; the document holds no NaN or Infinity anywhere
        proc = _cli_subprocess("solve", "--net", DATA / "overflow_power_budget_2x2.json", "--alg", "dlsuma")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout, parse_constant=_refuse_constant)
        assert doc["min_sinr"] == pytest.approx(2.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "name, alg, reason, action",
        [
            pytest.param(name, alg, reason, action, id=f"{name}-{alg}-{reason}{suffix}")
            for name, reason in (
                ("underflow_noise_1x1", "noise over gain underflows to 0"),
                ("overflow_noise_1x1", "noise over gain overflows to inf"),
            )
            for action, suffix in (("error", ""), ("default", "-default-warnings"))
            for alg in ALGORITHMS
        ]
        + [
            pytest.param(
                "overflow_sinr_gain_2x2", "dlsuma", "divide by zero", "error",
                id="overflow_sinr_gain_2x2-dlsuma-divide by zero",
            )
        ],
    )
    def test_arithmetic_errors_exit_one(self, name, alg, reason, action):
        # noises of 1e-320 against a gain of 1e10 underflow to 0 over the
        # gain, which once left the relaxation's unit powers a zero sum to
        # divide by and the per-BS kernel an infinite SINR, and noises of
        # 1e300 against a gain of 1e-20 overflow to inf, which once ended in
        # numpy's "Array must not contain infs or NaNs"; both now fail the
        # network's construction, under either warning filter and with no
        # warning; gains of 1e300 leave an interference that cancels to 0
        # (a RuntimeWarning raised as an error); both once left the CLI as
        # tracebacks
        assert len(ALGORITHMS) == 8
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter(action, RuntimeWarning)
            res = CliRunner().invoke(cli_main, ["solve", "--net", str(DATA / f"{name}.json"), "--alg", alg])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.stderr.startswith("error: ") and reason in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.output
        assert [w for w in warned if issubclass(w.category, RuntimeWarning)] == []


def _cli_subprocess(*args, timeout=60, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter (see :func:`helpers.fresh_python`)."""
    return fresh_python("-m", "hetnet_maxmin.cli", *args, timeout=timeout, preexec_fn=preexec_fn)


_ONE_LINK_NETWORK = {
    "n_bs": 1,
    "n_users": 1,
    "gain": [[2.0]],
    "budget": [1.0],
    "noise_dl": [1.0],
    "noise_ul": [1.0],
}
_SMALL_SPEC = {
    "scenario": scenario_to_json(ScenarioConfig(n_macro=1, picos_per_macro=0, n_users=1)),
    "snr_db": [10.0],
    "algorithms": ["maxsnr"],
    "n_runs": 1,
}
# The inputs that the output-rule table copies from tests/data into its
# working directory, by the name that its command lines use.
_RULE_INPUTS = {
    "scenario.json": "scenario_9x1_k18_15db.json",
    "net.json": "uni_3x0_k3_10db_seed3.json",
    "tied.json": "tied_3x3.json",
    "spec.json": "sweep_3x0_k3_all_algorithms.json",
    "formula.cnf": "unsat_1var.cnf",
}
_CLASH = {
    command: rf"error: {command} outputs must be distinct files other than its input .*\n"
    for command in ("gen", "solve", "sweep", "gadget")
}
_NO_DIR = r"error: .*No such file or directory: 'no-such-dir/out'\n"
_SWEEP_DASH = "error: sweep outputs must be files: its stdout carries the summary, got -\n"
# One row per clause of the output rule: a command line, run in a directory
# that holds _RULE_INPUTS, an older output old.csv and an empty sub/ ({tmp}
# is the directory's absolute path); the exit code; a regex that the whole output
# matches; and the files the command leaves, each with a regex that its
# whole text matches.
_OUTPUT_RULE = [
    # outputs that name one file, spelled alike or not
    ("gen --config scenario.json --out same.json --geometry-out same.json", 1, _CLASH["gen"], {}),
    ("sweep --spec spec.json --out r --cdf-out r", 1, _CLASH["sweep"], {}),
    ("sweep --spec spec.json --out r --json-out ./r", 1, _CLASH["sweep"], {}),
    ("sweep --spec spec.json --out r.csv --cdf-out r --json-out sub/../r", 1, _CLASH["sweep"], {}),
    # an output that names the command's input
    ("gen --config scenario.json --out scenario.json", 1, _CLASH["gen"], {}),
    ("gen --config scenario.json --out n.json --geometry-out ./scenario.json", 1, _CLASH["gen"], {}),
    ("solve --net net.json --alg maxsnr --out net.json", 1, _CLASH["solve"], {}),
    ("sweep --spec spec.json --out spec.json", 1, _CLASH["sweep"], {}),
    ("sweep --spec spec.json --out r.csv --cdf-out {tmp}/spec.json", 1, _CLASH["sweep"], {}),
    ("sweep --spec spec.json --out r.csv --json-out ./spec.json", 1, _CLASH["sweep"], {}),
    ("gadget --cnf formula.cnf --out formula.cnf", 1, _CLASH["gadget"], {}),
    ("gadget --cnf formula.cnf --verify --out ./formula.cnf", 1, _CLASH["gadget"], {}),
    # an output that cannot be created: the outputs created before it are
    # gone, and an older file keeps its bytes
    ("gen --config scenario.json --out no-such-dir/out", 1, _NO_DIR, {}),
    ("gen --config scenario.json --out n.json --geometry-out no-such-dir/out", 1, _NO_DIR, {}),
    ("solve --net net.json --alg maxsnr --out no-such-dir/out", 1, _NO_DIR, {}),
    ("sweep --spec spec.json --out no-such-dir/out", 1, _NO_DIR, {}),
    ("sweep --spec spec.json --out r.csv --json-out no-such-dir/out", 1, _NO_DIR, {}),
    ("sweep --spec spec.json --out r.csv --cdf-out no-such-dir/out", 1, _NO_DIR, {}),
    ("sweep --spec spec.json --out old.csv --cdf-out c --json-out no-such-dir/out", 1, _NO_DIR, {}),
    ("gadget --cnf formula.cnf --out no-such-dir/out", 1, _NO_DIR, {}),
    ("gadget --cnf formula.cnf --verify --out no-such-dir/out", 1, _NO_DIR, {}),
    # "-" is stdout, except to sweep, whose stdout carries its summary
    ("sweep --spec spec.json --out -", 1, _SWEEP_DASH, {}),
    ("sweep --spec spec.json --out r.csv --cdf-out -", 1, _SWEEP_DASH, {}),
    ("sweep --spec spec.json --out r.csv --json-out -", 1, _SWEEP_DASH, {}),
    (
        "gen --config scenario.json --out - --geometry-out -",
        0,
        r'{"n_bs":.*}\n{"bs_positions":.*}\n',
        {},
    ),
    ("solve --net net.json --alg maxsnr --out -", 0, r'{"algorithm":"maxsnr",.*}\n', {}),
    ("gadget --cnf formula.cnf --out -", 0, r'{"n_bs":4,.*}\n', {}),
    (
        "gadget --cnf formula.cnf --verify --out -",
        0,
        r'{"sat_by_solver":false,.*"agrees":true,.*}\n',
        {},
    ),
    # a document whose command exits 2 is kept
    (
        "solve --net tied.json --alg p1prime --out x.json",
        2,
        "",
        {"x.json": r'{"algorithm":"p1prime",.*"status":"infeasible",.*}\n'},
    ),
]
# Scenario fields of the wrong type: a fractional count once indexed past an
# array or silently built fewer macros, and a string once raised TypeError.
_BAD_SCENARIO_FIELDS = {
    "n_users": 3.5,
    "n_macro": 2.5,
    "congested_cell": 1.5,
    "snr_db": "10",
    "wrap_around": "yes",
    "picos_per_macro": True,
}


class TestCli:
    def _write_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(scenario_to_json(ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4)))
        )
        return path

    def test_gen_and_solve(self, tmp_path):
        runner = CliRunner()
        scen = self._write_scenario(tmp_path)
        net_path = tmp_path / "net.json"
        res = runner.invoke(
            cli_main, ["gen", "--config", str(scen), "--seed", "3", "--out", str(net_path)]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(net_path.read_text())
        assert doc["n_bs"] == 4 and doc["n_users"] == 4
        solved = runner.invoke(cli_main, ["solve", "--net", str(net_path), "--alg", "dlsuma"])
        assert solved.exit_code == 0, solved.output
        out = json.loads(solved.output)
        assert out["min_sinr"] <= out["upper_bound"] + 1e-9
        assert out["min_sinr_db"] == pytest.approx(10 * math.log10(out["min_sinr"]))

    def test_solve_infeasible_one_to_one_exits_two(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(
            json.dumps(
                {
                    "n_bs": 2,
                    "n_users": 2,
                    "gain": [[1.0, 1.0], [1.0, 1.0]],
                    "budget": [1.0, 1.0],
                    "noise_dl": [1.0, 1.0],
                    "noise_ul": [1.0, 1.0],
                }
            )
        )
        res = CliRunner().invoke(cli_main, ["solve", "--net", str(net_path), "--alg", "p1prime"])
        assert res.exit_code == 2
        assert json.loads(res.output)["status"] == "infeasible"

    @pytest.mark.parametrize("command", ["gen", "solve", "sweep", "gadget"])
    def test_missing_input_exits_one(self, tmp_path, command):
        # a missing output directory is a row of _OUTPUT_RULE
        option = {"gen": "--config", "solve": "--net", "sweep": "--spec", "gadget": "--cnf"}[command]
        args = [command, option, str(tmp_path / "no-such-file"), "--out", str(tmp_path / "out")]
        res = CliRunner().invoke(cli_main, args + (["--alg", "maxsnr"] if command == "solve" else []))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert "error:" in res.output and "No such file" in res.output
        assert "Traceback" not in res.output

    def test_usage_error_exits_one(self):
        res = CliRunner().invoke(cli_main, ["solve", "--alg", "dlsum"])
        assert res.exit_code == 1

    def test_sweep_and_cdf(self, tmp_path):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": scenario_to_json(
                        ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4)
                    ),
                    "snr_db": [10.0],
                    "algorithms": ["maxsnr", "ulsuma"],
                    "n_runs": 2,
                    "seed_base": 0,
                }
            )
        )
        out_csv, out_cdf = tmp_path / "res.csv", tmp_path / "cdf.csv"
        args = ["--spec", str(spec_path), "--out", str(out_csv), "--cdf-out", str(out_cdf)]
        res = CliRunner().invoke(cli_main, ["sweep", *args])
        assert res.exit_code == 0, res.output
        assert len(out_csv.read_text().strip().splitlines()) == 1 + 2 * 2
        assert out_cdf.read_text().startswith("algorithm,snr_db,value,cumulative_probability")

    def test_sweep_summary_lists_nonconverged(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ALGORITHMS, "stalled", lambda net: Outcome(1.0, converged=False))
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": scenario_to_json(
                        ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4)
                    ),
                    "snr_db": [10.0],
                    "algorithms": ["maxsnr", "stalled"],
                    "n_runs": 2,
                }
            )
        )
        res = CliRunner().invoke(
            cli_main, ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")]
        )
        assert res.exit_code == 0, res.output
        assert "stalled @ 10 dB: mean min-SINR nan (0 ok, 2 non-converged, 0 failed)" in res.output
        assert "(2 ok, 0 non-converged, 0 failed)" in res.output

    def test_sweep_with_bad_eps_exits_one(self, tmp_path):
        # eps is no spec field (a sweep runs the auction at its default), so
        # any eps fails before the output is created
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": scenario_to_json(
                        ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4)
                    ),
                    "snr_db": [10.0],
                    "algorithms": ["aufp"],
                    "n_runs": 2,
                    "eps": -1,
                }
            )
        )
        out_csv = tmp_path / "r.csv"
        res = CliRunner().invoke(cli_main, ["sweep", "--spec", str(spec_path), "--out", str(out_csv)])
        assert res.exit_code == 1
        assert "eps" in res.output
        assert not out_csv.exists()

    def test_solve_seed_flag_is_gone(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(
            json.dumps(
                {
                    "n_bs": 1,
                    "n_users": 1,
                    "gain": [[2.0]],
                    "budget": [1.0],
                    "noise_dl": [1.0],
                    "noise_ul": [1.0],
                }
            )
        )
        res = CliRunner().invoke(
            cli_main, ["solve", "--net", str(net_path), "--alg", "maxsnr", "--seed", "3"]
        )
        assert res.exit_code == 1
        res = CliRunner().invoke(cli_main, ["solve", "--net", str(net_path), "--alg", "maxsnr"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["min_sinr"] == pytest.approx(2.0)

    def test_solve_tol_flag_is_gone(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(_ONE_LINK_NETWORK))
        res = CliRunner().invoke(
            cli_main, ["solve", "--net", str(net_path), "--alg", "brute", "--tol", "1e-8"]
        )
        assert res.exit_code == 1

    def test_solve_eps_flag_is_gone(self):
        # a sweep and solve run the auction at its default eps alike
        net_path = DATA / "uni_3x0_k3_10db_seed3.json"
        res = CliRunner().invoke(
            cli_main, ["solve", "--net", str(net_path), "--alg", "aufp", "--eps", "1e-8"]
        )
        assert res.exit_code == 1
        assert "--eps" in res.output

    @pytest.mark.parametrize(
        "command, doc",
        [
            pytest.param("solve", [], id="solve-list"),
            pytest.param("solve", {**_ONE_LINK_NETWORK, "n_bs": None}, id="solve-null-n_bs"),
            pytest.param("solve", {**_ONE_LINK_NETWORK, "n_bs": True}, id="solve-bool-n_bs"),
            pytest.param("sweep", {**_SMALL_SPEC, "snr_db": 10.0}, id="sweep-scalar-snr"),
            pytest.param("sweep", {**_SMALL_SPEC, "snr_db": "10"}, id="sweep-string-snr"),
            pytest.param("sweep", {**_SMALL_SPEC, "scenario": []}, id="sweep-list-scenario"),
            pytest.param("sweep", [], id="sweep-list"),
            pytest.param(
                "sweep",
                {k: v for k, v in _SMALL_SPEC.items() if k != "snr_db"},
                id="sweep-missing-snr",
            ),
            pytest.param("sweep", {**_SMALL_SPEC, "n_runs": 2.5}, id="sweep-fractional-runs"),
            pytest.param("sweep", {**_SMALL_SPEC, "algorithms": [3]}, id="sweep-numeric-algorithm"),
            pytest.param("sweep", {**_SMALL_SPEC, "seed_base": "0"}, id="sweep-string-seed_base"),
            pytest.param("sweep", {**_SMALL_SPEC, "n_run": 5}, id="sweep-unknown-field"),
            pytest.param(
                "solve", {**_ONE_LINK_NETWORK, "gain": [["2"]]}, id="solve-string-gain"
            ),
            pytest.param(
                "solve", {**_ONE_LINK_NETWORK, "budget": [True]}, id="solve-bool-budget"
            ),
            pytest.param(
                "solve",
                {**_ONE_LINK_NETWORK, "n_users": 2, "gain": [[1.0, 1.0], [1.0]]},
                id="solve-ragged-gain",
            ),
            pytest.param(
                "solve",
                {k: v for k, v in _ONE_LINK_NETWORK.items() if k != "noise_ul"},
                id="solve-missing-noise_ul",
            ),
            *(
                pytest.param("gen", {**_SMALL_SPEC["scenario"], field: value}, id=f"gen-{field}")
                for field, value in _BAD_SCENARIO_FIELDS.items()
            ),
            # json.dumps writes Infinity, which the package's codec refuses
            pytest.param(
                "gen",
                {**_SMALL_SPEC["scenario"], "macro_spacing_m": math.inf},
                id="gen-infinite-spacing",
            ),
            # finite, but 2 s / sqrt(3) overflows while users are placed
            pytest.param(
                "gen",
                {**_SMALL_SPEC["scenario"], "n_macro": 2, "n_users": 3, "macro_spacing_m": 1.7e308},
                id="gen-overflowing-spacing",
            ),
            # each once created the output, then failed at the first trial or
            # ran every seed twice
            pytest.param("sweep", {**_SMALL_SPEC, "snr_db": [math.nan]}, id="sweep-nan-snr"),
            pytest.param("sweep", {**_SMALL_SPEC, "snr_db": [10, 10.0]}, id="sweep-duplicate-snr"),
            pytest.param(
                "sweep",
                {**_SMALL_SPEC, "algorithms": ["maxsnr", "maxsnr"]},
                id="sweep-duplicate-algorithm",
            ),
            pytest.param(
                "sweep", {**_SMALL_SPEC, "algorithms": ["MAX-SNR"]}, id="sweep-algorithm-alias"
            ),
            *(
                pytest.param(
                    "sweep",
                    {**_SMALL_SPEC, "scenario": {**_SMALL_SPEC["scenario"], field: value}},
                    id=f"sweep-scenario-{field}",
                )
                for field, value in _BAD_SCENARIO_FIELDS.items()
            ),
        ],
    )
    def test_malformed_document_is_an_error_not_a_traceback(self, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        args = {
            "gen": ["--config", str(path)],
            "solve": ["--net", str(path), "--alg", "maxsnr"],
        }.get(command, ["--spec", str(path)])
        res = CliRunner().invoke(cli_main, [command, *args, "--out", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert "error:" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "out").exists()

    def test_solve_aufp_on_tied_gains_ends_infeasible(self):
        # equal gains everywhere: the default eps breaks the ties within 10 s,
        # and the match cannot give SINR 1
        proc = _cli_subprocess("solve", "--net", DATA / "tied_3x3.json", "--alg", "aufp", timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["status"] == "infeasible"

    @pytest.mark.parametrize("name", ["price_war_equal_rows_3x3", "price_war_equal_columns_3x3"])
    def test_solve_aufp_on_a_price_war_ends_within_k_eps(self, name):
        # equal gain rows and equal gain columns, each solved within 10 s: at
        # the default eps the plain auction's war would take about 280,000
        # (equal rows) or 500,000 (equal columns) rounds
        docs = {}
        for alg in ("aufp", "p1prime"):
            proc = _cli_subprocess("solve", "--net", DATA / f"{name}.json", "--alg", alg, timeout=10)
            assert proc.returncode in (0, 2), proc.stderr
            docs[alg] = json.loads(proc.stdout)
        net = frozen_network(name)
        gap = net.n_users * default_eps(log_gain_matrix(net))
        assert docs["aufp"]["assignment_total_gain"] >= docs["p1prime"]["assignment_total_gain"] - gap

    def test_sweep_over_nan_snr_exits_one_before_creating_its_output(self, tmp_path):
        # a spec whose one SNR point is NaN
        out = tmp_path / "nan.csv"
        res = CliRunner().invoke(
            cli_main, ["sweep", "--spec", str(DATA / "experiment_nan_snr.json"), "--out", str(out)]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        # NaN is not JSON, so the codec refuses the file before any spec rule
        assert res.output.startswith(f"error: {DATA / 'experiment_nan_snr.json'} is not JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_over_an_overflowing_snr_point_exits_one(self, tmp_path, jobs):
        # a spec whose macro budget at 3075 dB overflows to inf, so that
        # point's network, built from the seed's
        # 5 dB draw, fails its validation as a fresh draw would
        out, cdf = tmp_path / "r.csv", tmp_path / "c.csv"
        spec = DATA / "experiment_overflow_snr.json"
        res = CliRunner().invoke(
            cli_main,
            ["sweep", "--spec", str(spec), "--out", str(out), "--cdf-out", str(cdf), "--jobs", jobs],
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == "error: budget must be finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, field",
        [
            pytest.param("gen", "snr_db", id="gen"),
            pytest.param("sweep", "snr_db", id="sweep"),
            pytest.param("gen", "macro_power_gap_db", id="gen-macro_power_gap_db"),
            pytest.param("sweep", "macro_power_gap_db", id="sweep-macro_power_gap_db"),
        ],
    )
    def test_an_snr_beyond_float_power_exits_one_naming_the_budget(self, tmp_path, command, field):
        # 10.0 ** 310 raises OverflowError where a product overflows to inf, so
        # an SNR or a macro gap of 3100 dB once ended in
        # "error: (34, 'Numerical result out of range')"
        scenario = {"n_macro": 1, "picos_per_macro": 0, "n_users": 1}
        if field == "macro_power_gap_db":  # a macro gap of 3100 dB
            scenario = json.loads((DATA / "scenario_overflow_macro_gap.json").read_text())
        points = [5.0, 3100.0] if field == "snr_db" else [5.0]
        doc, out = tmp_path / "doc.json", tmp_path / "out"
        if command == "gen":
            if field == "macro_power_gap_db":  # the file as written, at 15 dB
                doc = DATA / "scenario_overflow_macro_gap.json"
            else:
                doc.write_text(json.dumps({**scenario, "snr_db": points[-1]}))
            args = ["gen", "--config", str(doc), "--out", str(out)]
        else:
            spec = {"scenario": scenario, "snr_db": points, "algorithms": ["maxsnr"]}
            doc.write_text(json.dumps({**spec, "n_runs": 2}))
            args = ["sweep", "--spec", str(doc), "--out", str(out)]
        res = CliRunner().invoke(cli_main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == "error: budget must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag", "config-under-flag"])
    def test_gen_with_a_negative_seed_exits_one_naming_it(self, tmp_path, where):
        # numpy's "expected non-negative integer" once named no field, and a
        # --seed flag once hid an invalid seed in the config document
        config, out = tmp_path / "scenario.json", tmp_path / "net.json"
        doc = scenario_to_json(ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4))
        config.write_text(json.dumps({**doc, "seed": -4} if where.startswith("config") else doc))
        flag = {"config": [], "flag": ["--seed", "-4"], "config-under-flag": ["--seed", "42"]}[where]
        res = CliRunner().invoke(cli_main, ["gen", "--config", str(config), "--out", str(out), *flag])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == "error: seed must be non-negative, got -4\n"
        assert not out.exists()

    def test_gen_seed_flag_replaces_the_config_seed(self, tmp_path):
        outs = []
        for seed, flag in ((1, ["--seed", "42"]), (42, [])):
            config, out = tmp_path / f"scenario{seed}.json", tmp_path / f"net{seed}.json"
            scenario = ScenarioConfig(n_macro=4, picos_per_macro=0, n_users=4, seed=seed)
            config.write_text(json.dumps(scenario_to_json(scenario)))
            res = CliRunner().invoke(cli_main, ["gen", "--config", str(config), "--out", str(out), *flag])
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_gen_with_an_underflowing_noise_exits_one_naming_it(self, tmp_path):
        # path-loss gains of at least 1e10 take a noise of 1e-320 to 0
        config, out = tmp_path / "scenario.json", tmp_path / "net.json"
        scenario = ScenarioConfig(
            n_macro=4, picos_per_macro=0, n_users=4, noise=1e-320, pathloss_ref_m=1e6
        )
        config.write_text(json.dumps(scenario_to_json(scenario)))
        res = CliRunner().invoke(cli_main, ["gen", "--config", str(config), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("error: noise over gain underflows to 0: ")
        assert len(res.output.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("solve", {**_ONE_LINK_NETWORK, "budget": ["@"]}),
            ("gen", {**_SMALL_SPEC["scenario"], "noise": "@"}),
            ("sweep", {**_SMALL_SPEC, "snr_db": ["@"]}),
        ],
        ids=["network", "scenario", "experiment"],
    )
    def test_non_json_number_exits_one_naming_the_file(self, tmp_path, command, doc, literal):
        # the stdlib's json reads these literals (1e400 as inf); the codec
        # refuses each one at parse
        path, out = tmp_path / "doc.json", tmp_path / "out"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        args = {
            "gen": ["--config", str(path)],
            "solve": ["--net", str(path), "--alg", "maxsnr"],
        }.get(command, ["--spec", str(path)])
        res = CliRunner().invoke(cli_main, [command, *args, "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith(f"error: {path} is not JSON: ")
        assert len(res.output.splitlines()) == 1
        assert not out.exists()

    def test_sweep_with_a_seed_of_64_bits_exits_one_before_any_trial(self, tmp_path):
        # the codec writes no integer of 2**64 or more; the sweep once ran
        # every trial and wrote seed 2**64 to its outputs
        spec, out, doc = tmp_path / "spec.json", tmp_path / "r.csv", tmp_path / "r.json"
        spec.write_text(json.dumps({**_SMALL_SPEC, "seed_base": 2**64 - 1, "n_runs": 2}))
        res = CliRunner().invoke(
            cli_main, ["sweep", "--spec", str(spec), "--out", str(out), "--json-out", str(doc)]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == (
            f"error: seeds must stay below 2**64, got seed_base {2**64 - 1} and n_runs 2\n"
        )
        assert list(tmp_path.iterdir()) == [spec]

    def test_gen_at_n_equal_k_100_round_trips_exactly(self, tmp_path):
        # the benchmark's largest scale config: the written document, read by
        # the stdlib's json with no non-JSON constant, holds the draw's bits
        config = ScenarioConfig(n_macro=25, picos_per_macro=3, n_users=100, snr_db=35.0, seed=5)
        path, out = tmp_path / "config.json", tmp_path / "net.json"
        path.write_text(json.dumps(scenario_to_json(config)))
        res = CliRunner().invoke(cli_main, ["gen", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out) as fh:
            doc = json.load(fh, parse_constant=_refuse_constant)
        net = generate_hetnet(config).network
        assert (doc["n_bs"], doc["n_users"]) == (100, 100)
        for name in ("gain", "budget", "noise_dl", "noise_ul"):
            assert np.array(doc[name], dtype=float).tobytes() == getattr(net, name).tobytes(), name

    def test_sweep_with_a_negative_seed_base_exits_one_naming_it(self, tmp_path):
        spec, out = tmp_path / "spec.json", tmp_path / "r.csv"
        spec.write_text(json.dumps({**_SMALL_SPEC, "seed_base": -1}))
        res = CliRunner().invoke(cli_main, ["sweep", "--spec", str(spec), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == "error: seed_base must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_failed_sweep_removes_the_outputs_it_created(self, tmp_path, existing):
        # a spec whose pico ring lies just inside the macro's corner distance,
        # where no draw lands
        out, cdf, doc = tmp_path / "r.csv", tmp_path / "c.csv", tmp_path / "r.json"
        if existing:
            out.write_bytes(b"kept\n")
        args = ["--out", str(out), "--cdf-out", str(cdf), "--json-out", str(doc)]
        spec = DATA / "experiment_unplaceable_pico.json"
        res = CliRunner().invoke(cli_main, ["sweep", "--spec", str(spec), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("error: hexagon sampling failed")
        assert sorted(tmp_path.iterdir()) == ([out] if existing else [])
        if existing:
            assert out.read_bytes() == b"kept\n"

    @pytest.mark.parametrize(
        "line, code, output, left", _OUTPUT_RULE, ids=[row[0] for row in _OUTPUT_RULE]
    )
    def test_every_command_follows_the_output_rule(
        self, tmp_path, monkeypatch, line, code, output, left
    ):
        # the inputs are copies, so a command that breaks the rule overwrites
        # a copy and never tests/data; a row that exits 1 fails before any of
        # the commands' work, and no row changes a file that was there before
        calls = []

        def recorded(work):
            def run(*args, **kwargs):
                calls.append(work)
                return work(*args, **kwargs)

            return run

        monkeypatch.setattr(cli, "generate_hetnet", recorded(cli.generate_hetnet))
        monkeypatch.setattr(harness, "run_trial", recorded(harness.run_trial))
        monkeypatch.setattr(cli, "build_3sat_gadget", recorded(cli.build_3sat_gadget))
        monkeypatch.setattr(cli, "verify_sat_equivalence", recorded(cli.verify_sat_equivalence))
        for name, run in list(ALGORITHMS.items()):
            monkeypatch.setitem(ALGORITHMS, name, recorded(run))
        for name, source in _RULE_INPUTS.items():
            (tmp_path / name).write_bytes((DATA / source).read_bytes())
        (tmp_path / "old.csv").write_text("kept\n")
        (tmp_path / "sub").mkdir()
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(cli_main, line.format(tmp=tmp_path).split())
        assert res.exit_code == code, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        assert re.fullmatch(output, res.output), res.output
        assert bool(calls) == (code != 1)
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        for name, text in left.items():
            assert re.fullmatch(text, after.pop(tmp_path / name).decode()), name
        assert after == before

    @settings(max_examples=25, deadline=None)
    @given(st.booleans().flatmap(lambda sq: networks(3, 5, square=sq)))
    def test_solve_agrees_with_the_registry_in_process(self, tmp_path_factory, net):
        # solve on the network's own document prints the in-process outcome's
        # document, float for float, or exits 1 with the error line that the
        # in-process call raises
        path = tmp_path_factory.mktemp("agreement") / "net.json"
        path.write_bytes(_dump_json(network_to_json(net)))
        for alg, run in ALGORITHMS.items():
            res = CliRunner().invoke(cli_main, ["solve", "--net", str(path), "--alg", alg])
            try:
                out = run(net)
            except (ValueError, ArithmeticError, Warning) as exc:
                assert (res.exit_code, res.output) == (1, f"error: {exc}\n"), alg
                continue
            code = 0 if out.converged and out.status in (None, "optimal") else 2
            assert res.exit_code == code, (alg, res.output)
            doc = json.loads(_dump_json(_solve_document(alg, out)))
            assert json.loads(res.stdout) == doc, alg

    def test_one_sweep_writes_every_pinned_output(self, tmp_path, monkeypatch):
        calls = []

        def counted_trial(*args):
            calls.append(args)
            return run_trial(*args)

        monkeypatch.setattr(harness, "run_trial", counted_trial)
        out, cdf, doc = tmp_path / "r.csv", tmp_path / "c.csv", tmp_path / "r.json"
        spec = DATA / "sweep_3x0_k3_all_algorithms.json"
        args = ["--out", str(out), "--cdf-out", str(cdf), "--json-out", str(doc)]
        res = CliRunner().invoke(cli_main, ["sweep", "--spec", str(spec), *args])
        assert res.exit_code == 0, res.output
        assert out.read_bytes() == (DATA / "sweep_3x0_k3_all_algorithms.csv").read_bytes()
        assert cdf.read_bytes() == (DATA / "sweep_3x0_k3_all_algorithms_cdf.csv").read_bytes()
        records = json.loads(doc.read_text(), parse_constant=_refuse_constant)["records"]
        assert len(records) == 4
        assert len(calls) == 2 * 2  # 2 SNRs x 2 runs, each trial once
        # each relaxation entry is its two-stage sibling's stage 1, so their
        # bounds agree exactly
        for record in records:
            cells = record["algorithms"]
            for relaxed, two_stage in (("ulsuma", "dlsuma"), ("ulsum", "dlsum")):
                bound = cells[relaxed]["upper_bound"]
                assert bound is not None and bound == cells[two_stage]["upper_bound"], record

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_criterion_08_size_sweep_matches_its_pinned_files(self, tmp_path, jobs):
        # 18 users at 5-35 dB: every Perron solve takes several Noda steps,
        # the relaxations several policy steps, and dlsuma's stage 4 runs in
        # 13 of the 24 trials, none of which the 3-user pinned sweep reaches
        out, cdf = tmp_path / "r.csv", tmp_path / "c.csv"
        spec = DATA / "sweep_4x2_k18_criterion08.json"
        res = CliRunner().invoke(
            cli_main,
            ["sweep", "--spec", str(spec), "--out", str(out), "--cdf-out", str(cdf), "--jobs", jobs],
        )
        assert res.exit_code == 0, res.output
        assert out.read_bytes() == (DATA / "sweep_4x2_k18_criterion08.csv").read_bytes()
        assert cdf.read_bytes() == (DATA / "sweep_4x2_k18_criterion08_cdf.csv").read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--spec", "{spec}", "--out", "{tmp}/r.csv", "--jobs", "0"],
        ],
        ids=["sweep-jobs"],
    )
    def test_counts_below_one_are_usage_errors(self, tmp_path, monkeypatch, args):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_SMALL_SPEC))
        res = CliRunner().invoke(cli_main, [a.format(spec=spec, tmp=tmp_path) for a in args])
        assert res.exit_code == 1
        assert "Invalid value" in res.output
        assert calls == []

    @pytest.mark.parametrize(
        "outputs", [[], ["--cdf-out", "{tmp}/cdf.csv"]], ids=["sweep", "cdf"]
    )
    def test_no_output_path_exits_one(self, tmp_path, monkeypatch, outputs):
        # the records CSV is required even when only the CDF is wanted
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_SMALL_SPEC))
        args = [a.format(tmp=tmp_path) for a in outputs]
        res = CliRunner().invoke(cli_main, ["sweep", "--spec", str(spec), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert "Missing option '--out'" in res.output
        assert calls == []
        assert list(tmp_path.iterdir()) == [spec]

    def test_gen_geometry_document_is_the_geometry_fields(self, tmp_path):
        geometry = tmp_path / "geometry.json"
        config = self._write_scenario(tmp_path)
        res = CliRunner().invoke(
            cli_main, ["gen", "--config", str(config), "--geometry-out", str(geometry)]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(geometry.read_text())
        assert set(doc) == {f.name for f in fields(Geometry)}
        assert len(doc["bs_positions"]) == 4 and len(doc["user_cell"]) == 4

    def test_sweep_json_document_round_trips_its_spec(self, tmp_path):
        spec_doc = {**_SMALL_SPEC, "algorithms": ["maxsnr", "p1prime"], "n_runs": 2}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        out = tmp_path / "sweep.json"
        args = ["--spec", str(spec), "--out", str(tmp_path / "r.csv"), "--json-out", str(out)]
        res = CliRunner().invoke(cli_main, ["sweep", *args])
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert experiment_from_json(doc["spec"]) == experiment_from_json(spec_doc)
        assert len(doc["records"]) == 2
        cell_fields = {f.name for f in fields(AlgoCell)} | {"min_sinr_db"}
        for record in doc["records"]:
            assert set(record["algorithms"]) == {"maxsnr", "p1prime"}
            for cell in record["algorithms"].values():
                assert set(cell) == cell_fields

    @pytest.mark.parametrize("alg", ["p1prime", "aufp"])
    def test_solve_without_perfect_matching_exits_one(self, alg):
        # BSs 1 and 2 reach only user 0
        net_path = DATA / "no_perfect_matching_3x3.json"
        start = time.process_time()
        res = CliRunner().invoke(cli_main, ["solve", "--net", str(net_path), "--alg", alg])
        assert time.process_time() - start < 1.0
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("error: no perfect matching")
        assert "Traceback" not in res.output

    def test_solve_brute_keeps_the_optimum_of_a_wide_range_network(self):
        # the screen's LU solve puts -5.3e-27 beside entries of 1e-7 in the
        # optimum's least power, which a sign test once dropped
        net_path = DATA / "brute_screen_rounding_3x4.json"
        res = CliRunner().invoke(cli_main, ["solve", "--net", str(net_path), "--alg", "brute"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["association"] == [2, 0, 1, 1] and doc["min_sinr"] >= 0.9999999999, doc

    def test_gadget_verify(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        res = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(cnf), "--verify"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["agrees"] is True
        plain = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(cnf)])
        assert plain.exit_code == 0
        assert json.loads(plain.output)["n_bs"] == 7

    def test_gadget_verify_on_unsatisfiable_file(self):
        # one variable, required both true and false
        res = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(DATA / "unsat_1var.cnf"), "--verify"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["sat_by_solver"] is False and doc["agrees"] is True

    def test_gadget_verify_on_satlib_trailer_file(self):
        # SATLIB's "%" and "0" trailer once read as an empty clause; the
        # gadget of its 2 clauses and 3 variables has 2 + 2 * 3 BSs and users
        path = DATA / "satlib_trailer_3var.cnf"
        res = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(path), "--verify"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["agrees"] is True
        plain = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(path)])
        assert plain.exit_code == 0, plain.output
        doc = json.loads(plain.output)
        assert doc["n_bs"] == doc["n_users"] == 8

    def test_gadget_verify_on_the_four_variable_file(self):
        # 3 clauses and 4 variables: 11 BSs and 16,384 candidates, decoded in
        # 31 chunks of at most 2^16 // 11^2 = 541
        path = DATA / "sat_4var_3clause.cnf"
        res = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(path), "--verify"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["agrees"] is True and doc["sat_by_solver"] is True
        assert repr(doc["network_opt"]) == "0.5485837703548635"

    @staticmethod
    def run_in_2_gb(*args):
        """Run the CLI in a subprocess whose address space is capped at 2 GB."""
        resource = pytest.importorskip("resource")
        cap = 2_000_000 * 1024

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        return _cli_subprocess(*args, timeout=120, preexec_fn=limit_memory)

    def test_gadget_on_huge_header_file_fails_before_allocating(self):
        # 30,000 variables would need a 60,001 x 60,001 gain matrix (26.8 GiB)
        for extra in ([], ["--verify"]):
            proc = self.run_in_2_gb("gadget", "--cnf", DATA / "huge_header_30000var.cnf", *extra)
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: a gadget of 60001 BSs"), proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    def test_gen_on_huge_scenario_file_fails_before_allocating(self):
        # 10,000 BSs and 10^6 users once died in user placement, allocating
        # a 10,000 x 10^6 distance array (74.5 GiB)
        proc = self.run_in_2_gb("gen", "--config", DATA / "scenario_huge_10000bs_1000000users.json")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: a scenario of 10000 BSs and 1000000 users"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_gen_on_fractional_user_count_file(self):
        # a scenario of 3.5 users
        path = DATA / "scenario_fractional_users.json"
        res = CliRunner().invoke(cli_main, ["gen", "--config", str(path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("error: n_users must be of type int")

    def test_gen_then_aufp_on_the_start_up_import_config(self, tmp_path):
        # the config of the start-up footprint test: a criterion-09 N = K draw
        # whose matched solve is below SINR 1, so solve exits 2
        runner = CliRunner()
        net_path = tmp_path / "net.json"
        config = DATA / "scenario_9x1_k18_15db.json"
        res = runner.invoke(cli_main, ["gen", "--config", str(config), "--out", str(net_path)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, ["solve", "--net", str(net_path), "--alg", "aufp"])
        assert res.exit_code in (0, 2), res.output
        assert json.loads(res.output)["algorithm"] == "aufp"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("1 1 1 0", "1 a 1 0"),
            ("p cnf 1 2", "p cnf x 2"),
            ("p cnf 1 2", "p cnf 1 2.0"),
            ("p cnf 1 2", "p cnf 1 3"),
            ("p cnf 1 2", "p cnf 1 2\np cnf 1 2"),
        ],
        ids=["literal", "variable-count", "clause-count", "clause-count-mismatch", "second-header"],
    )
    def test_malformed_dimacs_is_an_error_not_a_traceback(self, tmp_path, old, new):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text((DATA / "unsat_1var.cnf").read_text().replace(old, new))
        res = CliRunner().invoke(cli_main, ["gadget", "--cnf", str(cnf), "--verify"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert "error:" in res.output
        assert "Traceback" not in res.output
