"""In-memory span tracer for the traced benchmark run.

Every public function of each package module is wrapped under every name
that refers to it: ``twostage.ulsum``, ``harness.ulsum`` and ``cli.ulsum``
are three separate names, each replaced by its own wrapper, so a call is
recorded wherever it is made.  The click commands of ``cli`` are wrapped
through their callbacks.  ``Tracer.uninstall`` puts every original back, so
the untraced runs execute untouched package code.

A span is ``[name, start, end, parent, op]``: the layer-qualified function
name (``sumpower.ulsum``), perf-counter start and end in seconds, the index
of the enclosing span (-1 for none) and the id of the benchmark operation
it belongs to.  Spans stay in memory and are written as JSON at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "hetnet_maxmin"
LAYERS = ("scenario", "sumpower", "power", "twostage", "matching", "oracle", "model", "harness", "cli")


class Tracer:
    """Records spans and per-call counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list[float]] = defaultdict(list)
        self.op_kinds: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, len(self.op_kinds) - 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """One benchmark operation: a root span with a fresh operation id."""
        self.op_kinds.append(kind)
        idx = self._open(f"bench.{kind}")
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key].append(float(value))

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, func):
        hook = _HOOKS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer at every import site."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        sites = [importlib.import_module(PACKAGE), *modules.values()]
        public = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                func = getattr(module, attr, None)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    public[id(func)] = (f"{layer}.{attr}", func)
        for site in sites:
            for attr, value in list(vars(site).items()):
                if id(value) in public:
                    name, func = public[id(value)]
                    self._patch(site, attr, self._wrap(name, func))
        for cmd_name, command in modules["cli"].main.commands.items():
            self._patch(command, "callback", self._wrap(f"cli.{cmd_name}", command.callback))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_json(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "ops": self.op_kinds,
            "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters recorded at the layer boundaries -------------------------------
def _solver_counts(prefix):
    def hook(tracer, res, args, kwargs):
        tracer.count(f"{prefix}.iters", res.iterations)
        tracer.count(f"{prefix}.nonconverged", 0 if res.converged else 1)

    return hook


def _dlsuma_counts(tracer, res, args, kwargs):
    ran = not np.array_equal(res.stages[2].association, res.stages[0].association)
    tracer.count("twostage.stage4_run", ran)
    if ran:
        tracer.count("twostage.stage4_win", res.selected_stage == 3)
    tracer.count("twostage.bound_gap", res.upper_bound / res.result.min_sinr)


def _auction_counts(tracer, res, args, kwargs):
    tracer.count("matching.rounds", res.rounds)
    tracer.count("matching.bids", res.bids)


def _matched_counts(tracer, res, args, kwargs):
    tracer.count("matching.optimal", res.status == "optimal")


def _brute_counts(tracer, res, args, kwargs):
    net = args[0] if args else kwargs["net"]
    tracer.count("oracle.candidates", candidate_count(net))


def _sat_counts(tracer, res, args, kwargs):
    tracer.count("oracle.agrees", res.agrees)


def _export_counts(tracer, res, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("harness.export_bytes", os.path.getsize(path))


_HOOKS = {
    "sumpower.ulsum": _solver_counts("sumpower.ulsum"),
    "power.solve_power": _solver_counts("power.solve"),
    "twostage.dlsuma": _dlsuma_counts,
    "matching.auction": _auction_counts,
    "matching.aufp": _matched_counts,
    "matching.solve_p1prime": _matched_counts,
    "oracle.brute_force_optimum": _brute_counts,
    "oracle.verify_sat_equivalence": _sat_counts,
    "harness.export_csv": _export_counts,
}


def candidate_count(net) -> int:
    """Associations a brute-force search enumerates: linked BSs per user, multiplied."""
    return int(np.prod((net.gain > 0).sum(axis=0).astype(object)))


# -- per-layer metrics -------------------------------------------------------
def layer_metrics(tracer: Tracer, wall_s: float, extra_counts: dict[str, float]) -> dict[str, float]:
    """Fold spans and counters into the per-layer metrics.

    Self time is a span's duration minus the time its direct child spans
    cover; a layer's busy share is its self time over ``wall_s``.
    """
    n = len(tracer.spans)
    dur = np.array([s[2] - s[1] for s in tracer.spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, span in enumerate(tracer.spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    selfs = dur - child

    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    dur_ms: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_self_by_op: dict[tuple[str, str], float] = defaultdict(float)
    calls_by_op: dict[tuple[str, str], int] = defaultdict(int)
    for i, (name, _, _, _, op) in enumerate(tracer.spans):
        layer = name.split(".", 1)[0]
        kind = tracer.op_kinds[op] if op >= 0 else ""
        calls[name] += 1
        self_ms[name] += selfs[i] * 1e3
        dur_ms[name] += dur[i] * 1e3
        layer_self[layer] += selfs[i]
        layer_self_by_op[(layer, kind)] += selfs[i] * 1e3
        calls_by_op[(name, kind)] += 1

    c = tracer.counters

    def mean(key):
        return float(np.mean(c[key])) if c.get(key) else 0.0

    def top(key):
        return float(np.max(c[key])) if c.get(key) else 0.0

    def total(key):
        return float(np.sum(c[key])) if c.get(key) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def share(layer):
        return layer_self[layer] / wall_s if wall_s > 0 else 0.0

    stage4_runs = total("twostage.stage4_run")
    matched = len(c.get("matching.optimal", ()))
    return {
        "scenario.generate_calls": calls["scenario.generate_hetnet"],
        "scenario.generate_self_ms": self_ms["scenario.generate_hetnet"],
        "scenario.place_users_ms": dur_ms["scenario.place_users"],
        "scenario.busy_share": share("scenario"),
        "sumpower.ulsum_calls": calls["sumpower.ulsum"],
        "sumpower.ulsum_self_ms": self_ms["sumpower.ulsum"],
        "sumpower.ulsum_iters_mean": mean("sumpower.ulsum.iters"),
        "sumpower.ulsum_iters_max": top("sumpower.ulsum.iters"),
        "sumpower.ulsum_nonconverged": total("sumpower.ulsum.nonconverged"),
        "sumpower.busy_share": share("sumpower"),
        "power.solve_calls": calls["power.solve_power"],
        "power.solve_self_ms": self_ms["power.solve_power"],
        "power.solve_iters_mean": mean("power.solve.iters"),
        "power.solve_iters_max": top("power.solve.iters"),
        "power.solve_nonconverged": total("power.solve.nonconverged"),
        "power.busy_share": share("power"),
        "model.check_calls": calls["model.check_power"] + calls["model.check_association"],
        "model.check_ms": dur_ms["model.check_power"] + dur_ms["model.check_association"],
        "model.json_ms": dur_ms["model.network_to_json"] + dur_ms["model.network_from_json"],
        "model.busy_share": share("model"),
        "twostage.dlsuma_calls": calls["twostage.dlsuma"],
        "twostage.dlsuma_self_ms": self_ms["twostage.dlsuma"],
        "twostage.stage4_run_ratio": ratio(stage4_runs, calls["twostage.dlsuma"]),
        "twostage.stage4_win_ratio": ratio(total("twostage.stage4_win"), stage4_runs),
        "twostage.bound_gap_mean": mean("twostage.bound_gap"),
        "matching.auction_calls": calls["matching.auction"],
        "matching.auction_self_ms": self_ms["matching.auction"],
        "matching.auction_rounds_mean": mean("matching.rounds"),
        "matching.auction_bids_mean": mean("matching.bids"),
        "matching.optimal_ratio": ratio(total("matching.optimal"), matched),
        "oracle.brute_calls": calls_by_op[("oracle.brute_force_optimum", "brute")],
        "oracle.brute_self_ms": layer_self_by_op[("oracle", "brute")],
        "oracle.candidates": total("oracle.candidates"),
        "oracle.sat_calls": calls["oracle.verify_sat_equivalence"],
        "oracle.sat_self_ms": layer_self_by_op[("oracle", "sat")],
        "oracle.agree_ratio": ratio(total("oracle.agrees"), calls["oracle.verify_sat_equivalence"]),
        "harness.run_algorithm_self_ms": self_ms["harness.run_algorithm"],
        "harness.monte_carlo_self_ms": self_ms["harness.monte_carlo"],
        "harness.export_ms": dur_ms["harness.export_csv"],
        "harness.export_bytes": total("harness.export_bytes"),
        "cli.gen_self_ms": self_ms["cli.gen"],
        "cli.solve_self_ms": self_ms["cli.solve"],
        "cli.out_bytes": float(extra_counts.get("cli.out_bytes", 0.0)),
        "trace.spans": n,
    }
