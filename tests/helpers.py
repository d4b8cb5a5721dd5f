"""Independent oracles and generators shared by the test modules.

Everything here re-derives results from first principles (plain loops,
bisection, exhaustive enumeration) so that library fast paths are checked
against arithmetic that shares no code with them.  Two exceptions:
:func:`target_power` runs the brute force's target-power screen on one
association, and :func:`exhaustive_exact_optimum` checks the brute force's
enumeration and screen against the Perron-root solve of every association.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hetnet_maxmin
from hetnet_maxmin import power
from hetnet_maxmin.model import Network, network_from_json

DATA = Path(__file__).parent / "data"


def fresh_python(*args, timeout: float, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter, with this checkout's
    package first on the path and without the test run's warning filters."""
    src = str(Path(hetnet_maxmin.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=preexec_fn,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def pair_block_network() -> Network:
    """Two BSs, two users; the first user hears 2 from both BSs, the second 1."""
    return Network(
        gain=[[2.0, 1.0], [2.0, 1.0]],
        budget=[1.0, 1.0],
        noise_dl=[1.0, 1.0],
        noise_ul=[1.0, 1.0],
    )


def frozen_network(name: str) -> Network:
    """A scenario draw kept in ``tests/data/<name>.json`` so that a test keeps
    its instance when the generator's random stream changes."""
    return network_from_json(json.loads((DATA / f"{name}.json").read_text()))


def random_network(
    rng: np.random.Generator,
    n_bs: int,
    n_users: int,
    spread: float = 0.8,
    budget_range: tuple[float, float] = (0.5, 2.0),
    equal_budgets: bool = False,
) -> Network:
    """Log-normal gains, uniform budgets, unit noise on both sides."""
    gain = 10.0 ** rng.normal(0.0, spread, size=(n_bs, n_users))
    if equal_budgets:
        budget = np.full(n_bs, rng.uniform(*budget_range))
    else:
        budget = rng.uniform(*budget_range, size=n_bs)
    return Network(
        gain=gain,
        budget=budget,
        noise_dl=np.ones(n_users),
        noise_ul=np.ones(n_bs),
    )


@st.composite
def networks(draw, max_bs=4, max_users=6, square=False):
    """Log-uniform gains with random zero links, budgets and noise.  A square
    network has as many users as BSs and always a perfect matching."""
    n = draw(st.integers(1, max_bs))
    k = n if square else draw(st.integers(1, max_users))
    exponents = draw(arrays(float, (n, k), elements=st.floats(-2.0, 2.0)))
    linked = draw(arrays(bool, (n, k)))
    if square:
        serving = draw(st.permutations(range(n)))
    else:
        serving = draw(arrays(int, k, elements=st.integers(0, n - 1)))
    linked[serving, np.arange(k)] = True
    return Network(
        gain=np.where(linked, 10.0**exponents, 0.0),
        budget=10.0 ** draw(arrays(float, n, elements=st.floats(-1.0, 2.0))),
        noise_dl=10.0 ** draw(arrays(float, k, elements=st.floats(-1.0, 1.0))),
        noise_ul=10.0 ** draw(arrays(float, n, elements=st.floats(-1.0, 1.0))),
    )


@st.composite
def wide_range_networks(draw):
    """1-3 BSs and 1-4 users; gains, budgets and one common noise
    log-uniform in 10^(+-15), and about 20 % zero links besides each user's
    serving one."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    exponent = st.floats(-15.0, 15.0)
    cut = draw(arrays(float, (n, k), elements=st.floats(0.0, 1.0))) < 0.2
    cut[draw(arrays(int, k, elements=st.integers(0, n - 1))), np.arange(k)] = False
    noise = 10.0 ** draw(exponent)
    return Network(
        gain=np.where(cut, 0.0, 10.0 ** draw(arrays(float, (n, k), elements=exponent))),
        budget=10.0 ** draw(arrays(float, n, elements=exponent)),
        noise_dl=np.full(k, noise),
        noise_ul=np.full(n, noise),
    )


def loop_downlink_sinr(net: Network, assoc, power) -> np.ndarray:
    """Definition-level downlink SINR with explicit python loops."""
    a = list(assoc)
    k_total = net.n_users
    out = np.zeros(k_total)
    for k in range(k_total):
        interference = 0.0
        for i in range(k_total):
            if i != k:
                interference += power[i] * net.gain[a[i], k]
        out[k] = power[k] * net.gain[a[k], k] / (net.noise_dl[k] + interference)
    return out


def loop_unit_sinr_power(net: Network, assoc, power) -> np.ndarray:
    """Definition-level power for downlink SINR 1 at fixed interference,
    (noise + interference) / direct gain, with explicit python loops."""
    a = list(assoc)
    k_total = net.n_users
    out = np.zeros(k_total)
    for k in range(k_total):
        interference = 0.0
        for i in range(k_total):
            if i != k:
                interference += power[i] * net.gain[a[i], k]
        out[k] = (net.noise_dl[k] + interference) / net.gain[a[k], k]
    return out


def loop_uplink_sinr(net: Network, assoc, power) -> np.ndarray:
    """Definition-level uplink SINR with explicit python loops."""
    a = list(assoc)
    k_total = net.n_users
    out = np.zeros(k_total)
    for k in range(k_total):
        interference = 0.0
        for j in range(k_total):
            if j != k:
                interference += net.gain[a[k], j] * power[j]
        out[k] = net.gain[a[k], k] * power[k] / (net.noise_ul[a[k]] + interference)
    return out


def target_power(net: Network, assoc, gamma: float) -> tuple[np.ndarray, bool]:
    """The least power meeting downlink SINR target ``gamma`` at one valid
    association, and whether it fits the budgets: ``power._target_power``
    on a one-row batch."""
    batch = np.array([assoc])
    p, feasible = power._target_power(net, batch, gamma, power._coupling(net, batch))
    return p[0], bool(feasible[0])


def exhaustive_exact_optimum(net: Network) -> float:
    """The largest ``solve_power_exact`` min-SINR over every association that
    avoids zero links: the brute force's answer without its screen."""
    links = [np.flatnonzero(net.gain[:, k] > 0).tolist() for k in range(net.n_users)]
    return max(power.solve_power_exact(net, list(c)).min_sinr for c in itertools.product(*links))


def _dl_target_feasible(net: Network, assoc, gamma: float, iters: int = 4000) -> bool:
    """Downlink per-BS feasibility of SINR target gamma, by monotone iteration."""
    a = list(assoc)
    k_total = net.n_users
    p = [0.0] * k_total
    for _ in range(iters):
        new = []
        for k in range(k_total):
            interference = sum(p[i] * net.gain[a[i], k] for i in range(k_total) if i != k)
            new.append(gamma * (net.noise_dl[k] + interference) / net.gain[a[k], k])
        loads = {}
        for k in range(k_total):
            loads[a[k]] = loads.get(a[k], 0.0) + new[k]
        if any(loads[n] > net.budget[n] * (1 + 1e-11) for n in loads):
            return False
        if max(abs(n - o) for n, o in zip(new, p)) <= 1e-13 * max(max(new), 1e-300):
            return True
        p = new
    return True


def _dl_sum_target_feasible(net: Network, assoc, gamma: float, sum_budget: float,
                            iters: int = 4000) -> bool:
    """Downlink sum-power feasibility of SINR target gamma."""
    a = list(assoc)
    k_total = net.n_users
    p = [0.0] * k_total
    for _ in range(iters):
        new = []
        for k in range(k_total):
            interference = sum(p[i] * net.gain[a[i], k] for i in range(k_total) if i != k)
            new.append(gamma * (net.noise_dl[k] + interference) / net.gain[a[k], k])
        if sum(new) > sum_budget * (1 + 1e-11):
            return False
        if max(abs(n - o) for n, o in zip(new, p)) <= 1e-13 * max(max(new), 1e-300):
            return True
        p = new
    return True


def _ul_sum_target_feasible(net: Network, assoc, gamma: float, sum_budget: float,
                            iters: int = 4000) -> bool:
    """Uplink sum-power feasibility of SINR target gamma at a fixed association."""
    a = list(assoc)
    k_total = net.n_users
    p = [0.0] * k_total
    for _ in range(iters):
        new = []
        for k in range(k_total):
            interference = sum(net.gain[a[k], j] * p[j] for j in range(k_total) if j != k)
            new.append(gamma * (net.noise_ul[a[k]] + interference) / net.gain[a[k], k])
        if sum(new) > sum_budget * (1 + 1e-11):
            return False
        if max(abs(n - o) for n, o in zip(new, p)) <= 1e-13 * max(max(new), 1e-300):
            return True
        p = new
    return True


def bisect_maxmin(feasible, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-9) -> float:
    """Bisection on a monotone feasibility predicate; expands hi as needed."""
    while feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("target appears unbounded")
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def oracle_dl_maxmin(net: Network, assoc, tol: float = 1e-9) -> float:
    """Max-min SINR at a fixed association, per-BS budgets (bisection oracle)."""
    return bisect_maxmin(lambda g: _dl_target_feasible(net, assoc, g), tol=tol)


def oracle_dl_sum_maxmin(net: Network, assoc, sum_budget: float, tol: float = 1e-9) -> float:
    """Max-min SINR at a fixed association under a sum power budget."""
    return bisect_maxmin(
        lambda g: _dl_sum_target_feasible(net, assoc, g, sum_budget), tol=tol
    )


def oracle_ulsum_value(net: Network, sum_budget: float, tol: float = 1e-9) -> float:
    """Optimal value of the uplink sum-power joint problem by enumeration."""
    best = 0.0
    choices = [np.flatnonzero(net.gain[:, k] > 0) for k in range(net.n_users)]
    for assoc in itertools.product(*[c.tolist() for c in choices]):
        best = max(
            best,
            bisect_maxmin(
                lambda g: _ul_sum_target_feasible(net, assoc, g, sum_budget), tol=tol
            ),
        )
    return best


def oracle_joint_dl_maxmin(net: Network, tol: float = 1e-9) -> float:
    """Optimal value of the per-BS joint problem by enumeration + bisection."""
    best = 0.0
    choices = [np.flatnonzero(net.gain[:, k] > 0) for k in range(net.n_users)]
    for assoc in itertools.product(*[c.tolist() for c in choices]):
        best = max(best, oracle_dl_maxmin(net, assoc, tol=tol))
    return best


def exhaustive_assignment(gain: np.ndarray):
    """Best perfect matching by trying every permutation; a -inf gain is a
    forbidden pair."""
    k = gain.shape[0]
    best_total = -math.inf
    best = None
    for perm in itertools.permutations(range(k)):
        if any(gain[perm[j], j] == -math.inf for j in range(k)):
            continue
        total = sum(gain[perm[j], j] for j in range(k))
        if total > best_total:
            best_total = total
            best = perm
    return (None, -math.inf) if best is None else (np.array(best), best_total)


def load_records_csv(path) -> list[dict]:
    """Read an exported record CSV back into typed dicts."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = dict(row)
            for key in ("snr_db", "min_sinr_linear", "min_sinr_db", "runtime_ms", "upper_bound"):
                parsed[key] = float(row[key]) if row[key] else None
            parsed["seed"] = int(row["seed"])
            parsed["converged"] = {"true": True, "false": False, "": None}[row["converged"]]
            rows.append(parsed)
    return rows


def naive_cell_points(
    rng: np.random.Generator,
    bs_positions: np.ndarray,
    macro_centers: np.ndarray,
    spacing: float,
    n_draws: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Points uniform over the network area, with the index of their nearest
    BS; the points of one label are uniform in that BS's cell.

    The area is the union of the macro hexagons (apothem spacing/2, corners
    up and down); a point is drawn in a uniformly chosen hexagon's bounding
    box and redrawn until it falls inside.
    """
    points = np.empty((n_draws, 2))
    for i in range(n_draws):
        center = macro_centers[rng.integers(len(macro_centers))]
        while True:
            x = rng.uniform(-spacing / 2.0, spacing / 2.0)
            y = rng.uniform(-spacing / math.sqrt(3.0), spacing / math.sqrt(3.0))
            if abs(x) * 0.5 + abs(y) * math.sqrt(3.0) / 2.0 <= spacing / 2.0:
                break
        points[i] = center + (x, y)
    labels = [min(range(len(bs_positions)), key=lambda n: math.dist(bs_positions[n], p))
              for p in points]
    return points, np.array(labels)


def truth_table_sat(n_vars: int, clauses) -> bool:
    """Exhaustive satisfiability check over all 2^n_vars assignments."""
    for bits in itertools.product([False, True], repeat=n_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


def random_formula(rng: np.random.Generator, n_vars: int, n_clauses: int):
    """Random 3-literal clauses; repeated literals allowed."""
    clauses = []
    for _ in range(n_clauses):
        lits = []
        for _ in range(3):
            v = int(rng.integers(1, n_vars + 1))
            lits.append(v if rng.random() < 0.5 else -v)
        clauses.append(tuple(lits))
    return tuple(clauses)
