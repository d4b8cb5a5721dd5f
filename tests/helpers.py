"""Independent oracles and generators shared by the test modules.

Everything here re-derives results from first principles (plain loops,
bisection, exhaustive enumeration) so that library fast paths are checked
against arithmetic that shares no code with them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

from hetnet_maxmin.model import Network, network_from_json

DATA = Path(__file__).parent / "data"


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
