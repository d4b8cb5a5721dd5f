"""Sum-power relaxation: uplink fixed point, duality, and bounds.

Pooling the per-BS budgets into one sum constraint makes the joint
association + power problem tractable: in the uplink, each user's best BS
at the current powers is simply the one needing the least power for SINR 1,
and the resulting normalized fixed-point iteration converges to the unique
optimum.  With equal uplink/downlink noise, the optimal value and
association transfer to the downlink sum-power problem, giving a cheap
upper bound for the per-BS-constrained problem.

At a fixed association the sum-power value is the inverse Perron root of
the extended coupling matrix B + u 1^T / P.  :func:`ulsum_exact` solves the
joint problem as a policy iteration over such exact solves; the pipelines
use it, and the fixed point :func:`ulsum` stays as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, SolveResult, check_association
from .power import (
    FixedPointOptions,
    _downlink_result,
    _run_fixed_point,
    perron_pair,
    unit_sinr_power,
)

__all__ = [
    "UlsumResult",
    "ulsum",
    "ulsum_exact",
    "dl_sumpower_power",
    "convergence_rate_bound",
]


def _unit_power_map(net: Network):
    """The uplink unit-SINR power map of ``net`` as a function of the powers.

    At user powers p it returns ``(per_bs, best, best_bs)``: ``per_bs[n, k]``
    is the power user k needs for SINR 1 if served by BS n (+inf when there
    is no link), ``best[k]`` the minimum over BSs and ``best_bs[k]`` the
    argmin, ties broken to the lowest BS index.  It checks nothing of p:
    pass powers that :func:`~hetnet_maxmin.model.check_power` accepts.

    The link mask and the safe divisors depend on the network alone, so a
    solver that evaluates the map once per step builds it once.  A linked
    entry is at least noise_ul / gain > 0 (a ``Network`` invariant), so the
    best powers, which the solvers divide by, never sum to 0.
    """
    gain, noise = net.gain, net.noise_ul[:, None]
    linked = gain > 0
    safe_gain = np.where(linked, gain, 1.0)
    users = np.arange(net.n_users)
    dot = gain.dot

    def unit_power(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        interference = dot(p)[:, None] - gain * p
        per_bs = np.where(linked, (noise + interference) / safe_gain, np.inf)
        best_bs = per_bs.argmin(axis=0)
        return per_bs, per_bs[best_bs, users], best_bs

    return unit_power


@dataclass(frozen=True)
class UlsumResult:
    """Solution of the uplink max-min problem under a sum power budget.

    At the optimum the full sum budget is spent, all per-user uplink SINRs
    equal ``gamma_sum``, and ``assoc`` is the final (optimal after finitely
    many iterations) association.  ``network`` is the network it was solved
    on.  ``residuals`` is the fixed point's residual trace; the exact policy
    iteration leaves it None.
    """

    network: Network
    power_ul: np.ndarray
    assoc: np.ndarray
    gamma_sum: float
    iterations: int
    converged: bool
    residual: float
    residuals: np.ndarray | None = None


def ulsum(
    net: Network,
    sum_budget: float | None = None,
    opts: FixedPointOptions | None = None,
) -> UlsumResult:
    """Fixed-point solver for joint association + power, sum-power uplink.

    Each iteration re-picks every user's cheapest BS and renormalizes the
    unit-SINR powers to spend the whole sum budget.  Converges to the unique
    optimal power vector; the reported ``gamma_sum`` is
    sum_budget / sum(best-power map at the final iterate), which needs one
    fewer rounding step than the min of the final SINRs.

    ``sum_budget`` defaults to the sum of the per-BS budgets.  The residual
    is normalized by ``sum_budget``.
    """
    budget = _sum_budget(net, sum_budget)
    unit_power = _unit_power_map(net)

    def step(p):
        best = unit_power(p)[1]
        return best * (budget / float(best.sum()))

    run = _run_fixed_point(step, opts or FixedPointOptions(), np.full(net.n_users, budget), budget)
    _, best, best_bs = unit_power(run.power)
    return UlsumResult(
        network=net,
        power_ul=run.power,
        assoc=best_bs,
        gamma_sum=budget / float(best.sum()),
        iterations=run.iterations,
        converged=run.converged,
        residual=run.residual,
        residuals=run.residuals,
    )


def _sum_budget(net: Network, sum_budget: float | None) -> float:
    budget = float(np.sum(net.budget)) if sum_budget is None else float(sum_budget)
    if not budget > 0:
        raise ValueError("sum_budget must be positive")
    return budget


# Relative saving a user's cheapest BS must offer for the policy step to move it.
_MOVE_RTOL = 1e-12
_POLICY_MAX_STEPS = 100


def ulsum_exact(net: Network, sum_budget: float | None = None) -> UlsumResult:
    """Joint association + power, sum-power uplink, by exact policy iteration.

    At a fixed association a, user k's row of the extended coupling matrix
    M(a) = B(a) + u(a) 1^T / P depends on a_k only, and the optimal value
    is 1 / rho(M(a)).  Each step solves that Perron pair exactly, scales the
    vector to spend the pool, and moves every user whose cheapest BS at that
    power is cheaper than its current one.  The moved users' rows shrink, so
    rho never increases; when nobody moves, M(a) q = min over associations
    of M(a') q = rho q, which makes a a global optimum.  This is the
    fixed point of :func:`ulsum` without the inner iteration.

    ``iterations`` counts policy steps, and ``residual`` is the final
    solve's normalized fixed-point residual max |T(q) - q| / sum_budget, with
    T the step of :func:`ulsum`; ``residuals`` stays None.  A run that hits
    ``_POLICY_MAX_STEPS`` returns ``converged=False``.
    """
    budget = _sum_budget(net, sum_budget)
    k = net.n_users
    users = np.arange(k)
    unit_power = _unit_power_map(net)
    assoc = unit_power(np.full(k, budget / k))[2]
    x = None
    converged = False
    for iterations in range(1, _POLICY_MAX_STEPS + 1):
        solved = assoc
        direct = net.gain[solved, users]
        coupling = net.gain[solved, :] / direct[:, None]
        coupling[users, users] = 0.0
        coupling += (net.noise_ul[solved] / direct)[:, None] / budget
        pair = perron_pair(coupling, x)
        q = pair.vector * (budget / float(np.add.reduce(pair.vector)))
        per_bs, best, best_bs = unit_power(q)
        current = per_bs[solved, users]
        moved = best < current * (1.0 - _MOVE_RTOL)
        if not moved.any():
            converged = pair.converged
            break
        assoc = np.where(moved, best_bs, solved)
        x = pair.vector
    image = best * (budget / float(best.sum()))
    return UlsumResult(
        network=net,
        power_ul=q,
        assoc=solved,
        gamma_sum=budget / float(current.sum()),
        iterations=iterations,
        converged=converged,
        residual=float(np.max(np.abs(image - q))) / budget,
    )


def dl_sumpower_power(
    net: Network,
    assoc,
    sum_budget: float | None = None,
    opts: FixedPointOptions | None = None,
) -> SolveResult:
    """Downlink max-min power under a sum power budget, fixed association.

    Same normalized fixed point as :func:`hetnet_maxmin.power.solve_power`
    but rescaling by the total spent power instead of per-BS loads.  With
    equal uplink and downlink noise its optimal value at the association
    returned by :func:`ulsum` matches ``gamma_sum``.  The returned power
    satisfies sum(power) == sum_budget; the residual is normalized by
    ``sum_budget``.
    """
    budget = _sum_budget(net, sum_budget)
    a = check_association(net, assoc)

    def step(p):
        m = unit_sinr_power(net, a, p)
        return m * (budget / float(m.sum()))

    run = _run_fixed_point(step, opts or FixedPointOptions(), np.full(net.n_users, budget), budget)
    return _downlink_result(net, a, run)


def convergence_rate_bound(net: Network, sum_budget: float | None = None) -> float:
    """Upper bound in (0, 1) on the geometric contraction factor of ulsum.

    Computed from per-user bounds on the unit-SINR power map over the
    sum-budget sphere: the zero-interference floor min_n noise_ul[n]/gain[n,k]
    and the all-interference ceiling with every user at the sum budget.
    Diagnostic only; observed decay is usually much faster.
    """
    budget = _sum_budget(net, sum_budget)
    a_k = _unit_power_map(net)(np.zeros(net.n_users))[1]  # the floor: the map at zero power
    linked = net.gain > 0
    safe_gain = np.where(linked, net.gain, 1.0)
    ceil = np.where(
        linked,
        (net.noise_ul + budget * net.gain.max(axis=1))[:, None] / safe_gain,
        np.inf,
    )
    b_k = ceil.min(axis=0)
    return float(1.0 - np.min(a_k / b_k))
