"""Two-stage algorithms: pick an association from the sum-power relaxation,
then solve the per-BS-constrained power problem at that association.

The basic variant solves the uplink sum-power relaxation for the
association and the per-BS power problem at it, both exactly
(:func:`~hetnet_maxmin.sumpower.ulsum_exact`,
:func:`~hetnet_maxmin.power.solve_power_exact`).  The advanced variant adds
two HetNet-specific refinements: "power balancing" (rescale gains and
budgets so every BS has the same cap, which does not change the constrained
optimum) and "effective sum power" (re-run the relaxation with the power
actually consumed by the feasible solution, a much tighter pool than the
sum of budgets when most BSs transmit far below their cap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, SolveResult, downlink_sinr
from .power import solve_power_exact
from .sumpower import UlsumResult, ulsum_exact

__all__ = [
    "StageInfo",
    "TwoStageResult",
    "BalancedNetwork",
    "power_balance_transform",
    "ulsuma",
    "ulsuma_upper_bound",
    "dlsum",
    "dlsuma",
]


@dataclass(frozen=True)
class StageInfo:
    """Telemetry for one stage of a two-stage run."""

    name: str
    iterations: int
    association: np.ndarray | None
    sum_power: float | None
    gamma: float | None


@dataclass(frozen=True)
class TwoStageResult:
    """A feasible solution for the per-BS problem plus its relaxation bound.

    ``result.min_sinr <= upper_bound`` always (relaxation dominance); the
    bound is meaningful when uplink and downlink noise agree, which is the
    regime the relaxation's duality argument needs.  ``selected_stage``
    indexes the stage whose power allocation was returned.
    """

    result: SolveResult
    upper_bound: float
    stages: tuple[StageInfo, ...]
    selected_stage: int = 1


@dataclass(frozen=True)
class BalancedNetwork:
    """A gain/budget rescaling with the per-BS weights that produced it."""

    network: Network
    alpha: np.ndarray


def power_balance_transform(net: Network) -> BalancedNetwork:
    """Rescale so every BS has the same budget, preserving the optimum.

    Uses weights alpha_n = max_budget / budget_n: gains become
    gain * budget / max_budget and every budget becomes max_budget.  Any
    solution maps between the two problems with identical SINRs, so the
    per-BS-constrained optimal value is unchanged.
    """
    p_max = float(np.max(net.budget))
    alpha = p_max / net.budget
    scaled = Network(
        gain=net.gain * (net.budget / p_max)[:, None],
        budget=np.full(net.n_bs, p_max),
        noise_dl=net.noise_dl,
        noise_ul=net.noise_ul,
    )
    return BalancedNetwork(network=scaled, alpha=alpha)


def ulsuma(net: Network) -> UlsumResult:
    """The sum-power relaxation solved on the power-balanced network.

    The association, powers and value belong to the balanced network; its
    ``gamma_sum`` bounds the original per-BS optimum (see
    :func:`ulsuma_upper_bound`).
    """
    balanced = power_balance_transform(net).network
    return ulsum_exact(balanced, float(np.sum(balanced.budget)))


def ulsuma_upper_bound(net: Network) -> float:
    """Sum-power upper bound computed on the power-balanced network.

    Valid for the original per-BS problem for any positive weights; the
    balancing weights typically tighten it when budgets are very uneven.
    """
    return ulsuma(net).gamma_sum


def dlsum(net: Network) -> TwoStageResult:
    """Two-stage solver: sum-relaxation association, then per-BS power."""
    stage1 = ulsum_exact(net, float(np.sum(net.budget)))
    stage2 = solve_power_exact(net, stage1.assoc)
    stages = (
        StageInfo(
            name="sum-relaxation association",
            iterations=stage1.iterations,
            association=stage1.assoc,
            sum_power=float(np.sum(net.budget)),
            gamma=stage1.gamma_sum,
        ),
        StageInfo(
            name="per-BS power",
            iterations=stage2.iterations,
            association=stage2.association,
            sum_power=float(stage2.power.sum()),
            gamma=stage2.min_sinr,
        ),
    )
    return TwoStageResult(result=stage2, upper_bound=stage1.gamma_sum, stages=stages)


def _to_original_domain(net: Network, scaled_budget_max: float, res: SolveResult) -> SolveResult:
    """Map a solution of the balanced problem back to the original network."""
    p = res.power * net.budget[res.association] / scaled_budget_max
    sinr = downlink_sinr(net, res.association, p)
    return SolveResult(
        association=res.association,
        power=p,
        sinr=sinr,
        min_sinr=float(np.min(sinr)),
        iterations=res.iterations,
        converged=res.converged,
        residual=res.residual,
        residuals=res.residuals,
    )


def dlsuma(net: Network) -> TwoStageResult:
    """Two-stage solver with power balancing and effective sum power.

    Pipeline on the balanced network: (1) sum-relaxation association at pool
    N * max_budget, (2) per-BS power there, (3) re-run the relaxation with
    the power actually spent in (2) as the pool, (4) per-BS power at the new
    association.  Returns the better of (2) and (4) mapped back to the
    original network; when (3) reproduces the association of (1), step (4)
    is skipped and (2) is reused bit-for-bit.  The reported upper bound is
    the stage-(1) relaxation value, which dominates the true optimum for
    any balancing weights.
    """
    balanced = power_balance_transform(net)
    bnet = balanced.network
    p_max = float(np.max(net.budget))
    pool1 = float(net.n_bs * p_max)

    stage1 = ulsum_exact(bnet, pool1)
    stage2 = solve_power_exact(bnet, stage1.assoc)
    spent = float(stage2.power.sum())
    stage3 = ulsum_exact(bnet, spent)

    stages = [
        StageInfo("balanced sum-relaxation association", stage1.iterations,
                  stage1.assoc, pool1, stage1.gamma_sum),
        StageInfo("per-BS power", stage2.iterations, stage2.association,
                  spent, stage2.min_sinr),
        StageInfo("effective sum-power association", stage3.iterations,
                  stage3.assoc, spent, stage3.gamma_sum),
    ]

    if np.array_equal(stage3.assoc, stage1.assoc):
        best, selected = stage2, 1
        stages.append(StageInfo("per-BS power (reused: association unchanged)",
                                0, stage1.assoc, spent, stage2.min_sinr))
    else:
        stage4 = solve_power_exact(bnet, stage3.assoc)
        stages.append(StageInfo("per-BS power at refreshed association",
                                stage4.iterations, stage4.association,
                                float(stage4.power.sum()), stage4.min_sinr))
        if stage4.min_sinr >= stage2.min_sinr:
            best, selected = stage4, 3
        else:
            best, selected = stage2, 1

    result = _to_original_domain(net, p_max, best)
    return TwoStageResult(
        result=result,
        upper_bound=stage1.gamma_sum,
        stages=tuple(stages),
        selected_stage=selected,
    )
