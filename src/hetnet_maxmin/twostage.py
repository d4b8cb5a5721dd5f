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

from dataclasses import dataclass, replace

import numpy as np

from .model import Network, SolveResult, _downlink_sinr
from .power import _solve_power_exact
from .sumpower import UlsumResult, ulsum_exact

__all__ = [
    "StageInfo",
    "TwoStageResult",
    "power_balance_transform",
    "ulsuma",
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

    ``stage1`` is the relaxation the association came from, and its value
    is ``upper_bound``.  ``result.min_sinr <= upper_bound`` always
    (relaxation dominance); the bound is meaningful when uplink and
    downlink noise agree, which is the regime the relaxation's duality
    argument needs.  ``selected_stage`` indexes the stage whose power
    allocation was returned.
    """

    result: SolveResult
    stage1: UlsumResult
    stages: tuple[StageInfo, ...]
    selected_stage: int = 1

    @property
    def upper_bound(self) -> float:
        return self.stage1.gamma_sum


def power_balance_transform(net: Network) -> Network:
    """Rescale so every BS has the same budget, preserving the optimum.

    Gains become gain * budget / max_budget and every budget becomes
    max_budget.  Any solution maps between the two problems with identical
    SINRs, so the per-BS-constrained optimal value is unchanged.  A gain
    that rounds to 0 can leave a user without a link, which raises
    :class:`~hetnet_maxmin.model.ValidationError`.
    """
    p_max = float(np.max(net.budget))
    return replace(
        net, gain=net.gain * (net.budget / p_max)[:, None], budget=np.full(net.n_bs, p_max)
    )


def ulsuma(net: Network) -> UlsumResult:
    """The sum-power relaxation solved on the power-balanced network.

    The association, powers and value belong to the balanced network, the
    result's ``network``.  Its ``gamma_sum`` bounds the original per-BS
    optimum: balancing keeps that optimum, and the pooled budget relaxes the
    per-BS ones.  The balancing typically tightens the bound when budgets
    are very uneven.
    """
    return ulsum_exact(power_balance_transform(net))


def _relaxation_stage(name: str, res: UlsumResult, pool: float) -> StageInfo:
    return StageInfo(name, res.iterations, res.assoc, pool, res.gamma_sum)


def _power_stage(name: str, res: SolveResult, iterations: int | None = None) -> StageInfo:
    its = res.iterations if iterations is None else iterations
    return StageInfo(name, its, res.association, float(res.power.sum()), res.min_sinr)


def dlsum(net: Network, *, stage1: UlsumResult | None = None) -> TwoStageResult:
    """Two-stage solver: sum-relaxation association, then per-BS power.

    ``stage1``, when given, is ``ulsum_exact(net)`` already solved.
    """
    if stage1 is None:
        stage1 = ulsum_exact(net)
    stage2 = _solve_power_exact(net, stage1.assoc)
    stages = (
        _relaxation_stage("sum-relaxation association", stage1, float(np.sum(net.budget))),
        _power_stage("per-BS power", stage2),
    )
    return TwoStageResult(result=stage2, stage1=stage1, stages=stages)


def _to_original_domain(net: Network, res: SolveResult) -> SolveResult:
    """Map a solution of the balanced problem back to the original network."""
    budget, scale = net.budget[res.association], float(np.max(net.budget))
    with np.errstate(over="ignore"):
        p = res.power * budget / scale
    finite = np.isfinite(p)
    if not finite.all():  # the product overflowed; dividing first stays in range
        p = np.where(finite, p, res.power * (budget / scale))
    sinr = _downlink_sinr(net, res.association, p)
    return replace(res, power=p, sinr=sinr, min_sinr=float(np.min(sinr)))


def dlsuma(net: Network, *, stage1: UlsumResult | None = None) -> TwoStageResult:
    """Two-stage solver with power balancing and effective sum power.

    Pipeline on the balanced network: (1) the :func:`ulsuma` relaxation,
    pooling the balanced budgets, (2) per-BS power at its association,
    (3) re-run the relaxation with the power actually spent in (2) as the
    pool, (4) per-BS power at the new association.  Returns the better of
    (2) and (4) mapped back to the original network; when (3) reproduces
    the association of (1), step (4) is skipped and (2) is reused
    bit-for-bit.  The reported upper bound is the stage-(1) value, the
    :func:`ulsuma` bound.  ``stage1``, when given, is ``ulsuma(net)``
    already solved, whose ``network`` is the balanced one, so a caller that
    passes it balances once.
    """
    if stage1 is None:
        stage1 = ulsuma(net)
    bnet = stage1.network
    stage2 = _solve_power_exact(bnet, stage1.assoc)
    spent = float(stage2.power.sum())
    stage3 = ulsum_exact(bnet, spent)
    stages = [
        _relaxation_stage("balanced sum-relaxation association", stage1,
                          float(np.sum(bnet.budget))),
        _power_stage("per-BS power", stage2),
        _relaxation_stage("effective sum-power association", stage3, spent),
    ]

    best, selected = stage2, 1
    if np.array_equal(stage3.assoc, stage1.assoc):
        stages.append(_power_stage("per-BS power (reused: association unchanged)", stage2, 0))
    else:
        stage4 = _solve_power_exact(bnet, stage3.assoc)
        stages.append(_power_stage("per-BS power at refreshed association", stage4))
        if stage4.min_sinr >= stage2.min_sinr:
            best, selected = stage4, 3

    return TwoStageResult(
        result=_to_original_domain(net, best),
        stage1=stage1,
        stages=tuple(stages),
        selected_stage=selected,
    )
