"""One-to-one association via assignment on log channel gains.

When users and BSs are equally many and every user must clear SINR 1, at
most one association can be feasible, and it is the maximum-total-log-gain
perfect matching.  That turns the joint problem into: solve an assignment
problem on log gains (Hungarian, or a distributed auction), then solve the
per-BS max-min power problem at the matched association.  A final
min-SINR >= 1 certifies global optimality; below 1 the one-to-one problem
with the SINR floor is infeasible and the matched solution is returned as a
plain heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Network, SolveResult, ValidationError
from .power import solve_power_exact

__all__ = [
    "FORBIDDEN",
    "InfeasibleMatchingError",
    "AssignmentProblem",
    "log_gain_matrix",
    "hungarian",
    "AuctionState",
    "auction",
    "default_eps",
    "OneToOneResult",
    "solve_p1prime",
    "aufp",
]

# Sentinel for "no link" entries in dense assignment matrices.  Any matching
# that selects a sentinel edge is reported as infeasible.
FORBIDDEN = -1e18
_FINITE_CUTOFF = FORBIDDEN / 2


class InfeasibleMatchingError(RuntimeError):
    """No perfect matching avoids forbidden entries."""


@dataclass(frozen=True)
class AssignmentProblem:
    """Square maximum-total-gain assignment data.

    ``gain[i, k]`` is the benefit of giving object (BS) i to person (user)
    k; entries equal to :data:`FORBIDDEN` mark disallowed pairs.  Every row
    and every column must keep at least one allowed entry.
    """

    gain: np.ndarray

    def __post_init__(self):
        g = np.array(self.gain, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError(f"assignment gain must be square, got {g.shape}")
        allowed = g > _FINITE_CUTOFF
        if not np.all(allowed.any(axis=0)):
            raise ValidationError("some user has no allowed BS")
        if not np.all(allowed.any(axis=1)):
            raise ValidationError("some BS has no allowed user")
        g.setflags(write=False)
        object.__setattr__(self, "gain", g)

    @property
    def k(self) -> int:
        return self.gain.shape[0]


def log_gain_matrix(net: Network) -> AssignmentProblem:
    """Log channel gains as assignment benefits; zero links become forbidden."""
    if net.n_bs != net.n_users:
        raise ValidationError(
            f"one-to-one matching needs as many BSs as users, got {net.n_bs} vs {net.n_users}"
        )
    with np.errstate(divide="ignore"):
        g = np.where(net.gain > 0, np.log(np.where(net.gain > 0, net.gain, 1.0)), FORBIDDEN)
    return AssignmentProblem(gain=g)


def hungarian(prob: AssignmentProblem) -> tuple[np.ndarray, float]:
    """Maximum-total-gain perfect matching.

    Returns ``(assignment, total_gain)`` with ``assignment[k]`` the BS of
    user k.  Deterministic for deterministic input.  Backed by SciPy's
    rectangular assignment solver; a matching forced through a forbidden
    entry raises :class:`InfeasibleMatchingError`.
    """
    rows, cols = linear_sum_assignment(prob.gain, maximize=True)
    assignment = np.empty(prob.k, dtype=int)
    assignment[cols] = rows
    chosen = prob.gain[assignment, np.arange(prob.k)]
    if np.any(chosen <= _FINITE_CUTOFF):
        raise InfeasibleMatchingError("no perfect matching avoids forbidden pairs")
    return assignment, float(chosen.sum())


@dataclass(frozen=True)
class AuctionState:
    """Final auction state plus round telemetry.

    Prices only ever increase (each update adds at least eps); the
    assignment map is injective throughout.  ``total_gain`` is within
    k * eps of the optimum on termination.
    """

    assignment: np.ndarray
    total_gain: float
    prices: np.ndarray
    eps: float
    rounds: int
    bids: int
    min_increment: float


def _eps_floor(finite: np.ndarray) -> float:
    """The float spacing of the values an auction over these allowed gains
    compares: with a smaller eps, ``gain - price`` can round back to ``gain``
    and a tie never break."""
    return float(np.spacing(2 * np.abs(finite).max() + (finite.max() - finite.min())))


def default_eps(prob: AssignmentProblem) -> float:
    """1e-6 times the spread of allowed gains (1e-6 if the spread is zero),
    never below the auction's eps floor."""
    finite = prob.gain[prob.gain > _FINITE_CUTOFF]
    spread = float(finite.max() - finite.min())
    return max(1e-6 * spread if spread > 0 else 1e-6, _eps_floor(finite))


def auction(prob: AssignmentProblem, eps: float) -> AuctionState:
    """Jacobi auction for the assignment problem.

    All unassigned users bid simultaneously each round; every BS receiving
    bids keeps the highest bidder and raises its price by the winning margin
    plus eps.  Prices start at zero, so the number of rounds is bounded by
    the largest absolute allowed gain over eps, and the final total gain is
    within k * eps of the optimum.  Exceeding a round cap just above that
    bound signals that forbidden pairs leave no perfect matching.  An eps
    below the float spacing of the compared values raises ValueError: such
    a price step can vanish in ``gain - price``, and tied bids would never
    break.
    """
    gain = prob.gain
    k = prob.k
    prices = np.zeros(k)
    finite = gain > _FINITE_CUTOFF
    finite_vals = gain[finite]
    floor = _eps_floor(finite_vals)
    if not floor <= eps < np.inf:
        raise ValueError(
            f"eps must be finite and at least the gains' float spacing {floor!r}, got {eps!r}"
        )
    max_rounds = k * (int(np.ceil(float(np.abs(finite_vals).max()) / eps)) + k + 16)
    # Bid increment when a user has no allowed alternative (including k = 1).
    solo_gap = float(finite_vals.max() - finite_vals.min()) + eps
    assignment = np.full(k, -1)
    owner = np.full(k, -1)
    rounds = bids = 0
    min_increment = np.inf
    while np.any(assignment < 0):
        rounds += 1
        if rounds > max_rounds:
            raise InfeasibleMatchingError(
                f"auction exceeded {max_rounds} rounds; "
                "no perfect matching avoids forbidden pairs"
            )
        # Bidding phase: every unassigned user picks its best BS and bids the
        # margin over its second-best allowed alternative.
        offers: dict[int, tuple[int, float]] = {}
        for user in np.flatnonzero(assignment < 0):
            values = gain[:, user] - prices
            best = int(np.argmax(values))
            others = values[finite[:, user]]
            if others.size > 1:
                best_val = values[best]
                runner_up = float(np.partition(others, -2)[-2])
                gamma = float(best_val - runner_up)
            else:
                gamma = solo_gap
            bids += 1
            held = offers.get(best)
            # Highest bidder wins; user-index order breaks exact ties.
            if held is None or gamma > held[1]:
                offers[best] = (int(user), gamma)
        # Assignment phase: each BS keeps its highest bidder and raises its price.
        for bs in sorted(offers):
            user, gamma = offers[bs]
            if owner[bs] >= 0:
                assignment[owner[bs]] = -1
            owner[bs] = user
            assignment[user] = bs
            increment = gamma + eps
            prices[bs] += increment
            min_increment = min(min_increment, increment)
    chosen = gain[assignment, np.arange(k)]
    if np.any(chosen <= _FINITE_CUTOFF):
        raise InfeasibleMatchingError("auction settled on a forbidden pair")
    return AuctionState(
        assignment=assignment,
        total_gain=float(chosen.sum()),
        prices=prices,
        eps=eps,
        rounds=rounds,
        bids=bids,
        min_increment=float(min_increment),
    )


@dataclass(frozen=True)
class OneToOneResult:
    """Outcome of a matched-association solve.

    ``status`` is "optimal" when the matched association clears min-SINR 1
    (then the solution is globally optimal for the one-to-one problem, with
    or without the SINR floor, and for the general problem too);
    "infeasible" means no association can give every user SINR >= 1, and
    ``result`` then carries the matched solution as a heuristic.
    """

    status: str
    result: SolveResult
    total_gain: float
    auction: AuctionState | None = None


def solve_p1prime(net: Network) -> OneToOneResult:
    """Hungarian matching on log gains, then max-min power at the match."""
    prob = log_gain_matrix(net)
    assignment, total_gain = hungarian(prob)
    result = solve_power_exact(net, assignment)
    status = "optimal" if result.min_sinr >= 1.0 else "infeasible"
    return OneToOneResult(status=status, result=result, total_gain=total_gain)


def aufp(net: Network, eps: float | None = None) -> OneToOneResult:
    """Auction matching on log gains, then max-min power at the match.

    The distributed counterpart of :func:`solve_p1prime`: for small enough
    eps the auction reaches the same matching whenever the assignment
    optimum is unique, and a final min-SINR >= 1 certifies the globally
    optimal value.  Raises :class:`InfeasibleMatchingError` at once when the
    links admit no perfect matching, where the auction would otherwise bid
    until its round cap.
    """
    prob = log_gain_matrix(net)
    # a maximum-cardinality matching of the link pattern is perfect iff one exists
    linked = net.gain > 0
    rows, cols = linear_sum_assignment(linked, maximize=True)
    if not np.all(linked[rows, cols]):
        raise InfeasibleMatchingError("no perfect matching avoids zero-gain links")
    state = auction(prob, default_eps(prob) if eps is None else eps)
    result = solve_power_exact(net, state.assignment)
    status = "optimal" if result.min_sinr >= 1.0 else "infeasible"
    return OneToOneResult(
        status=status, result=result, total_gain=state.total_gain, auction=state
    )
