"""One-to-one association via assignment on log channel gains.

When users and BSs are equally many and every user must clear SINR 1, at
most one association can be feasible, and it is the maximum-total-log-gain
perfect matching.  That turns the joint problem into: solve an assignment
problem on log gains (Hungarian, or a distributed auction), then solve the
per-BS max-min power problem at the matched association.  A final
min-SINR >= 1 certifies global optimality; below 1 the one-to-one problem
with the SINR floor is infeasible and the matched solution is returned as a
plain heuristic.

:class:`AssignmentProblem` is the one place where the matching rules hold:
it is square, its gains are real or :data:`FORBIDDEN`, and its allowed
pairs admit a perfect matching.  The solvers below assume all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, SolveResult, ValidationError
from .power import _solve_power_exact

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

# A disallowed pair: log 0, the log-gain of a missing link.
FORBIDDEN = -np.inf


class InfeasibleMatchingError(ValidationError):
    """No perfect matching avoids forbidden entries."""


@dataclass(frozen=True)
class AssignmentProblem:
    """Square maximum-total-gain assignment data.

    ``gain[i, k]`` is the benefit of giving object (BS) i to person (user)
    k; entries equal to :data:`FORBIDDEN` mark disallowed pairs, and every
    other entry must be a real number.  A gain matrix whose allowed pairs
    admit no perfect matching raises :class:`InfeasibleMatchingError`.
    """

    gain: np.ndarray

    def __post_init__(self):
        g = np.array(self.gain, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError(
                "assignment gain must be square (p1prime and aufp need as many BSs as users), "
                f"got {g.shape}"
            )
        if np.any(np.isnan(g) | np.isposinf(g)):
            raise ValidationError("assignment gains must be real numbers or FORBIDDEN (-inf)")
        # Only a pattern with a forbidden pair needs the check (without one the
        # identity is a perfect matching), so only it loads scipy.optimize.  A
        # maximum-cardinality matching of the allowed pattern is perfect iff
        # one exists.
        allowed = g > FORBIDDEN
        if not allowed.all():
            from scipy.optimize import linear_sum_assignment

            rows, cols = linear_sum_assignment(allowed, maximize=True)
            if not np.all(allowed[rows, cols]):
                raise InfeasibleMatchingError("no perfect matching avoids forbidden pairs")
        g.setflags(write=False)
        object.__setattr__(self, "gain", g)

    @property
    def k(self) -> int:
        return self.gain.shape[0]


def log_gain_matrix(net: Network) -> AssignmentProblem:
    """Log channel gains as assignment benefits; zero links become forbidden."""
    with np.errstate(divide="ignore"):
        return AssignmentProblem(gain=np.log(net.gain))


def hungarian(prob: AssignmentProblem) -> tuple[np.ndarray, float]:
    """Maximum-total-gain perfect matching.

    Returns ``(assignment, total_gain)`` with ``assignment[k]`` the BS of
    user k.  Deterministic for deterministic input.  Backed by SciPy's
    rectangular assignment solver, which never picks a forbidden entry when
    a perfect matching avoids them all.
    """
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(prob.gain, maximize=True)
    assignment = np.empty(prob.k, dtype=int)
    assignment[cols] = rows
    return assignment, float(prob.gain[assignment, np.arange(prob.k)].sum())


@dataclass(frozen=True)
class AuctionState:
    """Final auction state plus round telemetry.

    Prices only ever increase (each update adds at least eps); the
    assignment map is injective throughout.  ``total_gain`` is within
    k * eps of the optimum on termination.  ``rounds`` counts bidding
    rounds and ``bids`` the bids placed over all of them: one per user
    unassigned at the start of a round.  ``eps_scaled`` is True when the
    auction hit its round limit and finished by eps-scaling phases.
    """

    assignment: np.ndarray
    total_gain: float
    prices: np.ndarray
    rounds: int
    bids: int
    eps_scaled: bool


# Factor by which eps falls from one eps-scaling phase of the auction to the next.
_SCALING_FACTOR = 10.0


def _gain_range(prob: AssignmentProblem) -> tuple[float, float]:
    """The spread of the allowed gains and the auction's eps floor: the float
    spacing of the values an auction over them compares.  With a smaller
    eps, ``gain - price`` can round back to ``gain`` and a tie never break."""
    finite = prob.gain[prob.gain > FORBIDDEN]
    spread = float(finite.max() - finite.min())
    return spread, float(np.spacing(2 * np.abs(finite).max() + spread))


def default_eps(prob: AssignmentProblem) -> float:
    """1e-6 times the spread of allowed gains (1e-6 if the spread is zero),
    never below the auction's eps floor."""
    spread, floor = _gain_range(prob)
    return max(1e-6 * spread if spread > 0 else 1e-6, floor)


def auction(prob: AssignmentProblem, eps: float) -> AuctionState:
    """Jacobi auction for the assignment problem.

    All unassigned users bid simultaneously each round, computed as one
    array step: each bids for its best BS at ``gain - price`` the margin
    over its second-best allowed BS (a user with no allowed alternative,
    as at k = 1, bids the whole gain spread).  Every BS receiving bids keeps
    the highest, the lowest user index winning exact ties, and raises its
    price by the winning margin plus eps.  Prices start at zero, and the
    final total gain is within k * eps of the optimum.  The problem admits
    a perfect matching (its constructor checks), so the auction ends.  An
    eps below the float spacing of the compared values raises ValueError:
    such a price step can vanish in ``gain - price``, and tied bids would
    never break.

    Users with near-identical options raise a contested price by only eps
    per round, so a price war can last about spread / eps rounds.  After
    1,000 + 64 k rounds the auction keeps its prices, clears the
    assignment and runs eps-scaling phases (Bertsekas, Annals of OR 14,
    1988): the same auction at eps = spread / 10, spread / 100, ... and
    last at eps itself, each phase starting from the prices the one before
    left.
    """
    gain = prob.gain
    k = prob.k
    spread, floor = _gain_range(prob)
    if not floor <= eps < np.inf:
        raise ValueError(
            f"eps must be finite and at least the gains' float spacing {floor!r}, got {eps!r}"
        )
    # users with no allowed alternative (including k = 1)
    solo = (gain > FORBIDDEN).sum(axis=0) < 2
    prices = np.zeros(k)
    # sweep draws at the default eps took at most 64 rounds at k = 18 and
    # 521 at k = 100; a longer run is a price war
    assignment, rounds, bids = _bid(gain, prices, solo, spread, eps, limit=1_000 + 64 * k)
    eps_scaled = assignment is None
    if eps_scaled:
        phase_eps = spread
        while True:
            phase_eps = max(phase_eps / _SCALING_FACTOR, eps)
            assignment, phase_rounds, phase_bids = _bid(gain, prices, solo, spread, phase_eps)
            rounds, bids = rounds + phase_rounds, bids + phase_bids
            if phase_eps == eps:
                break
    return AuctionState(
        assignment=assignment,
        total_gain=float(gain[assignment, np.arange(k)].sum()),
        prices=prices,
        rounds=rounds,
        bids=bids,
        eps_scaled=eps_scaled,
    )


def _bid(
    gain: np.ndarray, prices: np.ndarray, solo: np.ndarray, spread: float, eps: float, limit=None
) -> tuple[np.ndarray | None, int, int]:
    """Jacobi bidding rounds from an empty assignment, raising ``prices`` in
    place, until every user holds a BS: the assignment, the rounds and the
    bids.  A run that reaches ``limit`` rounds first returns None for the
    assignment."""
    k = len(prices)
    # the margin of a user with no allowed alternative
    solo_gap = spread + eps
    assignment = np.full(k, -1)
    owner = np.full(k, -1)
    rounds = bids = 0
    while (bidders := np.flatnonzero(assignment < 0)).size:
        if rounds == limit:
            return None, rounds, bids
        rounds += 1
        bids += bidders.size
        # Bidding phase: each bidder's margin of its best BS over its runner-up,
        # row k - 2 of the partition (forbidden pairs are -inf; at k = 1, row -1).
        values = gain[:, bidders] - prices[:, None]
        ranked = np.partition(values, k - 2, axis=0)
        margins = np.where(solo[bidders], solo_gap, ranked[-1] - ranked[k - 2])
        best = np.argmax(values, axis=0).tolist()
        offers: dict[int, tuple[int, float]] = {}
        # Ascending user order and a strict > let the lowest index win exact ties.
        for user, bs, gamma in zip(bidders.tolist(), best, margins.tolist()):
            held = offers.get(bs)
            if held is None or gamma > held[1]:
                offers[bs] = (user, gamma)
        # Assignment phase: each BS keeps its highest bidder and raises its price.
        for bs in sorted(offers):
            user, gamma = offers[bs]
            if owner[bs] >= 0:
                assignment[owner[bs]] = -1
            owner[bs] = user
            assignment[user] = bs
            prices[bs] += gamma + eps
    return assignment, rounds, bids


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


def _solve_matched(
    net: Network, assignment: np.ndarray, total_gain: float, state: AuctionState | None = None
) -> OneToOneResult:
    """Max-min power at the matched association; min-SINR >= 1 certifies optimality."""
    result = _solve_power_exact(net, assignment)
    status = "optimal" if result.min_sinr >= 1.0 else "infeasible"
    return OneToOneResult(status=status, result=result, total_gain=total_gain, auction=state)


def solve_p1prime(net: Network) -> OneToOneResult:
    """Hungarian matching on log gains, then max-min power at the match."""
    return _solve_matched(net, *hungarian(log_gain_matrix(net)))


def aufp(net: Network, eps: float | None = None) -> OneToOneResult:
    """Auction matching on log gains, then max-min power at the match.

    The distributed counterpart of :func:`solve_p1prime`: for small enough
    eps the auction reaches the same matching whenever the assignment
    optimum is unique, and a final min-SINR >= 1 certifies the globally
    optimal value.  Raises :class:`InfeasibleMatchingError` at once, before
    any bid, when the links admit no perfect matching.
    """
    prob = log_gain_matrix(net)
    state = auction(prob, default_eps(prob) if eps is None else eps)
    return _solve_matched(net, state.assignment, state.total_gain, state)
