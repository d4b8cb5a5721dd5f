"""Ground-truth engines: exhaustive optima, the 3-SAT network gadget, and
closed-form constants for the two-cell variable block.

The brute-force solver enumerates every association that avoids zero-gain
links and keeps the best, scoring exactly: a batched target-power test
screens candidates against the best value so far, and the Perron-root
solve of :mod:`hetnet_maxmin.power` scores the survivors.  No fixed point
runs.  It is the reference every other algorithm is checked against at
desk scale.

The gadget encodes a 3-SAT formula as a network whose achievable min-SINR
hits the threshold (sqrt(7) - 1) / 3 exactly when the formula is
satisfiable: one BS/user pair per clause, and a two-BS/two-user block per
variable whose two "split" associations represent true/false.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Network, SolveResult, ValidationError
from .power import _solve_power_exact, _target_power

__all__ = [
    "MAX_CANDIDATES",
    "SAT_GAMMA",
    "CLAUSE_GAIN",
    "CnfFormula",
    "cnf_from_dimacs",
    "satisfiable",
    "PairValues",
    "gadget_pair_values",
    "GadgetNetwork",
    "build_3sat_gadget",
    "EquivalenceReport",
    "verify_sat_equivalence",
    "brute_force_optimum",
]

# Min-SINR threshold separating satisfiable from unsatisfiable gadgets.
SAT_GAMMA = (math.sqrt(7.0) - 1.0) / 3.0
# Direct gain of each clause BS to its clause user.
CLAUSE_GAIN = (2.0 * math.sqrt(7.0) + 1.0) / 3.0
# Largest number of candidate associations the brute force will enumerate.
MAX_CANDIDATES = 1_000_000
# Associations the brute force screens per batched target-power test.
_BATCH_SIZE = 2048
# Relative margin by which a candidate must beat the best value so far;
# it keeps the first of exactly tied candidates despite rounding.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class CnfFormula:
    """A 3-SAT formula: clauses are triples of signed 1-based variable ids.

    Literals may repeat inside a clause (repeats raise the gadget's
    interference weight accordingly), so small unsatisfiable instances such
    as (x1|x1|x1) & (~x1|~x1|~x1) are expressible.
    """

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValidationError("formula needs at least one variable")
        clauses = tuple(tuple(int(l) for l in c) for c in self.clauses)
        if not clauses:
            raise ValidationError("formula needs at least one clause")
        for c in clauses:
            if len(c) != 3:
                raise ValidationError(f"clause {c} must have exactly 3 literals")
            for lit in c:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValidationError(f"literal {lit} out of range 1..{self.n_vars}")
        object.__setattr__(self, "clauses", clauses)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


def cnf_from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text; every clause must have exactly 3 literals."""
    n_vars = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%"):
            break  # SATLIB's trailer: "%", then a lone "0" that is no clause
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        header = line.startswith("p")
        if header and (len(parts) != 4 or parts[1] != "cnf"):
            raise ValidationError(f"bad DIMACS header: {line!r}")
        try:
            numbers = [int(tok) for tok in (parts[2:] if header else parts)]
        except ValueError:
            raise ValidationError(f"non-integer token in DIMACS line {line!r}") from None
        if header:
            n_vars = numbers[0]
            continue
        for lit in numbers:
            if lit == 0:
                if len(pending) != 3:
                    raise ValidationError(
                        f"clause {pending} has {len(pending)} literals; exactly 3 required"
                    )
                clauses.append((pending[0], pending[1], pending[2]))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValidationError("unterminated clause at end of DIMACS input")
    if n_vars is None:
        raise ValidationError("missing DIMACS 'p cnf' header")
    return CnfFormula(n_vars=n_vars, clauses=tuple(clauses))


def satisfiable(formula: CnfFormula) -> bool:
    """Decide satisfiability with a tiny DPLL (unit propagation + split)."""

    def assign(clauses: list[frozenset[int]], lit: int) -> list[frozenset[int]] | None:
        out = []
        for c in clauses:
            if lit in c:
                continue
            reduced = c - {-lit}
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(clauses: list[frozenset[int]]) -> bool:
        while True:
            unit = next((c for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = assign(clauses, next(iter(unit)))
            if clauses is None:
                return False
        if not clauses:
            return True
        lit = next(iter(clauses[0]))
        branch = assign(clauses, lit)
        if branch is not None and solve(branch):
            return True
        branch = assign(clauses, -lit)
        return branch is not None and solve(branch)

    return solve([frozenset(c) for c in formula.clauses])


@dataclass(frozen=True)
class PairValues:
    """Closed-form optima of a two-BS / two-user variable block.

    With receiver gains f (at the first user, from either BS) and g (at the
    second user), the two split associations both achieve
    2 / (1/g + sqrt(1/g^2 + 4 (1 + 1/f))) with powers
    (1/value - 1/g, 1); the two shared associations (one BS serving both
    users from a common budget) achieve 1 / (1/f + 1/g + 1).
    """

    values: tuple[float, float, float, float]
    split_powers: tuple[float, float]


def gadget_pair_values(f: float, g: float) -> PairValues:
    """Per-configuration optima for the variable block; requires f >= g > 0."""
    if not (f >= g > 0):
        raise ValidationError("need f >= g > 0")
    split = 2.0 / (1.0 / g + math.sqrt(1.0 / g**2 + 4.0 * (1.0 + 1.0 / f)))
    shared = 1.0 / (1.0 / f + 1.0 / g + 1.0)
    return PairValues(
        values=(split, split, shared, shared),
        split_powers=(1.0 / split - 1.0 / g, 1.0),
    )


@dataclass(frozen=True)
class GadgetNetwork:
    """The network encoding of a formula plus its index maps.

    BSs and users share the layout: clause blocks first (index m for clause
    m), then for variable t the positive BS/user at ``pos_of(t)`` and the
    negated one right after it.  Budgets and both noise vectors are all 1.
    """

    network: Network
    clause_index: tuple[int, ...]
    pos_index: tuple[int, ...]
    neg_index: tuple[int, ...]


def build_3sat_gadget(formula: CnfFormula) -> GadgetNetwork:
    """Build the network whose optimum encodes satisfiability.

    Gains: each clause BS reaches only its own clause user (gain
    CLAUSE_GAIN); each literal occurrence adds gain 1 from that literal's BS
    to the clause user; variable blocks are internally connected and fully
    separated from other blocks.

    A block's internal gain depends on the receiving user: its first user
    hears 2 from both block BSs, its second hears 1 from both.  This is the
    gain pattern whose split-configuration optimum matches
    :func:`gadget_pair_values` and makes the reduction arithmetic close.
    """
    m = formula.n_clauses
    t = formula.n_vars
    size = m + 2 * t
    gain = np.zeros((size, size))

    clause_index = tuple(range(m))
    pos_index = tuple(m + 2 * i for i in range(t))
    neg_index = tuple(m + 2 * i + 1 for i in range(t))

    for cm in range(m):
        gain[cm, cm] = CLAUSE_GAIN
        for lit in formula.clauses[cm]:
            bs = pos_index[abs(lit) - 1] if lit > 0 else neg_index[abs(lit) - 1]
            gain[bs, cm] += 1.0

    for i in range(t):
        pos, neg = pos_index[i], neg_index[i]
        gain[pos, pos] = gain[neg, pos] = 2.0
        gain[pos, neg] = gain[neg, neg] = 1.0

    ones_users = np.ones(size)
    net = Network(gain=gain, budget=np.ones(size), noise_dl=ones_users, noise_ul=np.ones(size))
    return GadgetNetwork(
        network=net,
        clause_index=clause_index,
        pos_index=pos_index,
        neg_index=neg_index,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the reduction check for one formula."""

    sat_by_solver: bool
    network_opt: float
    agrees: bool
    threshold: float


def verify_sat_equivalence(formula: CnfFormula, tol: float = 1e-6) -> EquivalenceReport:
    """Check SAT(formula) <=> gadget optimum >= SAT_GAMMA - tol.

    The left side comes from :func:`satisfiable`; the right side from the
    constrained brute force over the gadget (clause users have at most four
    candidate BSs, variable users two, so the zero-link-skipping enumeration
    is exactly the constrained search).
    """
    best = brute_force_optimum(build_3sat_gadget(formula).network)
    sat = satisfiable(formula)
    achieves = best.min_sinr >= SAT_GAMMA - tol
    return EquivalenceReport(
        sat_by_solver=sat,
        network_opt=best.min_sinr,
        agrees=(sat == achieves),
        threshold=SAT_GAMMA,
    )


def brute_force_optimum(net: Network) -> SolveResult:
    """Global optimum by exhausting associations.

    Associations never cross zero-gain links.  Candidates are walked in
    lexicographic enumeration order, in chunks.  Against the best value g
    so far, the batched target-power test keeps only the candidates that
    can reach SINR g (1 + 1e-9); the first survivor is solved exactly with
    :func:`hetnet_maxmin.power.solve_power_exact`, replaces the best if it
    beats g by that margin, and the rest are screened again.  Ties thus
    resolve to the first candidate in enumeration order, and the returned
    result is the exact solve at the winning association.

    Refuses instances with more than ``MAX_CANDIDATES`` candidates.
    """
    choices = [np.flatnonzero(net.gain[:, k] > 0).tolist() for k in range(net.n_users)]
    count = math.prod(len(c) for c in choices)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{count} candidate associations exceed the cap of {MAX_CANDIDATES}"
        )
    best: SolveResult | None = None
    candidates = itertools.product(*choices)
    while chunk := list(itertools.islice(candidates, _BATCH_SIZE)):
        batch = np.array(chunk, dtype=int)
        while len(batch):
            if best is not None:
                batch = batch[_target_power(net, batch, best.min_sinr * (1.0 + _TIE_RTOL))[1]]
                if not len(batch):
                    break
            res = _solve_power_exact(net, batch[0])
            if best is None or res.min_sinr > best.min_sinr * (1.0 + _TIE_RTOL):
                best = res
            batch = batch[1:]
    return best
