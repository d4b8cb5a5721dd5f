"""Ground-truth engines: exhaustive optima and the 3-SAT network gadget.

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

from .model import (
    _BLOCK_ENTRIES,
    _MAX_GAIN_SIDE,
    Network,
    SolveResult,
    ValidationError,
    _check_field_types,
    _of_type,
    _unchecked,
)
from .power import _coupling, _solve_power_exact, _target_power

__all__ = [
    "MAX_CANDIDATES",
    "SAT_GAMMA",
    "CLAUSE_GAIN",
    "CnfFormula",
    "cnf_from_dimacs",
    "satisfiable",
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
        _check_field_types(self)
        if self.n_vars < 1:
            raise ValidationError("formula needs at least one variable")
        clauses = tuple(tuple(c) for c in self.clauses)
        if not clauses:
            raise ValidationError("formula needs at least one clause")
        for c in clauses:
            if len(c) != 3:
                raise ValidationError(f"clause {c} must have exactly 3 literals")
            for lit in c:
                if not _of_type(lit, "int"):
                    raise ValidationError(f"literal {lit!r} must be an integer")
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValidationError(f"literal {lit} out of range 1..{self.n_vars}")
        object.__setattr__(self, "clauses", tuple(tuple(int(l) for l in c) for c in clauses))

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


def cnf_from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text; every clause must have exactly 3 literals.

    The one ``p cnf`` header must declare as many clauses as the text holds.
    """
    n_vars = n_clauses = None
    clauses: list[tuple[int, ...]] = []
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
            if n_vars is not None:
                raise ValidationError(f"second DIMACS header: {line!r}")
            n_vars, n_clauses = numbers
            continue
        for lit in numbers:
            if lit == 0:
                # CnfFormula checks the clause's length
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValidationError("unterminated clause at end of DIMACS input")
    if n_vars is None:
        raise ValidationError("missing DIMACS 'p cnf' header")
    if len(clauses) != n_clauses:
        raise ValidationError(
            f"DIMACS header declares {n_clauses} clauses, the text holds {len(clauses)}"
        )
    return CnfFormula(n_vars=n_vars, clauses=tuple(clauses))


def satisfiable(formula: CnfFormula) -> bool:
    """Decide satisfiability by trying every assignment, a bounded truth table.

    Raises ValueError when the 2^n_vars assignments exceed ``MAX_CANDIDATES``
    (n_vars >= 20).  :func:`verify_sat_equivalence` never gets that far: its
    brute force over the gadget, four candidate associations per variable
    block, already refuses n_vars > 9.
    """
    if formula.n_vars > math.log2(MAX_CANDIDATES):
        raise ValueError(f"2^{formula.n_vars} assignments exceed the cap of {MAX_CANDIDATES}")
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in formula.clauses)
        for bits in itertools.product((False, True), repeat=formula.n_vars)
    )


def build_3sat_gadget(formula: CnfFormula) -> Network:
    """Build the network whose optimum encodes satisfiability.

    BSs and users share one layout.  With M clauses, clause m is index m,
    and variable t (0-based) has its positive BS/user at M + 2t and its
    negated one at M + 2t + 1.  Budgets and both noise vectors are all 1.

    Gains: each clause BS reaches only its own clause user (gain
    CLAUSE_GAIN); each literal occurrence adds gain 1 from that literal's BS
    to the clause user; variable blocks are internally connected and fully
    separated from other blocks.

    A block's internal gain depends on the receiving user: its first user
    hears 2 from both block BSs, its second hears 1 from both.  On its own,
    a block's two split associations (each BS serves one user) then reach
    SAT_GAMMA with powers ((sqrt(7) - 1) / 2, 1), and its two shared ones
    (one BS serves both users) reach 0.4, which makes the reduction
    arithmetic close.

    A formula whose gadget exceeds ``_MAX_GAIN_SIDE`` BSs raises
    ValidationError before any gain is allocated.  The arrays are read-only.
    """
    m = formula.n_clauses
    t = formula.n_vars
    size = m + 2 * t
    if size > _MAX_GAIN_SIDE:
        raise ValidationError(
            f"a gadget of {size} BSs ({m} clauses, {t} variables) exceeds the cap of "
            f"{_MAX_GAIN_SIDE}"
        )
    gain = np.zeros((size, size))

    for cm in range(m):
        gain[cm, cm] = CLAUSE_GAIN
        for lit in formula.clauses[cm]:
            gain[m + 2 * (abs(lit) - 1) + (lit < 0), cm] += 1.0

    for i in range(t):
        pos, neg = m + 2 * i, m + 2 * i + 1
        gain[pos, pos] = gain[neg, pos] = 2.0
        gain[pos, neg] = gain[neg, neg] = 1.0

    # the gains are sums of positive constants, finite and reaching every
    # user, so the network needs none of its constructor's checks
    ones = np.ones(size)
    return _unchecked(gain, ones, ones, ones)


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
    best = brute_force_optimum(build_3sat_gadget(formula))
    sat = satisfiable(formula)
    achieves = best.min_sinr >= SAT_GAMMA - tol
    return EquivalenceReport(
        sat_by_solver=sat,
        network_opt=best.min_sinr,
        agrees=(sat == achieves),
        threshold=SAT_GAMMA,
    )


def _candidate_chunks(linked: np.ndarray):
    """Every association over the links of ``linked`` (N, K), as (B, K)
    chunks in ``itertools.product`` order over each user's linked BSs, the
    last user fastest.

    Each chunk but the last holds B = max(1, ``_BLOCK_ENTRIES`` // K²)
    associations, so its (B, K, K) coupling and each screen's copies of it
    hold at most ``_BLOCK_ENTRIES`` floats (0.5 MB) whatever K is, unless
    K² alone exceeds that.  Candidate i is i in mixed radix: user k's digit
    has the later users' link counts multiplied as its place value and
    picks among the user's linked BSs in index order.  Raises ValueError,
    before the first chunk, beyond ``MAX_CANDIDATES`` candidates.
    """
    counts = linked.sum(axis=0)
    count = math.prod(counts.tolist())
    if count > MAX_CANDIDATES:
        raise ValueError(f"{count} candidate associations exceed the cap of {MAX_CANDIDATES}")
    place = count // np.cumprod(counts)
    # row k: user k's linked BSs first, in index order
    options = np.argsort(~linked, axis=0, kind="stable").T
    users = np.arange(linked.shape[1])
    rows = max(1, _BLOCK_ENTRIES // len(users) ** 2)
    for start in range(0, count, rows):
        index = np.arange(start, min(start + rows, count))
        yield options[users, index[:, None] // place % counts]


def brute_force_optimum(net: Network) -> SolveResult:
    """Global optimum by exhausting associations.

    Associations never cross zero-gain links.  Candidates are walked in
    lexicographic enumeration order, in chunks, and each chunk's coupling
    (B, u) is built once.  Against the best value g so far, the batched
    target-power test keeps only the candidates that can reach SINR
    g (1 + 1e-9); the first survivor is solved exactly from the chunk's
    coupling, with no association check (:func:`power._solve_power_exact`),
    replaces the best if it beats g by that margin, and the rest are
    screened again.  Ties thus resolve to the first candidate in
    enumeration order, and the returned result is the exact solve at the
    winning association.

    Refuses instances with more than ``MAX_CANDIDATES`` candidates.
    """
    best: SolveResult | None = None
    for batch in _candidate_chunks(net.gain > 0):
        cross, u = _coupling(net, batch)
        alive = np.arange(len(batch))
        while len(alive):
            if best is not None:
                gamma = best.min_sinr * (1.0 + _TIE_RTOL)
                # the screen overwrites the survivors' copy of the coupling
                alive = alive[_target_power(net, batch[alive], gamma, (cross[alive], u[alive]))[1]]
                if not len(alive):
                    break
            first = alive[0]
            res = _solve_power_exact(net, batch[first], (cross[first], u[first]))
            if best is None or res.min_sinr > best.min_sinr * (1.0 + _TIE_RTOL):
                best = res
            alive = alive[1:]
    return best
