"""Max-min power allocation for a fixed association.

The paper's solver iterates a normalized fixed-point map: compute, for
every user, the power its serving BS would need for that user to hit SINR 1
against the current interference, then rescale the whole vector so the most
loaded BS sits exactly at its budget.  The iteration converges geometrically
to the global max-min solution, where all per-user SINRs are equal.

At a fixed association the problem is linear, so the same optimum is also
the inverse Perron root of a K x K matrix per BS budget.
:func:`solve_power_exact` computes it directly with :func:`perron_pair`;
the pipelines use it, and the fixed point stays as the reference.

The dual question "is SINR target gamma feasible, and at what minimal
power" is one linear solve per association; :func:`_target_power` answers
it for a stack of associations at once and screens the brute force's
candidates.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Network, SolveResult, _downlink_received, _downlink_sinr, check_association

__all__ = [
    "FixedPointOptions",
    "unit_sinr_power",
    "load_norm",
    "solve_power",
    "PerronPair",
    "perron_pair",
    "solve_power_exact",
]


def _load_dgesv():
    """LAPACK ``dgesv`` read straight from SciPy's ``_flapack`` extension.

    Importing ``scipy.linalg`` for this one routine also loads ``numpy.f2py``,
    ``numpy.testing`` and ``numpy.ma``, most of the package's start-up time.
    The extension registers itself as ``scipy.linalg._flapack``, so a later
    ``import scipy.linalg`` reuses it and both see the same ``dgesv``.  When
    the file is missing or does not load (on Windows SciPy's
    ``_distributor_init`` sets the DLL path), the package import is used.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
        extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(linalg, extensions).find_spec("scipy.linalg._flapack")
        if spec is not None:
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.dgesv
            except (ImportError, OSError):
                pass
    from scipy.linalg.lapack import dgesv

    return dgesv


dgesv = _load_dgesv()


@dataclass(frozen=True)
class FixedPointOptions:
    """Stopping controls shared by the fixed-point solvers.

    ``tol`` bounds the per-step residual relative to the iteration's power
    scale (budget max, or the sum budget for sum-power solvers).  Every run
    starts from the strictly positive spread ``level / K``, which makes runs
    reproducible.
    """

    tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def unit_sinr_power(net: Network, assoc, power) -> np.ndarray:
    """Per-user power its serving BS needs for SINR 1 at fixed interference.

    Entry k equals (noise_dl[k] + interference at k) / gain[a_k, k]; the
    current SINR of user k is power[k] divided by this entry.  It runs once
    per fixed-point step and checks nothing: pass an association and power
    that the ``check_*`` functions of :mod:`hetnet_maxmin.model` accept.
    """
    a = np.asarray(assoc)
    own, total = _downlink_received(net, a, np.asarray(power, dtype=float))
    # noise + (total - own): a user without interference gets exactly the noise
    return (net.noise_dl + (total - own)) / net.gain[a, np.arange(net.n_users)]


def load_norm(power, assoc, budget) -> float:
    """Budget-weighted BS load: max_n (power served by BS n) / budget[n].

    A power vector is feasible for the per-BS constraints iff this is <= 1.
    BSs serving nobody contribute a zero term and so never dominate.
    """
    budget = np.asarray(budget, dtype=float)
    sums = np.bincount(np.asarray(assoc, dtype=int), weights=power, minlength=len(budget))
    return float(np.max(sums / budget))


class FixedPointRun(NamedTuple):
    """Final iterate and residual trace of :func:`_run_fixed_point`."""

    power: np.ndarray
    iterations: int
    converged: bool
    residual: float
    residuals: np.ndarray


def _run_fixed_point(step, opts: FixedPointOptions, level: np.ndarray, scale: float) -> FixedPointRun:
    """Iterate ``p <- step(p)`` from ``level / K`` until the step is small.

    The one loop behind every normalized fixed-point solver; ``step`` maps
    an iterate to the next.  ``level`` is the power scale of each user,
    shape (K,).  The residual of a step is max |p_new - p| / scale and the
    run converges when it is at most ``opts.tol``; a run that exhausts
    ``max_iter`` ends with ``converged=False``.
    """
    p = level / len(level)
    residuals = []
    for _ in range(opts.max_iter):
        p_new = step(p)
        residuals.append(float(np.max(np.abs(p_new - p))) / scale)
        p = p_new
        if residuals[-1] <= opts.tol:
            break
    res = residuals[-1]
    return FixedPointRun(p, len(residuals), res <= opts.tol, res, np.array(residuals))


def _downlink_result(net: Network, assoc: np.ndarray, run: FixedPointRun) -> SolveResult:
    # the association was checked at entry and the power is the run's own
    sinr = _downlink_sinr(net, assoc, run.power)
    return SolveResult(
        association=assoc,
        power=run.power,
        sinr=sinr,
        min_sinr=float(np.min(sinr)),
        iterations=run.iterations,
        converged=run.converged,
        residual=run.residual,
        residuals=run.residuals,
    )


def solve_power(net: Network, assoc, opts: FixedPointOptions | None = None) -> SolveResult:
    """Globally solve max-min SINR power allocation at a fixed association.

    Iterates p <- U(p) / load_norm(U(p)) where U is :func:`unit_sinr_power`,
    from p = budget / K.  At the fixed point all per-user SINRs are equal
    and the most loaded BS is exactly at its budget.  The reported residual
    is the last per-step change divided by max(budget); convergence means
    residual <= tol.

    A run that exhausts ``max_iter`` is returned with ``converged=False``,
    never silently wrong.
    """
    a = check_association(net, assoc)

    def step(p):
        m = unit_sinr_power(net, a, p)
        return m / load_norm(m, a, net.budget)

    run = _run_fixed_point(step, opts or FixedPointOptions(), net.budget[a], float(np.max(net.budget)))
    return _downlink_result(net, a, run)


# Relative width of the Collatz-Wielandt bracket at which a Perron root is
# final; rounding in Ax / x alone spreads the bracket by about 1e-13.
_PERRON_RTOL = 1e-12
_NODA_MAX_STEPS = 100
# Relative margin of the shift above lam: lam can equal rho to the last bit
# (a diagonal entry of a reducible matrix), and a solve there is singular.
_SHIFT_MARGIN = 1e-10
# Widest relative Collatz-Wielandt bracket accepted when the Noda iteration
# stalls or its solve fails.  The bracket is the spread of the SINRs the
# kernels assign, user by user, and it bounds the eigen-residual
# max |A x - lam x| / lam of the pair returned.
_STALL_RTOL = 1e-9
# Power-iteration steps that smooth the start vector before the first solve:
# a matrix-vector product is far cheaper than a solve and saves one or two.
_POWER_STEPS = 4
# Longest vector whose min and max :func:`_span` takes with the builtins.  At
# 32 entries ``tolist`` plus ``min`` and ``max`` cost what the two numpy
# reductions cost, 2.4 us (numpy 2.4.6, Python 3.11, 2-core shared VM).
_SHORT_SPAN = 32


def _span(v: np.ndarray) -> tuple[float, float]:
    """``(np.minimum.reduce(v), np.maximum.reduce(v))`` of a 1-D float array.

    A short vector goes through ``tolist`` and the builtin ``min`` and
    ``max``, which skip the reductions' per-call cost.  The builtins select
    wrongly around NaN, so a NaN, seen in the sum (where inf - inf shows up
    too), sends the vector to numpy.  Min and max select an entry, so the
    values are exact either way; only the sign of a zero result may differ.
    It is for min and max only: the builtin ``sum`` adds in another order
    than numpy's pairwise ``np.add.reduce`` and would change the bits.
    """
    if len(v) <= _SHORT_SPAN:
        values = v.tolist()
        if not math.isnan(sum(values)):
            return min(values), max(values)
    return float(np.minimum.reduce(v)), float(np.maximum.reduce(v))


class PerronPair(NamedTuple):
    """Perron root ``rho`` and a non-negative Perron vector with max entry 1.

    ``steps`` counts shifted solves; ``dense`` is True when the pair came
    from the dense eigendecomposition fallback.
    """

    rho: float
    vector: np.ndarray
    steps: int
    converged: bool
    dense: bool = False


def _dense_perron(matrix: np.ndarray, steps: int) -> PerronPair:
    values, vectors = np.linalg.eig(matrix)
    top = int(np.argmax(values.real))
    x = np.abs(vectors[:, top].real)
    ok = bool(np.all(np.isfinite(x)) and x.max() > 0)
    return PerronPair(max(float(values[top].real), 0.0), x / x.max() if ok else x, steps, ok, True)


def perron_pair(matrix, start=None) -> PerronPair:
    """Perron root and vector of a non-negative matrix by Noda iteration.

    Built for the kernels' matrices B + u c^T (c >= 0 and not zero, u > 0 by
    an invariant of :class:`~hetnet_maxmin.model.Network`), whose Perron
    root is positive.  A matrix with rho = 0, the zero matrix or a nilpotent
    one such as [[0, 1], [0, 0]], is one whose support graph (an edge
    i -> j for every positive entry) has no cycle.  It has a zero row, so
    the lower Collatz-Wielandt bound is 0 after the power steps; only then
    is the graph tested, by :func:`_acyclic`, and without a cycle the pair
    is rho = 0 and the unit vector of a zero column, converged after 0
    steps.  The kernels' matrices never reach the test.

    Each step solves (s I - A) y = x just above the upper Collatz-Wielandt
    bound lam = max(Ax / x) >= rho, at s = lam (1 + ``_SHIFT_MARGIN``), and
    takes x <- Ay / max(Ay); lam decreases monotonically and converges
    superlinearly to rho.  The product with A recomputes every entry as a
    sum of positive terms: a solve's error is small only next to max(y),
    and entries 1e-10 below it would otherwise hold the bracket open.  The
    iteration stops when the bracket [min(Ax / x), lam] is narrower than
    ``_PERRON_RTOL`` relative.  Every min and max of a vector is taken by
    :func:`_span`, with the builtins on short vectors.

    A solve that fails or comes back non-positive or non-finite, or a lam
    that stops falling, means the shift is within rounding of rho.  Then
    the pair with the narrower bracket is kept if that bracket is narrower
    than ``_STALL_RTOL``, and a dense eigendecomposition is the fallback
    otherwise: a reducible matrix whose Perron vector has zero entries
    never closes the bracket.

    ``start``, strictly positive, warm-starts the vector, which first gets
    ``_POWER_STEPS`` power-iteration steps while they keep it positive.  The
    solves call LAPACK ``dgesv`` directly; :func:`_load_dgesv` reads it from
    SciPy's ``_flapack`` extension without importing ``scipy.linalg``.
    ``numpy.linalg.solve`` does not give the same bits on these near-singular
    shifted systems (with numpy 2.4.6 and scipy 1.17.1 it matched on 947 of
    1,141 of them at K = 18 and on none of 768 at K = 100), and with two BLAS
    threads it costs 1.4-2.9x the CPU time at K = 57-100.

    The shifted matrix is built once, as -A in Fortran order with every
    off-diagonal entry 0.0 - A[i, j]; ``dgesv`` factors a copy of it, so a
    step rewrites only the diagonal, s - A[i, i].  Every matrix-vector
    product goes through ``ndarray.dot``, which calls the same
    ``cblas_dgemv`` as the ``@`` operator, with the same bits, at about half
    its per-call cost.
    """
    a = np.asarray(matrix, dtype=float)
    dot = a.dot
    x = np.ones(len(a)) if start is None else start / _span(start)[1]
    for _ in range(_POWER_STEPS):
        y = dot(x)
        y_lo, y_hi = _span(y)
        if not y_lo > 0:
            break
        x = y / y_hi
    lo, lam = _span(dot(x) / x)
    if lo == 0 and _acyclic(a):
        # a cycle-free support has a zero column j, and A e_j = 0
        vector = np.zeros(len(a))
        vector[np.argmin((a > 0).any(axis=0))] = 1.0
        return PerronPair(0.0, vector, 0, True)
    shifted = np.subtract(0.0, a.T, order="C").T
    diagonal = shifted.T.reshape(-1)[:: len(a) + 1]
    a_diagonal = a.diagonal()
    for steps in range(_NODA_MAX_STEPS):
        if lam - lo <= _PERRON_RTOL * lam:
            return PerronPair(lam, x, steps, True)
        np.subtract(lam * (1.0 + _SHIFT_MARGIN), a_diagonal, out=diagonal)
        y, info = dgesv(shifted, x)[2:]
        y_lo, y_hi = _span(y) if info == 0 else (0.0, 0.0)
        if y_lo > 0 and math.isfinite(y_hi):
            ay = dot(y)
            ay_lo, ay_hi = _span(ay)
            v, v_lo, v_hi = (ay, ay_lo, ay_hi) if ay_lo > 0 else (y, y_lo, y_hi)
            # x_new's least entry is v_lo / v_hi: when it rounds to 0, or Ay
            # overflows, x_new is rejected as a failed solve is, not divided
            if v_lo / v_hi > 0:
                x_new = v / v_hi
                lo_new, lam_new = _span(dot(x_new) / x_new)
                if lam_new < lam * (1.0 - _PERRON_RTOL):
                    x, lam, lo = x_new, lam_new, lo_new
                    continue
                if lo_new / lam_new > lo / lam:
                    x, lam, lo = x_new, lam_new, lo_new
        if lam - lo <= _STALL_RTOL * lam:
            return PerronPair(lam, x, steps + 1, True)
        return _dense_perron(a, steps + 1)
    return PerronPair(lam, x, _NODA_MAX_STEPS, False)


def _acyclic(a: np.ndarray) -> bool:
    """Whether the support graph of ``a``, an edge i -> j for every
    a[i, j] > 0, has no cycle: a non-negative matrix has rho = 0 exactly then.

    Nodes without an incoming edge from a remaining node are peeled off
    until none remain (no cycle) or every remaining node has one (a cycle).
    """
    support = a > 0
    remaining = np.ones(len(a), dtype=bool)
    while remaining.any():
        entered = support[remaining].any(axis=0)
        if not (remaining & ~entered).any():
            return False
        remaining &= entered
    return True


# Relative overload of another BS below which the per-BS climb stops.  Loads
# within a factor 1 + d of each other bound the two Perron roots within the
# same factor, so stopping costs at most d of the value and rounding in the
# Perron vector cannot trigger a switch.
_SWITCH_RTOL = 1e-9


def _coupling(net: Network, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B[k, i] = gain[a_i, k] / gain[a_k, k] off the diagonal, and u = noise / direct gain.

    ``a`` is one checked association (K,) or a batch (B, K); B and u gain
    the same leading axis.
    """
    k = np.arange(net.n_users)
    direct = net.gain[a, k]
    # divided in place, on the gathered rows: one (B, K, K) array, not two
    cross = np.swapaxes(net.gain[a], -1, -2)
    cross /= direct[..., :, None]
    cross[..., k, k] = 0.0
    return cross, net.noise_dl / direct


def solve_power_exact(net: Network, assoc) -> SolveResult:
    """Max-min power at a fixed association from Perron roots, no fixed point.

    With B[k, i] = gain[a_i, k] / gain[a_k, k] off the diagonal, u = noise
    over direct gain and c_n the users of BS n, the optimum is
    t* = 1 / max_n rho(B + u c_n^T / P_n), attained by the Perron vector of
    the binding BS scaled to its budget.  The climb starts at the BS most
    loaded after one fixed-point step.  While the scaled Perron vector x of
    BS n overloads some BS m it moves to the most overloaded one: then
    (B + u c_m^T / P_m) x > rho_n x, so rho_m > rho_n (Collatz-Wielandt)
    and no BS is visited twice, at most N Perron solves.

    ``iterations`` counts shifted solves over the climb.  ``residual`` is
    the normalized fixed-point step at the answer, on the scale of
    :func:`solve_power`'s residual; ``residuals`` is None.

    Raises ValueError when the climb's matrices would overflow the float
    range, as noise over a tiny direct gain, over a tiny budget, can.
    """
    return _solve_power_exact(net, check_association(net, assoc))


def _solve_power_exact(net: Network, a: np.ndarray, coupling=None) -> SolveResult:
    """:func:`solve_power_exact` at an association known to be valid: checked
    by the caller, or made by a solver from the network's links.  ``coupling``
    is ``_coupling(net, a)`` when the caller already holds it."""
    k = net.n_users
    cross, u = _coupling(net, a) if coupling is None else coupling
    members = (a[None, :] == np.arange(net.n_bs)[:, None]) / net.budget[:, None]

    x = u + cross.dot(net.budget[a] / k)
    # u <= x, so max(1 / P) max(x) bounds every entry of u c_n^T / P_n and
    # every load of x; sums of K of them must stay finite
    top = float(np.maximum.reduce(members, axis=None))
    if not k * top * _span(x)[1] < math.inf:
        raise ValueError(
            "the per-BS Perron matrices of this association overflow the float range: "
            f"noise over direct gain reaches {float(np.maximum.reduce(u)):.3g} and "
            f"1 / budget of a serving BS {top:.3g}"
        )
    n = int(members.dot(x).argmax())
    visited = set()
    steps = 0
    converged = False
    while n not in visited:
        visited.add(n)
        pair = perron_pair(cross + u[:, None] * members[n], x)
        steps += pair.steps
        loads = members.dot(pair.vector)
        m = int(loads.argmax())
        if loads[m] <= loads[n] * (1.0 + _SWITCH_RTOL):
            converged = pair.converged
            break
        n = m
        x = np.maximum(pair.vector, np.finfo(float).tiny)
    # loads[m] is the largest load, NaN included
    p = pair.vector / float(loads[m])
    unit = u + cross.dot(p)
    image = unit / _span(members.dot(unit))[1]
    sinr = p / unit
    return SolveResult(
        association=a,
        power=p,
        sinr=sinr,
        min_sinr=_span(sinr)[0],
        iterations=steps,
        converged=converged,
        residual=_span(np.abs(image - p))[1] / _span(net.budget)[1],
    )


def _target_power(
    net: Network, batch: np.ndarray, gamma: float, coupling: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Least powers for SINR target gamma on a checked (B, K) batch, and which
    rows the screen keeps.

    SINR = gamma for every user of row b means (I - gamma B_b) p = gamma u_b,
    with B and u as in :func:`solve_power_exact`: one linear solve.
    I - gamma B is a Z-matrix, and a Z-matrix A is a nonsingular M-matrix
    exactly when A x > 0 for some x >= 0 (Berman & Plemmons, 1979).  As
    u > 0 (a ``Network`` invariant), p >= 0 exists iff rho(gamma B) < 1, and
    then it is the least power vector that meets the target.

    The screen is one-sided: it drops a row only when shown infeasible, and
    the caller's exact solve decides the rest.  The LU solve's error is
    relative to the row's largest entry, so each entry is taken as known to
    within 1e-9 of it: a row is dropped when its solve fails, when p plus
    that slack has a negative entry, or when p minus it overloads a BS by
    more than 1e-12 relative.  The loads come from :func:`_bs_loads`.

    ``coupling`` is ``_coupling(net, batch)``, arrays this function
    overwrites: I - gamma B is built in place.
    """
    system, u = coupling
    # in place: the (B, K, K) stack is the brute force's largest array, and
    # B's diagonal is 0, so 1 - gamma 0 is written as 1
    k = np.arange(net.n_users)
    system *= -gamma
    system[:, k, k] = 1.0
    rhs = gamma * u
    solved = True
    try:
        p = np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # an exactly singular row fails the stacked solve: solve row by row
        rows = [dgesv(m, r)[2:] for m, r in zip(system, rhs)]
        p = np.array([x for x, _ in rows])
        solved = np.array([info == 0 for _, info in rows])
    # users first: a reduction over users is then one vector step per user
    by_user = np.ascontiguousarray(p.T)
    slack = 1e-9 * np.maximum.reduce(by_user)
    with np.errstate(invalid="ignore"):  # inf - inf in a row with +inf
        low = p - slack[:, None]
    loads = _bs_loads(batch, low, net.n_bs) / net.budget
    fits = np.maximum.reduce(loads, axis=1) <= 1.0 + 1e-12
    # a NaN fails the sign test, as does -inf below a larger entry, and +inf
    # the load test, as the NaN of inf - inf
    feasible = solved & (np.minimum.reduce(by_user) >= -slack) & fits
    return p, feasible


def _bs_loads(batch: np.ndarray, p: np.ndarray, n_bs: int) -> np.ndarray:
    """Power each BS serves in every row of a (B, K) batch, shape (B, N).

    One ``bincount`` over the flat index row * N + BS, which adds each
    load's terms in user order.  A non-finite entry of p makes its own BS's
    load non-finite and no other.
    """
    rows = len(batch)
    index = (np.arange(rows)[:, None] * n_bs + batch).ravel()
    return np.bincount(index, weights=p.ravel(), minlength=rows * n_bs).reshape(rows, n_bs)
