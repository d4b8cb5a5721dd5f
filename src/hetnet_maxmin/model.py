"""Network data model and downlink SINR evaluation.

Gains, powers and noise are stored linear (not dB); dB shows up only at the
CLI/scenario boundary. A zero channel gain encodes "no link": associating a
user across a zero link is a validation error rather than SINR = 0, so that
matching algorithms on log-gains have a consistent forbidden convention.

All types are immutable after construction and all operations are pure, so
networks can be shared freely across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain

import numpy as np

__all__ = [
    "ValidationError",
    "Network",
    "SolveResult",
    "check_association",
    "check_power",
    "downlink_sinr",
    "max_snr_association",
    "network_to_json",
    "network_from_json",
]


# Largest gain matrix built from a short input (a scenario config or a 3-SAT
# formula), per side: 2,000 x 2,000 floats, 32 MB.
_MAX_GAIN_SIDE = 2_000
# Caps one block of a chunked computation, in entries: a scenario rejection
# round's rows or candidate-by-BS distances, a brute-force chunk's coupling.
# Scenario draws depend on the value.
_BLOCK_ENTRIES = 1 << 16


class ValidationError(ValueError):
    """An input violates a structural contract (shape, sign, or link)."""


@dataclass(frozen=True)
class Network:
    """A cellular network snapshot.

    gain[n, k] is the linear channel power gain between BS n and user k
    (zero means no link), budget[n] the per-BS maximum transmit power,
    noise_dl[k] the receive noise power at user k, and noise_ul[n] the
    receive noise power at BS n.  Downlink and uplink noise are kept
    separate so that duality experiments can set them equal explicitly.
    Every user has a link, and no noise over a linked gain, used or not,
    rounds to 0 or to inf: the exact kernels rely on u = noise / gain being
    positive and finite.

    Division rounds monotonically, so every quotient lies between the least
    noise over the largest gain and the largest noise over the least linked
    gain: when those two are in range, so is every quotient.  Otherwise each
    noise is taken over the largest and the least linked gain it meets, its
    extreme quotients, to name those out of range; a BS without a link gets
    noise / 0 = inf and noise / inf = 0, which pass.
    """

    gain: np.ndarray
    budget: np.ndarray
    noise_dl: np.ndarray
    noise_ul: np.ndarray

    def __post_init__(self):
        g = np.array(self.gain, dtype=float)
        if g.ndim != 2:
            raise ValidationError(f"gain must be 2-D (n_bs, n_users), got shape {g.shape}")
        n, k = g.shape
        if n < 1 or k < 1:
            raise ValidationError("network needs at least one BS and one user")
        # every rule reads its arrays' least and largest entries; a NaN is both
        # and fails every comparison
        low, high = float(g.min()), float(g.max())
        if not 0 <= low <= high < math.inf:
            raise ValidationError("gains must be finite and non-negative")
        g.setflags(write=False)
        object.__setattr__(self, "gain", g)
        extremes = []
        for name, size in (("budget", n), ("noise_dl", k), ("noise_ul", n)):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (size,):
                raise ValidationError(f"{name} must have shape ({size},), got {v.shape}")
            least, most = float(v.min()), float(v.max())
            if not -math.inf < least <= most < math.inf:
                raise ValidationError(f"{name} must be finite")
            if least <= 0:
                raise ValidationError(f"{name} must be strictly positive")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            extremes.append((least, most))
        _, (dl_least, dl_most), (ul_least, ul_most) = extremes
        linked = g
        if low == 0:
            linked = np.where(g > 0, g, np.inf)
            user_least = linked.min(axis=0)
            if np.isinf(user_least).any():
                unreachable = np.flatnonzero(np.isinf(user_least)).tolist()
                raise ValidationError(f"users {unreachable} have no BS with positive gain")
            low = float(user_least.min())
        if min(dl_least, ul_least) / high > 0 and max(dl_most, ul_most) / low < math.inf:
            return
        with np.errstate(over="ignore", divide="ignore"):
            for rounds, bound, dl, ul in (
                ("underflows to 0", 0.0, self.noise_dl / g.max(axis=0), self.noise_ul / g.max(axis=1)),
                ("overflows to inf", np.inf, self.noise_dl / linked.min(axis=0), self.noise_ul / linked.min(axis=1)),
            ):
                users, bss = np.flatnonzero(dl == bound).tolist(), np.flatnonzero(ul == bound).tolist()
                if users or bss:
                    raise ValidationError(
                        f"noise over gain {rounds}: noise_dl of users {users}, noise_ul of BSs {bss}"
                    )

    @property
    def n_bs(self) -> int:
        return self.gain.shape[0]

    @property
    def n_users(self) -> int:
        return self.gain.shape[1]


def _unchecked(gain, budget, noise_dl, noise_ul) -> Network:
    """A :class:`Network` of float arrays that already pass its checks, taken
    as they are (no copy, no check) and made read-only."""
    net = object.__new__(Network)
    arrays = (gain, budget, noise_dl, noise_ul)
    for name, value in zip(("gain", "budget", "noise_dl", "noise_ul"), arrays):
        value.setflags(write=False)
        object.__setattr__(net, name, value)
    return net


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a power-allocation solve.

    ``min_sinr`` is exactly ``min(sinr)``.  ``residual`` is the final
    fixed-point residual, normalized by the scale the producing algorithm
    iterates on (see that algorithm's docstring).  ``residuals`` keeps the
    whole residual trace for convergence diagnostics.
    """

    association: np.ndarray
    power: np.ndarray
    sinr: np.ndarray
    min_sinr: float
    iterations: int
    converged: bool
    residual: float
    residuals: np.ndarray | None = None


# The types each scalar annotation admits, keyed by its string form (the
# modules use ``from __future__ import annotations``).  A bool is an int to
# Python, but it is never a count or a real here.
_SCALARS = {
    "int": (int, np.integer),
    "float": (int, float, np.integer, np.floating),
    "str": (str,),
    "bool": (bool,),
}


def _of_type(value, kind: str) -> bool:
    """Whether ``value`` is of the scalar type ``kind``, a key of ``_SCALARS``."""
    return isinstance(value, _SCALARS[kind]) and (kind == "bool" or not isinstance(value, bool))


def _check_field_types(obj) -> None:
    """Check every scalar field of a dataclass, optional ones too, against its
    annotation; a float field must also be finite."""
    for name, f in obj.__dataclass_fields__.items():
        kind, value = f.type.removesuffix(" | None"), getattr(obj, name)
        if kind not in _SCALARS or (value is None and kind != f.type):
            continue
        if not _of_type(value, kind):
            raise ValidationError(f"{name} must be of type {f.type}, got {value!r}")
        if kind == "float" and not -math.inf < value < math.inf:
            raise ValidationError(f"{name} must be finite, got {value!r}")


def _check_document(doc, cls, noun: str) -> None:
    """A document to build ``cls`` from is a JSON object naming only its fields."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{noun} document must be a JSON object")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown {noun} fields: {sorted(unknown)}")


def _to_json(value):
    """``value`` as JSON data: a dataclass becomes a dict of its fields, an array
    or a tuple a list and a numpy scalar a Python scalar, all the way down."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _load_json(path):
    """The document in the JSON file at ``path``.  With :func:`_dump_json` this
    is the package's one codec: orjson, imported on the first document read or
    written, so a process that handles none (a sweep worker) never loads it.
    NaN, Infinity and numbers beyond the float range are not JSON: a file
    holding one raises ValidationError naming it."""
    import orjson

    with open(path, "rb") as fh:
        try:
            return orjson.loads(fh.read())
        except orjson.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not JSON: {exc}") from exc


def _dump_json(doc, indent: bool = False) -> bytes:
    """``doc``, JSON data, as compact text (two-space indented with ``indent``)
    ending in a newline; floats keep every bit, and a non-finite one is null."""
    import orjson

    return orjson.dumps(doc, option=orjson.OPT_APPEND_NEWLINE | (orjson.OPT_INDENT_2 if indent else 0))


def check_association(net: Network, assoc) -> np.ndarray:
    """Validate an association vector against a network.

    Requires one integer serving BS index per user, in range, with a
    strictly positive direct gain.  Returns the validated int array.
    """
    a = np.asarray(assoc)
    if a.shape != (net.n_users,):
        raise ValidationError(
            f"association must have shape ({net.n_users},), got {a.shape}"
        )
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"association entries must be integers, got dtype {a.dtype}")
    if np.any((a < 0) | (a >= net.n_bs)):
        raise ValidationError("association entries must be valid BS indices")
    direct = net.gain[a, np.arange(net.n_users)]
    if np.any(direct <= 0):
        bad = np.flatnonzero(direct <= 0)
        raise ValidationError(f"users {bad.tolist()} are associated across a zero-gain link")
    return a.astype(int, copy=False)


def check_power(net: Network, power) -> np.ndarray:
    """Validate a per-user power vector: finite, non-negative, length K."""
    p = np.asarray(power, dtype=float)
    if p.shape != (net.n_users,):
        raise ValidationError(f"power must have shape ({net.n_users},), got {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValidationError("power must be finite and non-negative")
    return p


def downlink_sinr(net: Network, assoc, power) -> np.ndarray:
    """Per-user downlink SINR.

    User k receives its signal from BS a_k with power power[k]; every other
    user's transmission i != k interferes through gain[a_i, k], including
    co-served users of the same BS.  A zero-power user gets SINR 0.
    """
    return _downlink_sinr(net, check_association(net, assoc), check_power(net, power))


def _downlink_sinr(net: Network, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """:func:`downlink_sinr` at an association and power already known valid."""
    own, total = _downlink_received(net, a, p)
    return own / (net.noise_dl + total - own)


def _downlink_received(net: Network, a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user own received signal and total received power, unchecked."""
    received = p[:, None] * net.gain[a, :]  # [i, k] = power of user i received at user k
    return np.diagonal(received), received.sum(axis=0)


def max_snr_association(net: Network) -> np.ndarray:
    """Greedy association: each user picks argmax_n gain[n, k] * budget[n].

    Ties break to the lowest BS index.  A score within 8 machine epsilons of
    the best ties with it: scaling every budget by a common c rounds c * budget
    and then its product with the gain, so two scores that tie exactly, such
    as 10 * 100 and 100 * 10, can come apart by up to 4 half-ulps, and a strict
    argmax would then let the scale choose the association.  Budgets near the
    float limit can overflow a score; then every score is taken over the
    largest budget, a common scale that the 8-epsilon rule absorbs.
    """
    with np.errstate(over="ignore"):
        score = net.gain * net.budget[:, None]
    if not np.isfinite(score).all():
        score = net.gain * (net.budget / net.budget.max())[:, None]
    best = score.max(axis=0) * (1.0 - 8.0 * np.finfo(float).eps)
    return np.argmax(score >= best, axis=0).astype(int)


def network_to_json(net: Network) -> dict:
    """JSON document with the fixed cross-tool field names."""
    return {"n_bs": net.n_bs, "n_users": net.n_users, **_to_json(net)}


def _json_numbers(value, name: str, nested: bool):
    """``value`` if it is a JSON list of numbers (a bool is not one), or with
    ``nested`` a list of equally long such lists; ValidationError otherwise."""
    rows = value if nested else [value]
    if not (
        isinstance(value, list)
        and all(isinstance(row, list) for row in rows)
        and len(set(map(len, rows))) <= 1
        and set(map(type, chain.from_iterable(rows))) <= {int, float}
    ):
        shape = "a rectangular JSON list of lists" if nested else "a JSON list"
        raise ValidationError(f"{name} must be {shape} of numbers")
    return value


def network_from_json(doc: dict) -> Network:
    """Inverse of :func:`network_to_json`; validates declared dimensions."""
    if not isinstance(doc, dict):
        raise ValidationError("network document must be a JSON object")
    try:
        dims = (doc["n_bs"], doc["n_users"])
        net = Network(
            *(_json_numbers(doc[f.name], f.name, nested=f.name == "gain") for f in fields(Network))
        )
    except KeyError as exc:
        raise ValidationError(f"network document is missing field {exc}") from exc
    except OverflowError as exc:  # an integer beyond float range
        raise ValidationError(f"network document has a number out of range: {exc}") from exc
    # exact JSON types: a declared 2.5 or true is not a dimension
    if any(type(d) is not int for d in dims) or dims != net.gain.shape:
        raise ValidationError(f"declared dimensions {dims} do not match gain shape {net.gain.shape}")
    return net
