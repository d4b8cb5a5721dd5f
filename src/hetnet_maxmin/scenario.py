"""Random HetNet instance generation.

Macro BSs sit on a triangular grid with fixed spacing (their Voronoi cells
are the hexagonal macro cells); each macro cell additionally hosts a number
of randomly placed pico BSs kept away from the cell center.  Channel gains
combine a power-law path loss referenced at 200 m with i.i.d. log-normal
shadowing.  Two user layouts are supported: "congested" piles floor(sqrt(K))
users into one macro cell, "uni_in_cell" cycles users through a random
permutation of all cells (cell = Voronoi region of a BS, macro or pico,
clipped to the network area).

Generation is a pure function of (config, seed): identical inputs produce a
bit-identical network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _BLOCK_ENTRIES, _MAX_GAIN_SIDE, Network, ValidationError, _check_document, _check_field_types, _to_json

__all__ = [
    "ScenarioConfig",
    "Geometry",
    "HetnetInstance",
    "generate_hetnet",
    "place_users",
    "scenario_from_json",
    "scenario_to_json",
    "geometry_to_json",
]

_SQRT3 = math.sqrt(3.0)
# Half-plane normals of the hexagonal Voronoi cell of the triangular grid.
_HEX_AXES = np.array(
    [
        [1.0, 0.0],
        [0.5, _SQRT3 / 2.0],
        [-0.5, _SQRT3 / 2.0],
    ]
)
# Rejection sampling gives up after this many candidates per point.
_MAX_CANDIDATES = 200_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, power and user-layout knobs for one random HetNet draw.

    ``snr_db`` fixes the pico budget via SNR = 10 log10(P_pico) against the
    unit noise floor; macro budgets sit ``macro_power_gap_db`` above it.
    A config whose gain matrix would exceed ``_MAX_GAIN_SIDE**2`` entries
    raises ValidationError.
    """

    n_macro: int = 9
    picos_per_macro: int = 1
    n_users: int = 18
    snr_db: float = 15.0
    macro_power_gap_db: float = 16.0
    macro_spacing_m: float = 1000.0
    pico_min_dist_m: float = 250.0
    pathloss_ref_m: float = 200.0
    pathloss_exp: float = 3.7
    shadow_std_db: float = 8.0
    noise: float = 1.0
    user_dist: str = "uni_in_cell"
    seed: int = 0
    congested_cell: int | None = None
    wrap_around: bool = False

    def __post_init__(self):
        _check_field_types(self)
        if self.n_macro < 1 or self.n_users < 1 or self.picos_per_macro < 0:
            raise ValidationError("counts must be positive (picos_per_macro may be 0)")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        for name in ("macro_spacing_m", "pico_min_dist_m", "pathloss_ref_m", "noise"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        if self.shadow_std_db < 0:
            raise ValidationError("shadow_std_db must be non-negative")
        if self.user_dist not in ("congested", "uni_in_cell"):
            raise ValidationError(f"unknown user_dist {self.user_dist!r}")
        if self.congested_cell is not None and not 0 <= self.congested_cell < self.n_macro:
            raise ValidationError("congested_cell out of range")
        if self.picos_per_macro > 0 and not self.pico_min_dist_m < self.macro_spacing_m / _SQRT3:
            raise ValidationError(
                "pico_min_dist_m must be below macro_spacing_m/sqrt(3), a macro's corner distance"
            )
        if self.n_bs * self.n_users > _MAX_GAIN_SIDE**2:
            raise ValidationError(
                f"a scenario of {self.n_bs} BSs and {self.n_users} users exceeds the cap of "
                f"{_MAX_GAIN_SIDE**2} gain entries"
            )

    @property
    def n_bs(self) -> int:
        return (self.picos_per_macro + 1) * self.n_macro

    @property
    def pico_power(self) -> float:
        try:
            return 10.0 ** (self.snr_db / 10.0)
        except OverflowError:  # float ** raises where float * returns inf
            return math.inf

    @property
    def macro_power(self) -> float:
        return self.pico_power * 10.0 ** (self.macro_power_gap_db / 10.0)


@dataclass(frozen=True)
class Geometry:
    """BS and user coordinates of one generated instance.

    ``bs_parent_macro[n]`` is the macro-cell index a pico belongs to (or the
    macro's own cell index for macro BSs); ``user_cell[k]`` is the index of
    the nearest BS, which for uni_in_cell placement equals the cell the user
    was drawn in.
    """

    bs_positions: np.ndarray
    bs_is_macro: np.ndarray
    bs_parent_macro: np.ndarray
    user_positions: np.ndarray
    user_cell: np.ndarray


@dataclass(frozen=True)
class HetnetInstance:
    network: Network
    geometry: Geometry


def _macro_grid(config: ScenarioConfig) -> np.ndarray:
    """Near-square triangular grid of macro centers, 1000 m to all neighbors,
    filled row by row; odd rows shift half a spacing."""
    n = config.n_macro
    s = config.macro_spacing_m
    i, j = np.divmod(np.arange(n), math.ceil(n / math.floor(math.sqrt(n))))
    return np.column_stack([j * s + (i % 2) * s / 2.0, i * s * _SQRT3 / 2.0])


def _in_hex(points: np.ndarray, center: np.ndarray, spacing: float) -> np.ndarray:
    rel = np.atleast_2d(points) - center
    return np.all(np.abs(rel @ _HEX_AXES.T) <= spacing / 2.0 + 1e-9, axis=1)


def _sq_distances(
    centers: np.ndarray, points: np.ndarray, span: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances from each centre to each point, shape
    (len(centers), len(points)), built one axis at a time.  With ``span``
    each axis's difference first wraps to its nearest image ``span[axis]``
    apart.  Its argmin over axis 0 is the nearest centre, the lowest on ties.
    """
    squares = []
    for i in (0, 1):
        d = np.subtract.outer(centers[:, i], points[:, i])
        if span is not None:
            d -= span[i] * np.round(d / span[i])
        squares.append(np.multiply(d, d, out=d))
    return np.add(*squares, out=squares[0])


def _hex_offsets(
    rng: np.random.Generator, count: int, spacing: float, min_radius: float = 0.0
) -> np.ndarray:
    """``count`` points uniform in the origin-centred hexagon and at least
    ``min_radius`` from its centre, by block rejection from its bounding box."""
    bound = np.array([spacing / 2.0, spacing / _SQRT3])
    kept, n_kept, drawn, scale = [np.zeros((0, 2))], 0, 0, 1
    while n_kept < count:
        if drawn >= _MAX_CANDIDATES * count:
            raise ValidationError("hexagon sampling failed; geometry unsatisfiable")
        size = min((2 * (count - n_kept) + 8) * scale, _BLOCK_ENTRIES)
        block = rng.uniform(-bound, bound, size=(size, 2))
        drawn, scale = drawn + size, 2 * scale
        block = block[_in_hex(block, 0.0, spacing) & (np.hypot(*block.T) >= min_radius)]
        kept.append(block)
        n_kept += len(block)
    return np.concatenate(kept)[:count]


def place_users(
    config: ScenarioConfig,
    bs_positions: np.ndarray,
    bs_is_macro: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw user coordinates among the BSs at ``bs_positions``, shape (N, 2),
    whose macros ``bs_is_macro`` marks, according to the configured layout.

    congested: floor(sqrt(K)) users uniform in the congested macro cell, the
    rest uniform over the whole network area.  uni_in_cell: user k lands
    uniformly in the Voronoi cell of BS perm[k mod N] for a seeded random
    permutation perm of the BSs.  A cell no candidate lands in within the
    candidate cap (an empty one, say) raises ValidationError.
    """
    s = config.macro_spacing_m
    macro_centers = bs_positions[bs_is_macro]
    if config.user_dist == "congested":
        hot = config.congested_cell
        if hot is None:  # the macro nearest the centroid
            centroid = macro_centers.mean(axis=0, keepdims=True)
            hot = int(np.argmin(_sq_distances(macro_centers, centroid)))
        n_hot = int(math.floor(math.sqrt(config.n_users)))
        hot_users = macro_centers[hot] + _hex_offsets(rng, n_hot, s)
        cells = rng.integers(len(macro_centers), size=config.n_users - n_hot)
        return np.vstack([hot_users, macro_centers[cells] + _hex_offsets(rng, len(cells), s)])

    # Candidates come from the square of half-side s/sqrt(3) around the target
    # BS t, which holds t's cell clipped to the area: a point of the area is
    # within s/sqrt(3) of its macro, and a point of t's cell no farther from
    # t.  Keep those nearest to t that lie in their nearest macro's hexagon.
    perm = rng.permutation(len(bs_positions))
    targets = perm[np.arange(config.n_users) % len(perm)]
    positions = np.zeros((config.n_users, 2))
    pending = np.arange(config.n_users)
    drawn, per_user = 0, 32
    while pending.size:
        if drawn >= _MAX_CANDIDATES:
            raise ValidationError(
                f"could not place a user in the Voronoi cell of BS {targets[pending[0]]}"
            )
        m = max(1, min(per_user, _BLOCK_ENTRIES // (pending.size * len(bs_positions))))
        cand = bs_positions[targets[pending], None, :] + rng.uniform(
            -s / _SQRT3, s / _SQRT3, size=(pending.size, m, 2)
        )
        drawn, per_user = drawn + m, 2 * per_user
        flat = cand.reshape(-1, 2)
        sq = _sq_distances(bs_positions, flat)
        home = macro_centers[np.argmin(sq[bs_is_macro], axis=0)]
        ok = np.argmin(sq, axis=0) == np.repeat(targets[pending], m)
        ok = (ok & _in_hex(flat, home, s)).reshape(pending.size, m)
        done = ok.any(axis=1)
        positions[pending[done]] = cand[done, ok[done].argmax(axis=1)]
        pending = pending[~done]
    return positions


def generate_hetnet(config: ScenarioConfig) -> HetnetInstance:
    """Generate one network draw; deterministic given (config, seed)."""
    rng = np.random.default_rng(config.seed)
    macro_centers = _macro_grid(config)
    pico_parent = np.repeat(np.arange(config.n_macro), config.picos_per_macro)
    pico_offsets = _hex_offsets(rng, len(pico_parent), config.macro_spacing_m, config.pico_min_dist_m)
    bs_positions = np.vstack([macro_centers, macro_centers[pico_parent] + pico_offsets])
    bs_is_macro = np.arange(len(bs_positions)) < config.n_macro
    user_positions = place_users(config, bs_positions, bs_is_macro, rng)

    sq = _sq_distances(bs_positions, user_positions)
    user_cell = np.argmin(sq, axis=0).astype(int)
    if config.wrap_around:  # each axis wraps over the area plus a macro's corner distance
        lo = bs_positions.min(axis=0) - config.macro_spacing_m / _SQRT3
        hi = bs_positions.max(axis=0) + config.macro_spacing_m / _SQRT3
        sq = _sq_distances(bs_positions, user_positions, np.maximum(hi - lo, 1e-9))
    dist = np.maximum(np.sqrt(sq, out=sq), 1.0, out=sq)  # a 1 m floor keeps gains finite
    shadow_db = rng.standard_normal(dist.shape) * config.shadow_std_db
    gain = 10.0 ** (shadow_db / 10.0) * (config.pathloss_ref_m / dist) ** config.pathloss_exp

    network = Network(
        gain=gain,
        budget=_budget(config, bs_is_macro),
        noise_dl=np.full(config.n_users, config.noise),
        noise_ul=np.full(len(bs_is_macro), config.noise),
    )
    geometry = Geometry(
        bs_positions=bs_positions,
        bs_is_macro=bs_is_macro,
        bs_parent_macro=np.concatenate([np.arange(config.n_macro), pico_parent]),
        user_positions=user_positions,
        user_cell=user_cell,
    )
    return HetnetInstance(network=network, geometry=geometry)


def _budget(config: ScenarioConfig, bs_is_macro: np.ndarray) -> np.ndarray:
    """The per-BS budgets at ``config``'s SNR; ``snr_db`` enters a draw only here."""
    return np.where(bs_is_macro, config.macro_power, config.pico_power)


def scenario_to_json(config: ScenarioConfig) -> dict:
    return _to_json(config)


def scenario_from_json(doc: dict, **overrides) -> ScenarioConfig:
    """Build a config from a JSON document, with keyword overrides on top."""
    _check_document(doc, ScenarioConfig, "scenario")
    return ScenarioConfig(**{**doc, **overrides})


def geometry_to_json(geometry: Geometry) -> dict:
    return _to_json(geometry)
