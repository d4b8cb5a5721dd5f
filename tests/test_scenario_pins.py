"""Scenario generation, pinned bit for bit.

``data/scenario_pins.json`` holds one SHA-256 per config of a grid: 1, 3,
4, 9 and 19 macros × 0-3 picos per macro × 1, 6, 18 and 57 users × both
user layouts × ``wrap_around`` off and on × seeds 0-5, 1,920 draws at the
default 15 dB.  Each hash covers the dtype, shape and bytes of the draw's
``gain``, ``budget``, ``bs_positions``, ``user_positions``, ``user_cell``
and ``bs_parent_macro``, so any change of a distance, a nearest-BS test or
the random stream shows.

Regenerate the file only for an intended change of the draws, from the
repository root:

    PYTHONPATH=src python tests/test_scenario_pins.py
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from hetnet_maxmin.scenario import HetnetInstance, ScenarioConfig, generate_hetnet

from helpers import DATA

PINS = DATA / "scenario_pins.json"

GRID = list(itertools.product(
    (1, 3, 4, 9, 19), range(4), (1, 6, 18, 57), ("congested", "uni_in_cell"), (False, True), range(6)
))


def _name(n_macro, picos, users, layout, wrap, seed) -> str:
    return f"m{n_macro}_p{picos}_k{users}_{layout}_{'wrap' if wrap else 'flat'}_seed{seed}"


def draw_digest(inst: HetnetInstance) -> str:
    """SHA-256 over the dtype, shape and bytes of a draw's pinned arrays."""
    net, geo = inst.network, inst.geometry
    digest = hashlib.sha256()
    for array in (
        net.gain, net.budget, geo.bs_positions, geo.user_positions, geo.user_cell, geo.bs_parent_macro
    ):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def grid_digests() -> dict[str, str]:
    return {
        _name(*case): draw_digest(generate_hetnet(ScenarioConfig(
            n_macro=case[0], picos_per_macro=case[1], n_users=case[2], user_dist=case[3],
            wrap_around=case[4], seed=case[5],
        )))
        for case in GRID
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_grid(pins):
    assert len(pins) == len(GRID) == 1920
    assert set(pins) == {_name(*case) for case in GRID}


def test_every_draw_matches_its_pin(pins):
    mismatched = [name for name, digest in grid_digests().items() if pins[name] != digest]
    assert not mismatched, f"{len(mismatched)} draws changed, first {mismatched[:5]}"


if __name__ == "__main__":
    PINS.write_text(json.dumps(grid_digests(), indent=0) + "\n")
