"""``dlsuma`` at the benchmark's ``scale`` sizes, pinned bit for bit.

``data/scale_pins.json`` holds one SHA-256 per draw: the three layouts of
the ``scale`` workload (9 macros x 1 pico, 19 x 2 and 25 x 3, one user per
BS, so N = K = 18, 57 and 100), ``uni_in_cell`` at 35 dB, seeds 0-2.  Each
hash covers the answer's ``min_sinr`` and ``upper_bound``, every stage's
``iterations`` and ``gamma``, and the dtype, shape and bytes of the power
vector, so a change of any exact kernel's bits at these sizes shows.

At K = 100 OpenBLAS may split a product or a factorization across
threads; the pins hold at ``OPENBLAS_NUM_THREADS=1`` and ``=2``.

Regenerate the file only for an intended change of the answers, from the
repository root:

    PYTHONPATH=src python tests/test_scale_pins.py
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from hetnet_maxmin.scenario import ScenarioConfig, generate_hetnet
from hetnet_maxmin.twostage import TwoStageResult, dlsuma

from helpers import DATA

PINS = DATA / "scale_pins.json"

LAYOUTS = ((9, 1), (19, 2), (25, 3))
CASES = list(itertools.product(LAYOUTS, range(3)))


def _name(layout, seed) -> str:
    n_macro, picos = layout
    return f"m{n_macro}_p{picos}_k{n_macro * (1 + picos)}_seed{seed}"


def answer_digest(res: TwoStageResult) -> str:
    """SHA-256 over the pinned fields of a ``dlsuma`` answer."""
    digest = hashlib.sha256()
    values = [res.result.min_sinr, res.upper_bound]
    values += [value for stage in res.stages for value in (stage.iterations, stage.gamma)]
    digest.update(repr(values).encode())
    power = res.result.power
    digest.update(f"{power.dtype.str}{power.shape}".encode())
    digest.update(np.ascontiguousarray(power).tobytes())
    return digest.hexdigest()


def case_digest(layout, seed) -> str:
    n_macro, picos = layout
    config = ScenarioConfig(
        n_macro=n_macro, picos_per_macro=picos, n_users=n_macro * (1 + picos),
        snr_db=35.0, user_dist="uni_in_cell", seed=seed,
    )
    return answer_digest(dlsuma(generate_hetnet(config).network))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_cases(pins):
    assert set(pins) == {_name(*case) for case in CASES}


@pytest.mark.parametrize("layout,seed", CASES, ids=[_name(*case) for case in CASES])
def test_dlsuma_matches_its_pin(pins, layout, seed):
    assert case_digest(layout, seed) == pins[_name(layout, seed)]


if __name__ == "__main__":
    PINS.write_text(json.dumps({_name(*case): case_digest(*case) for case in CASES}, indent=0) + "\n")
