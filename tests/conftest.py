"""Shared fixtures and seeded test-order randomization.

The ecosystem fixture is session-scoped: generating even a thinned
(6-snapshot) dataset takes a few seconds, and the analyses under test
are read-only.

Collection order is shuffled every run (module blocks are shuffled and
items shuffle within their module, so module-scoped fixtures still
build once).  The seed is printed in the pytest header; reproduce an
ordering with ``PYTEST_SHUFFLE_SEED=<seed>`` or opt out entirely with
``PYTEST_SHUFFLE_SEED=0``.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro import obs
from repro.constants import ContentType
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue, Video
from repro.obs.clock import FakeClock
from repro.synthesis.generator import generate_default_dataset

_SHUFFLE_ENV = "PYTEST_SHUFFLE_SEED"


def _shuffle_seed() -> int:
    """The order seed: from the environment, else freshly drawn."""
    raw = os.environ.get(_SHUFFLE_ENV, "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise pytest.UsageError(
                f"{_SHUFFLE_ENV} must be an integer, got {raw!r}"
            ) from None
    return int.from_bytes(os.urandom(4), "big") or 1


def pytest_configure(config):
    if not hasattr(config, "workerinput"):  # xdist workers inherit
        config._shuffle_seed = _shuffle_seed()


def pytest_report_header(config):
    seed = getattr(config, "_shuffle_seed", None)
    if not seed:
        return [f"test order: original ({_SHUFFLE_ENV}=0)"]
    return [
        f"test order: shuffled with seed {seed} "
        f"(reproduce with {_SHUFFLE_ENV}={seed})"
    ]


def pytest_collection_modifyitems(config, items):
    """Shuffle modules, classes within a module, items within a class.

    Module and class blocks stay contiguous so module- and class-scoped
    fixtures still build exactly once, while order coupling between
    tests, classes, and modules is still surfaced.
    """
    seed = getattr(config, "_shuffle_seed", None)
    if not seed:
        return  # PYTEST_SHUFFLE_SEED=0 keeps the original order
    shuffler = random.Random(seed)
    items[:] = _shuffled_blocks(
        items,
        lambda item: getattr(getattr(item, "module", None), "__name__", ""),
        lambda block: _shuffled_blocks(
            block,
            lambda item: getattr(
                getattr(item, "cls", None), "__name__", ""
            ),
            lambda leaf: shuffler.sample(leaf, len(leaf)),
            shuffler,
        ),
        shuffler,
    )


def _shuffled_blocks(items, key_of, shuffle_block, shuffler):
    """Group consecutive-key items, shuffle group order, recurse."""
    keys = []
    groups = {}
    for item in items:
        key = key_of(item)
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(item)
    shuffler.shuffle(keys)
    reordered = []
    for key in keys:
        reordered.extend(shuffle_block(groups[key]))
    return reordered


@pytest.fixture(scope="session")
def eco():
    """A small but fully featured synthetic ecosystem build."""
    return generate_default_dataset(seed=2018, snapshot_limit=6)


@pytest.fixture(scope="session")
def dataset(eco):
    return eco.dataset


@pytest.fixture(scope="session")
def latest(dataset):
    return dataset.latest()


@pytest.fixture
def global_obs():
    """Enable the process-global obs context with nothing recorded yet
    (earlier tests may leave spans behind); restore defaults after."""
    ctx = obs.configure(enabled=True, clock=FakeClock())
    ctx.reset()
    yield ctx
    ctx.configure(enabled=False)
    ctx.reset()
    ctx.seed = None


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def ladder():
    """A 5-rung h264 ladder following the HLS guidelines."""
    return BitrateLadder.from_bitrates((150, 300, 600, 1200, 2400))


@pytest.fixture
def video():
    return Video(
        video_id="vid_test_00001",
        duration_seconds=600.0,
        content_type=ContentType.VOD,
    )


@pytest.fixture
def catalogue(video):
    extra = Video(video_id="vid_test_00002", duration_seconds=1200.0)
    return Catalogue("test", [video, extra])
