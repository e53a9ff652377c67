"""The shared process-pool execution layer.

Unit coverage for :mod:`repro.parallel` (jobs validation, ordered
collection, seed spawning) plus the standing determinism
contract: merged observability from a pooled map equals the serial
run's.  The ``jobs``-capable entry points (figure suite, testkit
matrix) are pinned byte-identical in ``tests/test_parallel_suite.py``.
"""

import numpy as np
import pytest

from repro import obs
from repro.errors import ParallelError
from repro.parallel import parallel_map, parse_jobs, spawn_streams
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator

pytestmark = pytest.mark.perf


class TestParseJobs:
    def test_accepts_ints_and_int_strings(self):
        assert parse_jobs(1) == 1
        assert parse_jobs(8) == 8
        assert parse_jobs("4") == 4
        assert parse_jobs(" 2 ") == 2

    @pytest.mark.parametrize("bad", [0, -1, -100, "0", "-3"])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ParallelError):
            parse_jobs(bad)

    @pytest.mark.parametrize("bad", [True, False, 1.5, "1.5", "four", None, ""])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ParallelError):
            parse_jobs(bad)


def _square(value: int) -> int:
    return value * value


def _observed_square(value: int) -> int:
    obs.counter("test.parallel_units").inc()
    return value * value


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_path_preserves_order(self):
        items = list(range(23))
        assert parallel_map(_square, items, jobs=2) == [
            i * i for i in items
        ]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ParallelError):
            parallel_map(_square, [1], jobs=0)

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    @pytest.mark.obs
    def test_worker_counters_merge_to_serial_totals(self):
        # 40 units on 2 workers: chunks of 5, so each worker process
        # runs several captured units back to back.
        items = list(range(40))
        obs.configure(enabled=True)
        try:
            obs.metrics().reset()
            serial = parallel_map(_observed_square, items, jobs=1)
            serial_count = obs.counter("test.parallel_units").value
            obs.metrics().reset()
            pooled = parallel_map(_observed_square, items, jobs=2)
            pooled_count = obs.counter("test.parallel_units").value
        finally:
            obs.configure(enabled=False)
        assert pooled == serial
        assert serial_count == pooled_count == 40.0


class TestSpawnStreams:
    def test_streams_are_distinct_and_deterministic(self):
        first = spawn_streams(7, 4)
        second = spawn_streams(7, 4)
        assert len(first) == 4
        for a, b in zip(first, second):
            assert (
                np.random.default_rng(a).integers(1 << 30)
                == np.random.default_rng(b).integers(1 << 30)
            )
        draws = {
            int(np.random.default_rng(s).integers(1 << 30)) for s in first
        }
        assert len(draws) == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ParallelError):
            spawn_streams(7, -1)


class TestGeneratorJobs:
    """``EcosystemGenerator.generate`` checks ``jobs`` through
    :func:`parse_jobs`, like every other fan-out entry point."""

    CONFIG = EcosystemConfig(seed=2018, snapshot_limit=2, n_publishers=20)

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "two"])
    def test_bad_jobs_raise_parallel_error(self, bad):
        with pytest.raises(ParallelError):
            EcosystemGenerator(self.CONFIG).generate(jobs=bad)

    def test_integer_string_is_accepted(self):
        by_string = EcosystemGenerator(self.CONFIG).generate(jobs=" 1 ")
        by_int = EcosystemGenerator(self.CONFIG).generate(jobs=1)
        assert by_string.dataset.records == by_int.dataset.records
