"""Shared process-pool execution layer for every ``--jobs`` fan-out.

The pipeline's hot paths — snapshot synthesis, the testkit oracle
matrix, per-session playback — are all embarrassingly parallel *if*
three disciplines hold (DESIGN.md §14):

1. **Worker purity.**  A unit function must be a pure function of its
   pickled arguments; per-process memo caches are expressed as
   ``functools.lru_cache`` over pure builders (the form repgraph's
   RPL104 can prove safe), warmed in the parent before the pool is
   created so forked workers inherit them.
2. **Seed-spawn discipline.**  Any randomness consumed inside a unit
   derives from a per-unit ``np.random.SeedSequence`` child
   (:func:`spawn_streams`), never from a stream shared across units —
   RPL102's invariant — which is what makes a parallel run
   byte-identical to the serial one.
3. **Deterministic merge.**  Workers return what they recorded
   (results, metrics, spans, log lines); the parent folds captures
   back in unit-index order via :mod:`repro.obs.worker`, so
   observability-on output is independent of worker scheduling.

:func:`parallel_map` packages all three: ordered result collection
over a :class:`~concurrent.futures.ProcessPoolExecutor`, contiguous
chunking, and per-unit obs capture.  ``jobs=1`` is an exact
in-process serial run — no pool, no pickling — which keeps the serial
path the reference implementation the differential oracles compare
against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, List, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import ParallelError
from repro.obs import worker as obs_worker

T = TypeVar("T")
U = TypeVar("U")


def parse_jobs(value: object) -> int:
    """Validate a ``--jobs``/``jobs=`` value into a positive int.

    The one shared gate for every fan-out entry point (CLI flags and
    library ``jobs=`` parameters alike): accepts positive integers and
    integer-valued strings, rejects everything else — booleans,
    floats, zero, negatives — with a :class:`ParallelError` naming the
    offending value instead of letting a bad count fall through to
    confusing pool behavior.
    """
    if isinstance(value, bool):
        raise ParallelError(f"jobs must be an integer, got {value!r}")
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise ParallelError(
                f"jobs must be an integer, got {value!r}"
            ) from None
    if not isinstance(value, int):
        raise ParallelError(f"jobs must be an integer, got {value!r}")
    if value < 1:
        raise ParallelError(f"jobs must be >= 1, got {value}")
    return value


def spawn_streams(seed: int, units: int) -> List[np.random.SeedSequence]:
    """One independent child ``SeedSequence`` per unit of work.

    The spawn happens once, in the parent, before any fan-out: child
    streams are a pure function of ``(seed, index)``, so a unit draws
    the same values no matter which worker runs it or in what order.
    """
    if units < 0:
        raise ParallelError(f"units must be >= 0, got {units}")
    return np.random.SeedSequence(seed).spawn(units)


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: int = 1,
    label: str = "parallel.map",
) -> List[U]:
    """Map a pure worker over units on a process pool, in order.

    ``fn`` must be picklable (a module-level function, possibly
    wrapped in :func:`functools.partial`) and pure in the RPL104
    sense.  ``Executor.map`` sends the units in contiguous chunks of
    about a quarter of a worker's share, each unit runs under its own
    obs capture, and results and captures come back in unit-index
    order regardless of scheduling.  ``jobs=1`` runs everything
    in-process with no capture indirection: the serial path *is* the
    reference.
    """
    jobs = parse_jobs(jobs)
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    run_unit = partial(obs_worker.captured, fn)
    chunksize = max(1, len(items) // (4 * jobs))
    with obs.span(label, jobs=jobs, units=len(items)):
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            packed = list(pool.map(run_unit, items, chunksize=chunksize))
        obs_worker.absorb([payload for _, payload in packed])
    return [result for result, _ in packed]


__all__ = [
    "ParallelError",
    "parallel_map",
    "parse_jobs",
    "spawn_streams",
]
