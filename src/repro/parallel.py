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
chunking, and per-worker obs capture.  ``jobs=1`` is an exact
in-process serial run — no pool, no pickling — which keeps the serial
path the reference implementation the differential oracles compare
against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import accumulate
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


def chunk_sizes_for(units: int, jobs: int) -> List[int]:
    """Contiguous chunk sizes balancing dispatch cost against skew.

    Aims for ~4 chunks per worker (cheap units amortize their pickling
    and capture overhead; stragglers can still be rebalanced), with
    every chunk a contiguous run of unit indices so ordered collection
    is a plain concatenation.  ``units <= jobs`` degenerates to one
    unit per chunk.
    """
    jobs = parse_jobs(jobs)
    if units < 0:
        raise ParallelError(f"units must be >= 0, got {units}")
    if units == 0:
        return []
    size = max(1, units // (jobs * 4))
    sizes = [size] * (units // size)
    remainder = units - size * len(sizes)
    for index in range(remainder):
        sizes[index % len(sizes)] += 1
    return sizes


def _run_chunk(fn: Callable[[T], U], chunk: List[T]):
    """Worker entry point: run one contiguous chunk under capture.

    Returns ``(results, payload)`` where the payload carries every
    metric, span, and log line the chunk recorded (``None`` with
    observability off).  The capture makes the worker's use of the
    global obs context invisible to its caller: state flows in through
    the pickled arguments and out through the return value only.
    """
    return obs_worker.captured(lambda: [fn(item) for item in chunk])


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: int = 1,
    label: str = "parallel.map",
) -> List[U]:
    """Map a pure worker over units on a process pool, in order.

    ``fn`` must be picklable (a module-level function, possibly
    wrapped in :func:`functools.partial`) and pure in the RPL104
    sense.  Results come back in unit-index order regardless of
    scheduling; :func:`chunk_sizes_for` cuts the units into
    contiguous chunks.  ``jobs=1`` runs everything in-process with no
    capture indirection: the serial path *is* the reference.
    """
    jobs = parse_jobs(jobs)
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    bounds = list(accumulate(chunk_sizes_for(len(items), jobs), initial=0))
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with obs.span(label, jobs=jobs, units=len(items)) as span:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            packed = list(pool.map(partial(_run_chunk, fn), chunks))
        obs_worker.absorb([payload for _, payload in packed])
        results: List[U] = []
        for chunk_results, _ in packed:
            results.extend(chunk_results)
        span.set(chunks=len(chunks))
    return results


__all__ = [
    "ParallelError",
    "chunk_sizes_for",
    "parallel_map",
    "parse_jobs",
    "spawn_streams",
]
