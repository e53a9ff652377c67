"""Straightforward references that the vectorized kernels are checked against.

:func:`repro.playback.session.simulate_sessions` advances a whole batch
of sessions one chunk at a time with numpy, and
:meth:`repro.delivery.network.NetworkPath.sample_chunk_throughputs`
draws its congestion uniforms in blocks.  Both promise bit-identical
results to the straightforward per-chunk loops kept here: the
``playback-batch-vs-scalar`` oracle and the Hypothesis differential
suite compare the two exactly, floats and generator state included.

:class:`~repro.telemetry.dataset.Dataset` slices and aggregates on its
column store; :class:`RowDataset` does the same by scanning records,
and the ``row-vs-columnar`` oracle, the perf parity suite and
``benchmarks/bench_dataset.py`` compare the two.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.delivery.network import NetworkPath
from repro.entities.ladder import BitrateLadder
from repro.errors import DatasetError, DeliveryError
from repro.playback.abr import AbrAlgorithm, AbrState, ThroughputAbr
from repro.playback.session import SessionConfig, SessionResult
from repro.telemetry.columnar import ColumnKey, ColumnRef
from repro.telemetry.dataset import Dataset, GroupKey
from repro.telemetry.records import ViewRecord


def chunk_throughputs_per_chunk(
    path: NetworkPath,
    session_mean_kbps: float,
    n_chunks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-chunk throughputs with one ``rng.uniform()`` call per draw."""
    if session_mean_kbps <= 0:
        raise DeliveryError("session mean must be positive")
    if n_chunks < 1:
        raise DeliveryError("need at least one chunk")
    if path.within_session_cv == 0:
        throughputs = np.full(n_chunks, float(session_mean_kbps))
    else:
        sigma = np.sqrt(np.log(1.0 + path.within_session_cv**2))
        mu = np.log(session_mean_kbps) - sigma**2 / 2.0
        throughputs = np.exp(rng.normal(mu, sigma, size=n_chunks))
    if path.outage_prob > 0:
        congested = np.zeros(n_chunks, dtype=bool)
        exit_prob = 1.0 / path.outage_mean_chunks
        in_episode = False
        for i in range(n_chunks):
            if in_episode:
                congested[i] = True
                if rng.uniform() < exit_prob:
                    in_episode = False
            elif rng.uniform() < path.outage_prob:
                congested[i] = True
                in_episode = rng.uniform() >= exit_prob
        throughputs = np.where(
            congested, throughputs * path.outage_factor, throughputs
        )
    return throughputs


def simulate_session_scalar(
    ladder: BitrateLadder,
    path: NetworkPath,
    config: SessionConfig,
    rng: np.random.Generator,
    abr: Optional[AbrAlgorithm] = None,
    session_mean_kbps: Optional[float] = None,
) -> SessionResult:
    """One view, chunk by chunk, through :meth:`AbrAlgorithm.choose`."""
    abr = abr or ThroughputAbr()
    n_chunks = int(math.ceil(config.view_seconds / config.chunk_seconds))
    mean_kbps = (
        session_mean_kbps
        if session_mean_kbps is not None
        else path.sample_session_mean(rng)
    )
    throughputs = chunk_throughputs_per_chunk(path, mean_kbps, n_chunks, rng)

    buffer_seconds = 0.0
    rebuffer_seconds = 0.0
    startup_delay = 0.0
    played_weighted_kbps = 0.0
    switches = 0
    last_bitrate: Optional[float] = None
    ewma = throughputs[0]
    started = False

    for i in range(n_chunks):
        state = AbrState(
            buffer_seconds=buffer_seconds,
            last_throughput_kbps=float(throughputs[max(i - 1, 0)]),
            ewma_throughput_kbps=float(ewma),
        )
        rendition = abr.choose(ladder, state)
        if last_bitrate is not None and rendition.bitrate_kbps != last_bitrate:
            switches += 1
        last_bitrate = rendition.bitrate_kbps

        chunk_play_seconds = min(
            config.chunk_seconds,
            config.view_seconds - i * config.chunk_seconds,
        )
        download_seconds = (
            rendition.bitrate_kbps * config.chunk_seconds / throughputs[i]
        )
        if not started:
            startup_delay += download_seconds
            buffer_seconds += config.chunk_seconds
            if i + 1 >= config.startup_chunks:
                started = True
        else:
            if download_seconds > buffer_seconds:
                rebuffer_seconds += download_seconds - buffer_seconds
                buffer_seconds = 0.0
            else:
                buffer_seconds -= download_seconds
            buffer_seconds = min(
                buffer_seconds + config.chunk_seconds,
                config.max_buffer_seconds,
            )
        played_weighted_kbps += rendition.bitrate_kbps * chunk_play_seconds
        ewma = (
            config.ewma_alpha * throughputs[i]
            + (1 - config.ewma_alpha) * ewma
        )

    played_seconds = config.view_seconds
    total = played_seconds + rebuffer_seconds
    return SessionResult(
        average_bitrate_kbps=float(played_weighted_kbps / played_seconds),
        rebuffer_ratio=float(rebuffer_seconds / total),
        rebuffer_seconds=float(rebuffer_seconds),
        startup_delay_seconds=float(startup_delay),
        played_seconds=played_seconds,
        chunk_count=n_chunks,
        switches=switches,
    )


class RowDataset(Dataset):
    """The row-at-a-time reference for :class:`Dataset`.

    Every slice is a new ``RowDataset`` of the matching records, and
    every aggregation is a Python loop over them; nothing is memoized
    and the column store is never read.  A derived column splits a
    record with k values into k shares of 1/k, as the store does.
    """

    def snapshots(self) -> List[date]:
        return sorted({r.snapshot for r in self.records})

    def for_snapshot(self, snapshot: date) -> "RowDataset":
        subset = RowDataset(r for r in self.records if r.snapshot == snapshot)
        if not len(subset):
            raise DatasetError(f"no records for snapshot {snapshot}")
        return subset

    def filter(self, predicate: Callable[[ViewRecord], bool]) -> "RowDataset":
        return RowDataset(r for r in self.records if predicate(r))

    def exclude_publishers(self, publisher_ids: Iterable[str]) -> "RowDataset":
        excluded = frozenset(publisher_ids)
        return self.filter(lambda r: r.publisher_id not in excluded)

    def publishers(self) -> Set[str]:
        return {r.publisher_id for r in self.records}

    def distinct_video_ids(self, publisher_id: Optional[str] = None) -> int:
        return len(
            {
                r.video_id
                for r in self.records
                if publisher_id is None or r.publisher_id == publisher_id
            }
        )

    def publishers_per_value(self, key: ColumnRef) -> Dict[object, int]:
        sets: Dict[object, Set[str]] = {}
        for record in self.records:
            for value in _row_values(key, record):
                sets.setdefault(value, set()).add(record.publisher_id)
        return {value: len(pubs) for value, pubs in sets.items()}

    def values_per_publisher(self, key: ColumnRef) -> Dict[str, int]:
        sets: Dict[str, Set[object]] = {}
        for record in self.records:
            for value in _row_values(key, record):
                sets.setdefault(record.publisher_id, set()).add(value)
        return {pub: len(values) for pub, values in sets.items()}

    # _total and the field-key loop in _grouped keep the row path's
    # original per-record cost (for a field: a lambda and two getattrs):
    # bench_dataset.py's speedup floors and first-call ceiling are
    # calibrated against it.

    def _total(self, measure: str) -> float:
        if measure == "view_hours":
            return sum(r.view_hours for r in self.records)
        return sum(r.views for r in self.records)

    def _grouped(self, measure: str, key: GroupKey) -> Dict[object, float]:
        totals: Dict[object, float] = {}
        if isinstance(key, ColumnKey):
            for record in self.records:
                values = key.fn(record)
                for value in values:
                    totals[value] = totals.get(value, 0.0) + getattr(
                        record, measure
                    ) * (1.0 / len(values))
            return totals
        if callable(key):
            return super()._grouped(measure, key)
        fn = lambda record: getattr(record, key)  # noqa: E731
        for record in self.records:
            value = fn(record)
            if value is None:
                continue
            totals[value] = totals.get(value, 0.0) + getattr(record, measure)
        return totals


def _row_values(key: ColumnRef, record: ViewRecord) -> Tuple[object, ...]:
    """A column's values for one record; a ``None`` field is out of scope."""
    if isinstance(key, ColumnKey):
        return key.fn(record)
    value = getattr(record, key)
    return () if value is None else (value,)


__all__ = [
    "RowDataset",
    "chunk_throughputs_per_chunk",
    "simulate_session_scalar",
]
