"""The Dataset container: a queryable collection of view records.

The analyses slice the dataset the way §3 describes: by snapshot, by
publisher, by any record attribute — and aggregate by view-hours, by
views, or by distinct video IDs.  Persistence is line-delimited JSON
(gzipped when the path ends in ``.gz``).

Every dataset runs on a :class:`~repro.telemetry.columnar.ColumnStore`.
A dataset built from a :class:`~repro.telemetry.records.RecordColumns`
batch (synthesis builds one) checks it column by column and keeps it:
its records are built only for the calls that hand records out
(``records``, iteration, ``filter``, ``explode``, ``save``).
Slicing is **zero-copy**: ``filter``/``for_snapshot``/
``exclude_publishers`` return views that share the parent's store plus
a boolean mask, so stacking slices never re-materializes record tuples.
Aggregations whose grouping key is a column (a record field name or a
:class:`~repro.telemetry.columnar.ColumnKey`) are vectorized
``bincount`` group-bys over interned codes, memoized per (view, key) —
safe because stores are immutable.  Analyses that need more than a
group-by read a view's columns directly: :meth:`Dataset.entries` and
:meth:`Dataset.measure`.  Only opaque Python runs row at a time:
``filter`` predicates and callable group-by keys.
``dataset.columnar_hits`` / ``dataset.row_fallbacks`` count the two
kinds of dispatch, and :class:`repro.testkit.reference.RowDataset` is
the row-at-a-time reference the vectorized code is tested against.
"""

from __future__ import annotations

import dataclasses
import gzip
import io
import zlib
from contextlib import nullcontext
from datetime import date
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.errors import DatasetError
from repro.telemetry.columnar import (
    ColumnKey,
    ColumnRef,
    ColumnStore,
    Entries,
    code_of,
    distinct_pair_counts,
    grouped_sum,
)
from repro.telemetry.records import RecordColumns, ViewRecord

#: A grouping key: record field name, named derived column, or callable.
GroupKey = Union[str, ColumnKey, Callable[[ViewRecord], object]]

#: Records per write batch in :meth:`Dataset.save`.
_SAVE_BATCH = 4096


class Dataset:
    """An immutable collection of weighted view records."""

    def __init__(
        self, records: Union[RecordColumns, Iterable[ViewRecord]]
    ) -> None:
        """A dataset of ``records``: view records, or a batch of
        columns, which the dataset takes over.  A batch is checked as
        building its records would check them, and raises the same
        :class:`DatasetError`."""
        source: Union[RecordColumns, Tuple[ViewRecord, ...]]
        if isinstance(records, RecordColumns):
            records.check()
            source = records
        else:
            source = tuple(records)
        self._records: Optional[Tuple[ViewRecord, ...]] = None
        self._store = ColumnStore(source)
        self._mask: Optional[np.ndarray] = None
        self._length = len(source)
        self._init_caches()

    def _init_caches(self) -> None:
        self._snapshots_cache: Optional[Tuple[date, ...]] = None
        self._snapshot_views: Dict[date, "Dataset"] = {}
        self._exclude_views: Dict[FrozenSet[str], "Dataset"] = {}
        self._agg_cache: Dict[Tuple[str, object], object] = {}

    @classmethod
    def _view(cls, store: ColumnStore, mask: np.ndarray) -> "Dataset":
        """A zero-copy slice sharing ``store`` under a boolean mask."""
        view = cls.__new__(cls)
        view._records = None
        view._store = store
        view._mask = mask
        view._length = int(mask.sum())
        view._init_caches()
        return view

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[ViewRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return (
            f"Dataset({len(self)} records, "
            f"{len(self.snapshots())} snapshots, "
            f"{len(self.publishers())} publishers)"
        )

    @property
    def records(self) -> Tuple[ViewRecord, ...]:
        if self._records is None:
            parent = self._store.records
            self._records = (
                parent
                if self._mask is None
                else tuple(parent[i] for i in np.flatnonzero(self._mask))
            )
        return self._records

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------

    def snapshots(self) -> List[date]:
        """Sorted distinct snapshot dates."""
        if self._snapshots_cache is None:
            codes, values = self._field_codes("snapshot")
            self._snapshots_cache = tuple(
                sorted(values[i] for i in np.unique(codes))
            )
        return list(self._snapshots_cache)

    def latest_snapshot(self) -> date:
        snapshots = self.snapshots()
        if not snapshots:
            raise DatasetError("dataset is empty")
        return snapshots[-1]

    def first_snapshot(self) -> date:
        snapshots = self.snapshots()
        if not snapshots:
            raise DatasetError("dataset is empty")
        return snapshots[0]

    def for_snapshot(self, snapshot: date) -> "Dataset":
        """Sub-dataset of one snapshot (a zero-copy mask view)."""
        cached = self._snapshot_views.get(snapshot)
        if cached is not None:
            return cached
        codes, values = self._store.field_codes("snapshot")
        mask = codes == code_of(values, snapshot)
        if self._mask is not None:
            mask &= self._mask
        if not mask.any():
            raise DatasetError(f"no records for snapshot {snapshot}")
        obs.counter("dataset.columnar_hits").inc()
        view = Dataset._view(self._store, mask)
        self._snapshot_views[snapshot] = view
        return view

    def latest(self) -> "Dataset":
        return self.for_snapshot(self.latest_snapshot())

    def filter(self, predicate: Callable[[ViewRecord], bool]) -> "Dataset":
        """Records satisfying an arbitrary predicate.

        The predicate runs row-at-a-time (it is opaque Python), but the
        result is still a mask view — no record tuple is copied.
        """
        obs.counter("dataset.row_fallbacks").inc()
        parent = self._store.records
        mask = np.zeros(len(parent), dtype=bool)
        indices = (
            np.flatnonzero(self._mask)
            if self._mask is not None
            else range(len(parent))
        )
        for i in indices:
            if predicate(parent[i]):
                mask[i] = True
        return Dataset._view(self._store, mask)

    def exclude_publishers(self, publisher_ids: Iterable[str]) -> "Dataset":
        """Drop named publishers — the Figs 2c/6b 'remove the top N' cut."""
        excluded = frozenset(publisher_ids)
        cached = self._exclude_views.get(excluded)
        if cached is not None:
            return cached
        codes, values = self._store.field_codes("publisher_id")
        banned = np.array(
            [i for i, v in enumerate(values) if v in excluded],
            dtype=np.int64,
        )
        mask = ~np.isin(codes, banned)
        if self._mask is not None:
            mask &= self._mask
        obs.counter("dataset.columnar_hits").inc()
        view = Dataset._view(self._store, mask)
        self._exclude_views[excluded] = view
        return view

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def publishers(self) -> Set[str]:
        cached = self._agg_cache.get(("publishers", None))
        if cached is None:
            codes, values = self._field_codes("publisher_id")
            cached = {values[i] for i in np.unique(codes)}
            self._agg_cache[("publishers", None)] = cached
        return set(cached)

    def total_view_hours(self) -> float:
        return self._total("view_hours")

    def total_views(self) -> float:
        return self._total("views")

    def view_hours_by(self, key: GroupKey) -> Dict[object, float]:
        """Sum view-hours grouped by a field, column key, or callable."""
        return self._grouped("view_hours", key)

    def views_by(self, key: GroupKey) -> Dict[object, float]:
        """Sum views grouped by a field, column key, or callable."""
        return self._grouped("views", key)

    def publisher_view_hours(self) -> Dict[str, float]:
        """View-hours per publisher — the paper's size proxy."""
        return {
            str(k): v for k, v in self.view_hours_by("publisher_id").items()
        }

    def top_publishers(self, n: int) -> List[str]:
        """The n publishers with the most view-hours."""
        if n < 0:
            raise DatasetError("n must be non-negative")
        totals = self.publisher_view_hours()
        ranked = sorted(totals, key=lambda p: totals[p], reverse=True)
        return ranked[:n]

    def distinct_video_ids(self, publisher_id: Optional[str] = None) -> int:
        """Distinct video IDs, optionally for one publisher (§3 notes
        this measure is an under-estimate where coverage is partial)."""
        cache_key = ("distinct_video_ids", publisher_id)
        cached = self._agg_cache.get(cache_key)
        if cached is None:
            obs.counter("dataset.columnar_hits").inc()
            codes, _ = self._field_codes("video_id")
            if publisher_id is not None:
                pub_codes, pub_values = self._field_codes("publisher_id")
                codes = codes[pub_codes == code_of(pub_values, publisher_id)]
            cached = int(np.unique(codes).size)
            self._agg_cache[cache_key] = cached
        return cached

    def publishers_per_value(self, key: ColumnRef) -> Dict[object, int]:
        """Distinct publishers observed per value of ``key``.

        Backs the "% of publishers supporting X" series without
        building per-value publisher sets.
        """
        cache_key = ("publishers_per_value", _cache_token(key))
        cached = self._agg_cache.get(cache_key)
        if cached is None:
            obs.counter("dataset.columnar_hits").inc()
            entries = self.entries(key)
            p_codes, p_values = self._field_codes("publisher_id")
            counts = distinct_pair_counts(
                entries.codes, len(entries.values),
                p_codes[entries.rows], len(p_values),
            )
            cached = {
                entries.values[i]: int(counts[i])
                for i in np.flatnonzero(counts > 0)
            }
            self._agg_cache[cache_key] = cached
        return dict(cached)

    def values_per_publisher(self, key: ColumnRef) -> Dict[str, int]:
        """Distinct values of ``key`` observed per publisher.

        Backs the Figs 3a/9a/12a per-publisher instance counts.
        """
        cache_key = ("values_per_publisher", _cache_token(key))
        cached = self._agg_cache.get(cache_key)
        if cached is None:
            obs.counter("dataset.columnar_hits").inc()
            entries = self.entries(key)
            p_codes, p_values = self._field_codes("publisher_id")
            counts = distinct_pair_counts(
                p_codes[entries.rows], len(p_values),
                entries.codes, len(entries.values),
            )
            cached = {
                str(p_values[i]): int(counts[i])
                for i in np.flatnonzero(counts > 0)
            }
            self._agg_cache[cache_key] = cached
        return dict(cached)

    def entries(self, key: ColumnRef) -> Entries:
        """This view's (record, value) entries of a stored field or
        derived column, in record order.

        ``rows`` index the view's records, as :meth:`measure` does, and
        ``codes`` index ``values``.  A stored field that is never
        ``None`` (publisher, snapshot, URL, device model, ...) has one
        entry per record, so its ``codes`` align with the records.
        """
        entries = self._store.entries(key)
        if self._mask is None:
            return entries
        keep = self._mask[entries.rows]
        position = np.cumsum(self._mask) - 1
        return Entries(
            position[entries.rows[keep]],
            entries.codes[keep],
            entries.values,
            entries.shares[keep],
        )

    def measure(self, name: str) -> np.ndarray:
        """A float column of this view, one value per record:
        ``view_hours``, ``views`` or ``view_duration_hours``."""
        column = self._store.numeric(name)
        return column if self._mask is None else column[self._mask]

    def explode(self) -> "Dataset":
        """Expand weighted records into unit-weight records.

        Weights must be integral.  Analyses are invariant under this
        transformation (property-tested); it exists to validate the
        weighted representation and for the weighting ablation bench.
        """
        exploded: List[ViewRecord] = []
        for record in self.records:
            weight = record.weight
            if abs(weight - round(weight)) > 1e-9:
                raise DatasetError(
                    f"cannot explode non-integral weight {weight}"
                )
            unit = dataclasses.replace(record, weight=1.0)
            exploded.extend([unit] * int(round(weight)))
        return type(self)(exploded)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the dataset as JSONL (.gz for gzip compression).

        Lines are encoded and written :data:`_SAVE_BATCH` records at a
        time.  A ``.gz`` file is gzip level 9 with an empty name and a
        zero timestamp in its header, so one dataset always saves to
        the same bytes, whatever the file is called and whenever it is
        written.
        """
        path = Path(path)
        records = self.records
        with obs.span("dataset.save", records=len(records)) as span:
            with open(path, "wb") as raw:
                with (
                    gzip.GzipFile(
                        filename="", mode="wb", compresslevel=9,
                        fileobj=raw, mtime=0,
                    )
                    if path.suffix == ".gz"
                    else nullcontext(raw)
                ) as handle:
                    for start in range(0, len(records), _SAVE_BATCH):
                        handle.write(
                            encode_lines(records[start:start + _SAVE_BATCH])
                        )
                span.set(bytes=raw.tell())

    @classmethod
    def load(
        cls, path: Union[str, Path], limit: Optional[int] = None
    ) -> "Dataset":
        """Load a dataset previously written by :meth:`save`.

        ``limit`` stops after that many records — a fast path for
        benches and smoke tests over large files.  ``limit=0`` is an
        explicit empty load; a negative limit is rejected rather than
        silently truncating to nothing.
        """
        if limit is not None and limit < 0:
            raise DatasetError(f"load limit must be >= 0, got {limit}")
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"dataset file not found: {path}")
        opener = gzip.open if path.suffix == ".gz" else io.open
        records: List[ViewRecord] = []
        with obs.span("dataset.load") as span:
            try:
                with opener(path, "rt", encoding="utf-8") as handle:
                    for line_number, line in enumerate(handle, start=1):
                        if limit is not None and len(records) >= limit:
                            break
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            records.append(ViewRecord.from_json(line))
                        except DatasetError as exc:
                            raise DatasetError(
                                f"{path}:{line_number}: {exc}"
                            ) from exc
            # A directory, a truncated or corrupt gzip stream, or bytes
            # that are not UTF-8.
            except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
                raise DatasetError(
                    f"{path}: unreadable dataset file: {exc}"
                ) from exc
            span.set(records=len(records), bytes=path.stat().st_size)
            return cls(records)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _field_codes(
        self, field: str
    ) -> Tuple[np.ndarray, Tuple[object, ...]]:
        """This view's per-record codes of a stored field, and its values."""
        codes, values = self._store.field_codes(field)
        if self._mask is not None:
            codes = codes[self._mask]
        return codes, values

    def _total(self, measure: str) -> float:
        cache_key = ("total", measure)
        cached = self._agg_cache.get(cache_key)
        if cached is None:
            cached = float(np.sum(self.measure(measure)))
            self._agg_cache[cache_key] = cached
        return cached

    def _grouped(self, measure: str, key: GroupKey) -> Dict[object, float]:
        if callable(key) and not isinstance(key, ColumnKey):
            # Opaque callables keep their historical semantics exactly:
            # every return value (including None) is a group.
            obs.counter("dataset.row_fallbacks").inc()
            totals: Dict[object, float] = {}
            for record in self.records:
                value = key(record)
                totals[value] = totals.get(value, 0.0) + getattr(
                    record, measure
                )
            return totals
        cache_key = (measure, _cache_token(key))
        cached = self._agg_cache.get(cache_key)
        if cached is None:
            obs.counter("dataset.columnar_hits").inc()
            cached = grouped_sum(self.entries(key), self.measure(measure))
            self._agg_cache[cache_key] = cached
        return dict(cached)


def encode_lines(records: Sequence[ViewRecord]) -> bytes:
    """The bytes :meth:`Dataset.save` writes for ``records`` before
    compression: one JSON object per line, each line ending in ``\n``."""
    if not records:
        return b""
    return ("\n".join(map(ViewRecord.to_json, records)) + "\n").encode("utf-8")


def _cache_token(key: ColumnRef) -> object:
    """Hashable cache identity of a column."""
    return key.name if isinstance(key, ColumnKey) else key
