"""Column store behind :class:`~repro.telemetry.dataset.Dataset`.

A :class:`ColumnStore` holds one root dataset's records, either as a
:class:`~repro.telemetry.records.RecordColumns` batch (what synthesis
hands over) or as a tuple of
:class:`~repro.telemetry.records.ViewRecord` (what ingest, load and
tests hand over), and mirrors them as NumPy arrays, built lazily per
column and shared by every view sliced from the same root dataset.
Categorical fields (snapshot, publisher, video id, ...) are interned
into integer codes so group-bys reduce to ``np.bincount`` over codes;
numeric measures (view-hours, views) are plain float64 arrays.  A
batch-backed store builds its record tuple only when a caller asks for
records, and counts them in ``dataset.records_built``.

Derived columns — values computed from a stored field rather than
stored on it, such as the protocol detected from the URL or the
platform classified from the device model — are registered through
:class:`ColumnKey`: a *named* function of one value of its *source*
column, returning a tuple of values.  The store interns the source
first, calls the function once per distinct source value, and expands
the results to every record with numpy gathers; the column is memoized
under the key's name, so every analysis that groups by the same derived
key shares one classification pass.  A source may itself be a derived
key (HTTP-only protocols derive from all protocols), so a chain of keys
classifies each distinct URL once.

Group-bys run over :class:`Entries`: one (record, code) entry per value
in record-major order.  A record with k values has k entries, each
carrying 1/k of the record's measures — the even split §4.3 applies to
multi-CDN views.  A record with no value is out of scope and has no
entry, so a single-valued key is simply the k <= 1 case.

Everything here is immutable after construction of the store:
columns are only ever *added* to the caches, never changed, which is
why aggregation memoization in the dataset layer needs no invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.telemetry.records import RecordColumns, ViewRecord

#: Sentinel code for a stored field whose value is ``None``.
OUT_OF_SCOPE = -1

#: Float measure columns pulled from a record attribute, by name;
#: ``view_hours`` is the product of the two.
_PULLED = {"views": "weight", "view_duration_hours": "view_duration_hours"}


@dataclass(frozen=True)
class ColumnKey:
    """A named derived column.

    ``name`` identifies the column in the store's cache (two keys with
    the same name must compute the same values).  ``source`` is the
    column it derives from: a stored field name or another key.  ``fn``
    maps one value of the source to a tuple of hashable values, empty
    when that value is out of scope.
    """

    name: str
    source: ColumnRef
    fn: Callable[[object], Tuple[object, ...]]

    def __repr__(self) -> str:  # fn identity is noise in test output
        return f"ColumnKey({self.name!r})"


#: A grouping column: a stored record field name or a derived column.
ColumnRef = Union[str, ColumnKey]


class Entries(NamedTuple):
    """A column as (record, value) entries in record-major order.

    Entry ``i`` gives record ``rows[i]`` the value ``values[codes[i]]``
    and ``shares[i]`` of that record's measures.
    """

    rows: np.ndarray
    codes: np.ndarray
    values: Tuple[object, ...]
    shares: np.ndarray


class ColumnStore:
    """Lazily materialized column arrays over one batch or tuple of
    records."""

    def __init__(
        self, source: Union[RecordColumns, Tuple[ViewRecord, ...]]
    ) -> None:
        batch = isinstance(source, RecordColumns)
        self._batch: Optional[RecordColumns] = source if batch else None
        self._records: Optional[Tuple[ViewRecord, ...]] = (
            None if batch else source
        )
        self._length = len(source)
        #: Interned columns by name: ``(codes, values)`` for a stored
        #: field, :class:`Entries` for a derived column.
        self._codes: Dict[str, tuple] = {}
        self._numeric: Dict[str, np.ndarray] = {}
        self._field_entries: Dict[str, Entries] = {}

    def __len__(self) -> int:
        return self._length

    @property
    def records(self) -> Tuple[ViewRecord, ...]:
        """The records in order, built from the batch on first use."""
        if self._records is None:
            self._records = tuple(self._batch.records())
            obs.counter("dataset.records_built").inc(self._length)
        return self._records

    def _values(self, field: str) -> Iterable[object]:
        """One stored field's values in record order."""
        if self._batch is not None:
            return self._batch.column(field)
        return map(attrgetter(field), self._records)

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    def numeric(self, name: str) -> np.ndarray:
        """A float64 measure column: ``view_hours``, ``views`` or
        ``view_duration_hours``."""
        column = self._numeric.get(name)
        if column is None:
            if name != "view_hours" and name not in _PULLED:
                raise KeyError(f"unknown numeric column {name!r}")
            with obs.span("columnar.intern", column=name, records=len(self)):
                # np.fromiter keeps the extraction loop in C; the
                # view-hours product is then a vectorized multiply
                # instead of a per-record Python float multiplication.
                if name == "view_hours":
                    column = self.numeric("views") * self.numeric(
                        "view_duration_hours"
                    )
                else:
                    column = self._pull(_PULLED[name])
            self._numeric[name] = column
        return column

    def _pull(self, attr: str) -> np.ndarray:
        """Extract one float attribute across all records."""
        return np.fromiter(
            self._values(attr), dtype=np.float64, count=len(self)
        )

    def field_codes(
        self, field: str
    ) -> Tuple[np.ndarray, Tuple[object, ...]]:
        """Interned codes of a stored record attribute, one per record;
        records whose value is ``None`` get :data:`OUT_OF_SCOPE`."""
        cached = self._codes.get(field)
        if cached is None:
            with obs.span(
                "columnar.intern", column=field, records=len(self)
            ) as span:
                cached = _intern(self._values(field))
                span.set(distinct=len(cached[1]))
            self._codes[field] = cached
        return cached

    def derived_codes(self, key: ColumnKey) -> Entries:
        """Interned entries of a derived column, memoized by name.

        The key's function runs once per distinct value of its source,
        not once per record.
        """
        cached = self._codes.get(key.name)
        if cached is None:
            with obs.span(
                "columnar.intern", column=key.name, records=len(self)
            ) as span:
                source = self.entries(key.source)
                cached = _expand(
                    source, list(map(key.fn, source.values)), len(self)
                )
                span.set(distinct=len(source.values))
            obs.counter("columnar.classified").inc(len(source.values))
            self._codes[key.name] = cached
        return cached

    def entries(self, key: ColumnRef) -> Entries:
        """Entries of a derived column, or of a stored field (one per
        record whose value is not ``None``, with share 1)."""
        if isinstance(key, ColumnKey):
            return self.derived_codes(key)
        cached = self._field_entries.get(key)
        if cached is None:
            codes, values = self.field_codes(key)
            rows = np.flatnonzero(codes != OUT_OF_SCOPE)
            cached = Entries(rows, codes[rows], values, np.ones(len(rows)))
            self._field_entries[key] = cached
        return cached


def _intern(
    values: Iterable[object],
) -> Tuple[np.ndarray, Tuple[object, ...]]:
    """Intern values to first-appearance codes, loops kept in C.

    ``dict.fromkeys`` collects the distinct values in first-appearance
    order without a Python-level loop; the code lookup then runs as
    ``map(lookup.__getitem__, ...)`` feeding ``np.fromiter``, so every
    pass over the values executes inside the interpreter's C machinery.
    ``None`` (out of scope) is routed through the lookup table itself
    rather than a per-value branch.
    """
    materialized = list(values)
    uniques = dict.fromkeys(materialized)
    uniques.pop(None, None)
    lookup: Dict[object, int] = {
        value: code for code, value in enumerate(uniques)
    }
    ordered = tuple(lookup)
    lookup[None] = OUT_OF_SCOPE
    codes = np.fromiter(
        map(lookup.__getitem__, materialized),
        dtype=np.int64,
        count=len(materialized),
    )
    return codes, ordered


def _expand(
    source: Entries, derived: List[Tuple[object, ...]], n_records: int
) -> Entries:
    """Entries of a column whose source value ``j`` maps to
    ``derived[j]``: each source entry becomes one entry per derived
    value, in order, and a record's k entries carry 1/k each.

    Source codes are in first-appearance order, so interning the
    derived tuples in source-code order gives the derived values in
    the order they first appear record by record.
    """
    lengths = np.fromiter(
        map(len, derived), dtype=np.int64, count=len(derived)
    )
    flat, values = _intern(chain.from_iterable(derived))
    per_entry = lengths[source.codes]
    rows = np.repeat(source.rows, per_entry)
    # Output position q of source entry e reads flat[start(e) + q - P(e)],
    # where P(e) is e's first output position.
    starts = np.cumsum(lengths) - lengths
    first = np.cumsum(per_entry) - per_entry
    offsets = np.repeat(starts[source.codes] - first, per_entry)
    codes = flat[offsets + np.arange(len(rows))]
    counts = np.bincount(rows, minlength=n_records)
    return Entries(rows, codes, values, 1.0 / counts[rows])


def grouped_sum(entries: Entries, measure: np.ndarray) -> Dict[object, float]:
    """Sum each entry's share of its record's ``measure`` per value.

    Values with no entry are absent from the result; values whose
    entries sum to zero are kept at 0.0.  ``bincount`` adds in entry
    order, so a value's total accumulates record by record.
    """
    sums = np.bincount(
        entries.codes,
        weights=measure[entries.rows] * entries.shares,
        minlength=len(entries.values),
    )
    present = np.bincount(entries.codes, minlength=len(entries.values))
    return {
        entries.values[i]: float(sums[i])
        for i in np.flatnonzero(present > 0)
    }


def distinct_pair_counts(
    codes_a: np.ndarray, n_a: int, codes_b: np.ndarray, n_b: int
) -> np.ndarray:
    """Distinct ``b`` codes paired with each ``a`` code (length ``n_a``).

    Backs "distinct publishers per value" and "distinct values per
    publisher" counts without building per-group Python sets.
    """
    stride = np.int64(max(n_b, 1))
    pairs = np.unique(codes_a * stride + codes_b)
    return np.bincount(pairs // stride, minlength=n_a)


def pair_sums(
    codes_a: np.ndarray, codes_b: np.ndarray, n_b: int, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``weights`` per distinct ``(a, b)`` code pair.

    Returns each pair's ``a`` code, ``b`` code and sum, pairs in order
    of first appearance; ``bincount`` adds each pair's weights in entry
    order.
    """
    stride = np.int64(max(n_b, 1))
    keys, first, inverse = np.unique(
        codes_a * stride + codes_b, return_index=True, return_inverse=True
    )
    sums = np.bincount(inverse, weights=weights, minlength=len(keys))
    order = np.argsort(first)
    return keys[order] // stride, keys[order] % stride, sums[order]


def record_codes(entries: Entries, n_records: int) -> np.ndarray:
    """Each record's code in the entries of a stored field (one entry
    per record whose value is not ``None``), :data:`OUT_OF_SCOPE` for a
    record with none."""
    codes = np.full(n_records, OUT_OF_SCOPE, dtype=np.int64)
    codes[entries.rows] = entries.codes
    return codes


def truthy(entries: Entries, n_records: int) -> np.ndarray:
    """Per record, whether its value of a stored field is truthy
    (``None`` is not); the truth test runs once per distinct value."""
    # The appended False is what OUT_OF_SCOPE (-1) reads.
    table = np.array([bool(v) for v in entries.values] + [False])
    return table[record_codes(entries, n_records)]


def first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct ``codes`` in order of first appearance."""
    uniques, first = np.unique(codes, return_index=True)
    return uniques[np.argsort(first)]


def code_of(values: Tuple[object, ...], value: object) -> int:
    """``value``'s code in an interned value table, or
    :data:`OUT_OF_SCOPE` when it has none."""
    return values.index(value) if value in values else OUT_OF_SCOPE
