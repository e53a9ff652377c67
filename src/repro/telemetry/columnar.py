"""Column store behind :class:`~repro.telemetry.dataset.Dataset`.

A :class:`ColumnStore` mirrors one immutable tuple of
:class:`~repro.telemetry.records.ViewRecord` as NumPy arrays, built
lazily per column and shared by every view sliced from the same root
dataset.  Categorical fields (snapshot, publisher, video id, ...) are
interned into integer codes so group-bys reduce to ``np.bincount`` over
codes; numeric measures (view-hours, views) are plain float64 arrays.

Derived columns — values computed from a record rather than stored on
it, such as the protocol detected from the URL or the CDNs that served
the view — are registered through :class:`ColumnKey`: a *named* record
function returning a tuple of values.  The store evaluates the function
once per record on first use and memoizes the result under the key's
name, so every analysis that groups by the same derived key shares one
classification pass.

Group-bys run over :class:`Entries`: one (record, code) entry per value
in record-major order.  A record with k values has k entries, each
carrying 1/k of the record's measures — the even split §4.3 applies to
multi-CDN views.  A record with no value is out of scope and has no
entry, so a single-valued key is simply the k <= 1 case.

Everything here is immutable after construction of the record tuple:
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
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.telemetry.records import ViewRecord

#: Sentinel code for a stored field whose value is ``None``.
OUT_OF_SCOPE = -1


@dataclass(frozen=True)
class ColumnKey:
    """A named derived column.

    ``name`` identifies the column in the store's cache (two keys with
    the same name must compute the same values); ``fn`` maps a record
    to a tuple of hashable values, empty when the record is out of
    scope.
    """

    name: str
    fn: Callable[[ViewRecord], Tuple[object, ...]]

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

    def where(self, mask: Optional[np.ndarray]) -> "Entries":
        """The entries of the records ``mask`` keeps (all when None)."""
        if mask is None:
            return self
        keep = mask[self.rows]
        return Entries(
            self.rows[keep], self.codes[keep], self.values, self.shares[keep]
        )


class ColumnStore:
    """Lazily materialized column arrays over one record tuple."""

    def __init__(self, records: Tuple[ViewRecord, ...]) -> None:
        self.records = records
        #: Interned columns by name: ``(codes, values)`` for a stored
        #: field, :class:`Entries` for a derived column.
        self._codes: Dict[str, tuple] = {}
        self._numeric: Dict[str, np.ndarray] = {}
        self._field_entries: Dict[str, Entries] = {}

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    def numeric(self, name: str) -> np.ndarray:
        """A float64 measure column (``view_hours`` or ``views``)."""
        column = self._numeric.get(name)
        if column is None:
            # map(attrgetter) keeps the extraction loop in C; the
            # view-hours product is then a vectorized multiply instead
            # of a per-record Python float multiplication.
            if name == "view_hours":
                column = self.numeric("views") * self._pull(
                    "view_duration_hours"
                )
            elif name == "views":
                column = self._pull("weight")
            else:
                raise KeyError(f"unknown numeric column {name!r}")
            self._numeric[name] = column
        return column

    def _pull(self, attr: str) -> np.ndarray:
        """Extract one float attribute across all records."""
        return np.fromiter(
            map(attrgetter(attr), self.records),
            dtype=np.float64,
            count=len(self.records),
        )

    def field_codes(
        self, field: str
    ) -> Tuple[np.ndarray, Tuple[object, ...]]:
        """Interned codes of a stored record attribute, one per record;
        records whose value is ``None`` get :data:`OUT_OF_SCOPE`."""
        cached = self._codes.get(field)
        if cached is None:
            cached = self._intern(map(attrgetter(field), self.records))
            self._codes[field] = cached
        return cached

    def derived_codes(self, key: ColumnKey) -> Entries:
        """Interned entries of a derived column, memoized by name."""
        cached = self._codes.get(key.name)
        if cached is None:
            per_record = list(map(key.fn, self.records))
            counts = np.fromiter(
                map(len, per_record), dtype=np.int64, count=len(per_record)
            )
            codes, values = self._intern(chain.from_iterable(per_record))
            rows = np.repeat(np.arange(len(per_record)), counts)
            cached = Entries(rows, codes, values, 1.0 / counts[rows])
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

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _intern(
        self, values: Iterable[object]
    ) -> Tuple[np.ndarray, Tuple[object, ...]]:
        """Intern values to first-appearance codes, loops kept in C.

        ``dict.fromkeys`` collects the distinct values in first-
        appearance order without a Python-level loop; the code lookup
        then runs as ``map(lookup.__getitem__, ...)`` feeding
        ``np.fromiter``, so every pass over the values executes inside
        the interpreter's C machinery.  ``None`` (out of scope) is
        routed through the lookup table itself rather than a per-value
        branch.
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
