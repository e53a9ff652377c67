"""Process-local metrics: counters, gauges, log-scale histograms.

A :class:`MetricsRegistry` hands out labeled instruments and renders a
deterministic JSON-able snapshot.  There are no dependencies and no
background threads: instruments are plain objects mutated in-process,
which is all a single-process reproduction pipeline needs.

Instruments are identified by ``(name, labels)``; asking twice for the
same identity returns the same object, which is what makes shared
accumulation work.  Histogram buckets are fixed log-scale bounds
chosen at construction, so merged snapshots are always comparable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

LabelSet = Tuple[Tuple[str, str], ...]


class MetricsError(ReproError):
    """An instrument was misused or misdeclared."""


def _label_set(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: LabelSet) -> str:
    """``name{k=v,...}`` — the snapshot key for one labeled series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def log_buckets(
    lo: float = 1e-6, hi: float = 1e4, per_decade: int = 2
) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per power of ten; the default spans
    microseconds to hours in 21 buckets, wide enough for both span
    durations (seconds) and retry attempt counts.
    """
    if lo <= 0 or hi <= lo:
        raise MetricsError("bucket range must satisfy 0 < lo < hi")
    if per_decade < 1:
        raise MetricsError("per_decade must be >= 1")
    bounds: List[float] = []
    start = math.floor(math.log10(lo) * per_decade)
    stop = math.ceil(math.log10(hi) * per_decade)
    for step in range(start, stop + 1):
        bounds.append(10.0 ** (step / per_decade))
    return tuple(bounds)


DEFAULT_BUCKETS = log_buckets()


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def count(self) -> int:
        """The value as an int (exact for unit increments)."""
        return int(self._value)

    def merge_from(self, other: "Counter") -> None:
        """Fold another counter in: totals add (commutative)."""
        self._value += other._value

    def snapshot(self) -> object:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A value that can go up and down (queue depths, open sessions)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def merge_from(self, other: "Gauge") -> None:
        """Fold another gauge in: high-water (max) semantics.

        "Last writer wins" has no meaning once writers run
        concurrently, so the merge keeps the maximum — commutative,
        associative, and equal to the serial value whenever every
        worker sets the gauge to the same deterministic level.
        """
        self._value = max(self._value, other._value)

    def snapshot(self) -> object:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Fixed-bucket log-scale histogram (no quantile sketching).

    ``bounds`` are upper bucket edges; one implicit overflow bucket
    catches everything above the last edge.  The snapshot reports
    cumulative-free per-bucket counts plus count/sum/min/max, enough to
    reconstruct coarse percentiles offline.
    """

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(
            b2 <= b1 for b1, b2 in zip(ordered, ordered[1:])
        ):
            raise MetricsError("histogram bounds must strictly increase")
        self.bounds = ordered
        self._counts = [0] * (len(ordered) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        self._counts[bisect_right(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram in bucket-wise.

        Requires identical bounds (buckets are fixed at construction
        precisely so merged snapshots stay comparable); counts and sums
        add, min/max combine.
        """
        if other.bounds != self.bounds:
            raise MetricsError(
                "cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} edges)"
            )
        self._counts = [
            a + b for a, b in zip(self._counts, other._counts)
        ]
        self._count += other._count
        self._sum += other._sum
        for value in (other._min, other._max):
            if value is None:
                continue
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def snapshot(self) -> object:
        buckets = {}
        for i, count in enumerate(self._counts):
            if count == 0:
                continue
            le = (
                f"{self.bounds[i]:g}" if i < len(self.bounds) else "+Inf"
            )
            buckets[le] = count
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": buckets,
        }

    def reset(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None


class _NoopInstrument:
    """Absorbs every instrument call; returned when obs is disabled."""

    kind = "noop"
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    bounds: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> object:
        return 0.0

    def reset(self) -> None:
        pass


NOOP_INSTRUMENT = _NoopInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Hands out labeled instruments and snapshots them as JSON.

    One name maps to one instrument kind; the same ``(name, labels)``
    always yields the same instrument object.  Descriptions are
    attached on first registration and surface in the taxonomy listing
    (``repro metrics``).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelSet], object] = {}
        self._kinds: Dict[str, str] = {}
        self._descriptions: Dict[str, str] = {}

    # -- instrument accessors -------------------------------------------

    def counter(
        self, name: str, description: str = "", **labels: object
    ) -> Counter:
        return self._get(name, "counter", description, labels)

    def gauge(
        self, name: str, description: str = "", **labels: object
    ) -> Gauge:
        return self._get(name, "gauge", description, labels)

    def histogram(
        self,
        name: str,
        description: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get(name, "histogram", description, labels, bounds)

    def _get(
        self,
        name: str,
        kind: str,
        description: str,
        labels: Mapping[str, object],
        bounds: Optional[Sequence[float]] = None,
    ):
        declared = self._kinds.get(name)
        if declared is not None and declared != kind:
            raise MetricsError(
                f"instrument {name!r} is a {declared}, not a {kind}"
            )
        key = (name, _label_set(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            if kind == "histogram":
                instrument = Histogram(bounds or DEFAULT_BUCKETS)
            else:
                instrument = _KINDS[kind]()
            self._instruments[key] = instrument
            self._kinds[name] = kind
            if description:
                self._descriptions[name] = description
        elif description and name not in self._descriptions:
            self._descriptions[name] = description
        return instrument

    # -- merge -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one.

        The parent side of a process-pool fan-out calls this once per
        worker capture, in unit-index order.  Counters add, histograms
        add bucket-wise, gauges keep the high-water mark — all
        commutative and associative, so the merged snapshot is
        invariant under merge order and, for counters and histograms,
        exactly equals the unsplit serial run.  Series missing on one
        side are adopted as-is; kind conflicts raise
        :class:`MetricsError` like any other misdeclaration.
        """
        for (name, labels), theirs in sorted(other._instruments.items()):
            mine = self._get(
                name,
                other._kinds[name],
                other._descriptions.get(name, ""),
                dict(labels),
                bounds=getattr(theirs, "bounds", None),
            )
            mine.merge_from(theirs)
        return self

    # -- introspection ---------------------------------------------------

    def series(self, name: str) -> Dict[LabelSet, object]:
        """Every labeled instrument registered under ``name``."""
        return {
            labels: instrument
            for (n, labels), instrument in self._instruments.items()
            if n == name
        }

    def series_values(self, name: str) -> Dict[str, float]:
        """``{label-value: count}`` for a single-label counter family."""
        out: Dict[str, float] = {}
        for labels, instrument in self.series(name).items():
            key = ",".join(v for _, v in labels) if labels else ""
            out[key] = getattr(instrument, "value", 0.0)
        return out

    def describe(self, name: str) -> str:
        return self._descriptions.get(name, "")

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def kind_of(self, name: str) -> str:
        try:
            return self._kinds[name]
        except KeyError:
            raise MetricsError(f"unknown instrument {name!r}") from None

    # -- snapshot --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic nested dict: kind -> series -> value."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        section = {
            "counter": "counters",
            "gauge": "gauges",
            "histogram": "histograms",
        }
        for (name, labels), instrument in sorted(self._instruments.items()):
            key = format_series(name, labels)
            out[section[self._kinds[name]]][key] = instrument.snapshot()
        return out

    def reset(self) -> None:
        for instrument in self._instruments.values():
            instrument.reset()
