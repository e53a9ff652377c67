"""Unit conversions and small numeric helpers.

The paper mixes units freely — bitrates in kbps (Fig 17), storage in TB
(Fig 18), view durations in hours (Fig 8), chunk durations in seconds.
Centralizing the conversions keeps the arithmetic auditable.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Iterator

BITS_PER_BYTE = 8
KBPS = 1_000  # bits per second in one kbps
SECONDS_PER_HOUR = 3_600.0
BYTES_PER_TB = 10**12  # decimal terabyte, as used by CDN storage pricing


def kbps_to_bytes_per_second(kbps: float) -> float:
    """Convert a bitrate in kbps to a storage rate in bytes/second."""
    if kbps < 0:
        raise ValueError(f"bitrate must be non-negative, got {kbps}")
    return kbps * KBPS / BITS_PER_BYTE


def rendition_bytes(bitrate_kbps: float, duration_seconds: float) -> float:
    """Storage footprint in bytes of one encoded rendition of a video.

    This is the §6 storage model: encoded bitrate multiplied by duration.
    """
    if duration_seconds < 0:
        raise ValueError(f"duration must be non-negative, got {duration_seconds}")
    return kbps_to_bytes_per_second(bitrate_kbps) * duration_seconds


def bytes_to_tb(n_bytes: float) -> float:
    """Convert bytes to decimal terabytes (Fig 18 reports TB)."""
    return n_bytes / BYTES_PER_TB


def hours_to_seconds(hours: float) -> float:
    return hours * SECONDS_PER_HOUR


def seconds_to_hours(seconds: float) -> float:
    return seconds / SECONDS_PER_HOUR


def biweekly_snapshot_dates(start: date, end: date) -> Iterator[date]:
    """Yield the bi-weekly snapshot dates used to sample the dataset (§4).

    The paper processes a sequence of two-day snapshots taken bi-weekly
    from January 2016 through March 2018; this yields the first day of
    each snapshot window, inclusive of ``start`` and any date <= ``end``.
    """
    if end < start:
        raise ValueError(f"end {end} precedes start {start}")
    current = start
    step = timedelta(days=14)
    while current <= end:
        yield current
        current += step
