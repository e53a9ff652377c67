"""Edge caches: LRU chunk caches in front of the origin.

§6 notes origin storage redundancy is easier to quantify than edge
redundancy because edges depend on access patterns; this module lets us
*simulate* those access patterns (and is exercised by an ablation bench
showing how independent syndication also pollutes edge caches).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.errors import DeliveryError


@dataclass
class CacheStats:
    """Hit/miss accounting for one edge cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_served: float = 0.0
    bytes_from_origin: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests


class EdgeCache:
    """A byte-capacity LRU cache keyed by opaque chunk identity.

    Keys are typically ``(publisher_id, video_id, bitrate, chunk_index)``
    — the same content syndicated under two publishers occupies two
    entries, exactly the redundancy §6 describes.
    """

    def __init__(self, capacity_bytes: float) -> None:
        if capacity_bytes <= 0:
            raise DeliveryError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self._used_bytes = 0.0
        self.stats = CacheStats()

    @property
    def used_bytes(self) -> float:
        return self._used_bytes

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def request(self, key: Hashable, size_bytes: float) -> bool:
        """Serve one chunk request; returns True on a cache hit.

        On a miss the chunk is fetched from the origin and inserted,
        evicting least-recently-used entries as needed.  Objects larger
        than the whole cache are served from the origin without being
        admitted.
        """
        if size_bytes < 0:
            raise DeliveryError("chunk size must be non-negative")
        self.stats.bytes_served += size_bytes
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self.stats.bytes_from_origin += size_bytes
        if size_bytes <= self.capacity_bytes:
            self._insert(key, size_bytes)
        return False

    def _insert(self, key: Hashable, size_bytes: float) -> None:
        while self._used_bytes + size_bytes > self.capacity_bytes:
            evicted_key, evicted_size = self._entries.popitem(last=False)
            self._used_bytes -= evicted_size
            self.stats.evictions += 1
        self._entries[key] = size_bytes
        self._used_bytes += size_bytes

    def purge(self) -> None:
        """Drop all entries (stats are preserved)."""
        self._entries.clear()
        self._used_bytes = 0.0
