"""Adaptive bitrate (ABR) selection algorithms.

Two classic families the paper cites: throughput-based prediction
(pick the highest rung under a conservative throughput estimate) and
buffer-based control in the style of BBA [65] (map buffer occupancy to
a rung through a linear reservoir/cushion function).  The Fig 15/16
reproduction shows the owner-vs-syndicator QoE gap persists across both
— it is a *ladder* effect, not an ABR effect (see the ablation bench).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.entities.ladder import BitrateLadder, Rendition
from repro.errors import PlaybackError


@dataclass
class AbrState:
    """Observable player state handed to the ABR each decision.

    :meth:`AbrAlgorithm.choose_batch` receives the same state with one
    array entry per session in each field.
    """

    buffer_seconds: float
    last_throughput_kbps: float
    ewma_throughput_kbps: float


class LadderTable:
    """The ladders of a session batch, one per row, as lookup arrays.

    Built once per batch.  :meth:`nearest_at_most` is
    :meth:`BitrateLadder.nearest_at_most` for every row at once: over
    the sorted union of all rung bitrates, ``floors`` holds each
    distinct ladder's answer for every grid interval, so a lookup is
    one ``searchsorted`` and one ``take``.
    """

    def __init__(self, ladders: Sequence[BitrateLadder]) -> None:
        if not ladders:
            raise PlaybackError("a session batch needs at least one ladder")
        self.ladders = tuple(ladders)
        distinct = list(dict.fromkeys(self.ladders))
        rungs = [np.array(ladder.bitrates_kbps) for ladder in distinct]
        self.grid = np.unique(np.concatenate(rungs))
        # Column 0 is "below every grid bitrate": the lowest rung.
        floors = np.empty((len(distinct), self.grid.size + 1))
        for k, rates in enumerate(rungs):
            fitting = np.searchsorted(rates, self.grid, side="right")
            floors[k, 0] = rates[0]
            floors[k, 1:] = rates[np.maximum(fitting - 1, 0)]
        self.floors = floors.ravel()
        index = {ladder: k for k, ladder in enumerate(distinct)}
        rows = np.array([index[ladder] for ladder in self.ladders])
        self.offsets = rows * (self.grid.size + 1)
        self.min_kbps = np.array([r[0] for r in rungs])[rows]
        self.max_kbps = np.array([r[-1] for r in rungs])[rows]
        self.span_kbps = self.max_kbps - self.min_kbps

    def nearest_at_most(self, throughput_kbps: np.ndarray) -> np.ndarray:
        """Per row: the highest rung at most the throughput, else the lowest."""
        fitting = self.grid.searchsorted(throughput_kbps, side="right")
        return self.floors.take(self.offsets + fitting)


class AbrAlgorithm(abc.ABC):
    """Chooses the next chunk's rendition."""

    @abc.abstractmethod
    def choose(self, ladder: BitrateLadder, state: AbrState) -> Rendition:
        """Return the rendition to fetch next."""

    def choose_batch(self, table: LadderTable, state: AbrState) -> np.ndarray:
        """Chosen bitrate per row of a batch (kbps).

        ``state`` holds one array entry per row.  An override must
        return exactly the bitrate :meth:`choose` picks on each row,
        computing with the same float operations in the same order;
        this default asks :meth:`choose` row by row.
        """
        rows = zip(
            table.ladders,
            state.buffer_seconds.tolist(),
            state.last_throughput_kbps.tolist(),
            state.ewma_throughput_kbps.tolist(),
        )
        return np.array(
            [
                self.choose(ladder, AbrState(*observed)).bitrate_kbps
                for ladder, *observed in rows
            ]
        )


class ThroughputAbr(AbrAlgorithm):
    """Rate-based ABR: highest rung under a discounted throughput estimate.

    ``safety`` discounts the EWMA estimate (0.8 means 'use at most 80%
    of estimated throughput'), the classic guard against overshoot.
    """

    def __init__(self, safety: float = 0.8) -> None:
        if not 0.0 < safety <= 1.0:
            raise PlaybackError("safety factor must be in (0, 1]")
        self.safety = safety

    def choose(self, ladder: BitrateLadder, state: AbrState) -> Rendition:
        budget = self.safety * state.ewma_throughput_kbps
        return ladder.nearest_at_most(budget)

    def choose_batch(self, table: LadderTable, state: AbrState) -> np.ndarray:
        return table.nearest_at_most(self.safety * state.ewma_throughput_kbps)


class BufferBasedAbr(AbrAlgorithm):
    """Buffer-based ABR in the style of BBA [65].

    Below ``reservoir_seconds`` of buffer, pick the lowest rung; above
    ``reservoir + cushion`` pick the highest; in between, map buffer
    occupancy linearly onto the ladder's bitrate range.
    """

    def __init__(
        self, reservoir_seconds: float = 8.0, cushion_seconds: float = 16.0
    ) -> None:
        if reservoir_seconds < 0 or cushion_seconds <= 0:
            raise PlaybackError("bad reservoir/cushion configuration")
        self.reservoir_seconds = reservoir_seconds
        self.cushion_seconds = cushion_seconds

    def choose(self, ladder: BitrateLadder, state: AbrState) -> Rendition:
        buffer = state.buffer_seconds
        if buffer <= self.reservoir_seconds:
            return ladder[0]
        if buffer >= self.reservoir_seconds + self.cushion_seconds:
            return ladder[len(ladder) - 1]
        fraction = (buffer - self.reservoir_seconds) / self.cushion_seconds
        target = (
            ladder.min_bitrate_kbps
            + fraction * (ladder.max_bitrate_kbps - ladder.min_bitrate_kbps)
        )
        return ladder.nearest_at_most(target)

    def choose_batch(self, table: LadderTable, state: AbrState) -> np.ndarray:
        buffer = state.buffer_seconds
        fraction = (buffer - self.reservoir_seconds) / self.cushion_seconds
        # At or below the reservoir, fraction <= 0 puts the target at or
        # under the lowest rung, which nearest_at_most already returns,
        # so only a full cushion needs a mask.  choose tests the
        # reservoir first: if the cushion is too small to change the
        # sum, "full" starts strictly above the reservoir.
        chosen = table.nearest_at_most(
            table.min_kbps + fraction * table.span_kbps
        )
        top = self.reservoir_seconds + self.cushion_seconds
        full = buffer >= top if top > self.reservoir_seconds else buffer > top
        return np.where(full, table.max_kbps, chosen)


class HybridAbr(AbrAlgorithm):
    """Conservative hybrid: the lower of the rate and buffer choices.

    Takes the min-bitrate rendition of a :class:`ThroughputAbr` and a
    :class:`BufferBasedAbr` decision, so a drained buffer caps an
    optimistic throughput estimate and a stale throughput estimate caps
    an optimistic buffer.  Never picks above either constituent — the
    invariant the abr-policy-zoo degradation contract checks.
    """

    def __init__(
        self,
        throughput: ThroughputAbr = None,
        buffer_based: BufferBasedAbr = None,
    ) -> None:
        self.throughput = throughput or ThroughputAbr()
        self.buffer_based = buffer_based or BufferBasedAbr()

    def choose(self, ladder: BitrateLadder, state: AbrState) -> Rendition:
        by_rate = self.throughput.choose(ladder, state)
        by_buffer = self.buffer_based.choose(ladder, state)
        if by_rate.bitrate_kbps <= by_buffer.bitrate_kbps:
            return by_rate
        return by_buffer

    def choose_batch(self, table: LadderTable, state: AbrState) -> np.ndarray:
        return np.minimum(
            self.throughput.choose_batch(table, state),
            self.buffer_based.choose_batch(table, state),
        )
