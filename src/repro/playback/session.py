"""Chunk-level playback session simulation.

Simulates views: the player repeatedly asks the ABR for a rendition,
downloads the chunk at the sampled network throughput, and plays from a
buffer; when the buffer empties mid-download the viewer rebuffers.
Outputs are the two QoE metrics of §6: time-weighted average bitrate
and rebuffering ratio (fraction of the view spent rebuffering).

:func:`simulate_sessions` runs a batch of views in lockstep, one chunk
step for every row at once.  Its results equal, bit for bit, those of
the scalar per-chunk loop kept as
:func:`repro.testkit.reference.simulate_session_scalar` (DESIGN.md §15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.delivery.network import NetworkPath
from repro.entities.ladder import BitrateLadder
from repro.errors import PlaybackError
from repro.playback.abr import (
    AbrAlgorithm,
    AbrState,
    LadderTable,
    ThroughputAbr,
)


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one simulated view."""

    view_seconds: float
    chunk_seconds: float = 6.0
    max_buffer_seconds: float = 30.0
    startup_chunks: int = 2
    ewma_alpha: float = 0.4

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(value)
            for value in (
                self.view_seconds,
                self.chunk_seconds,
                self.max_buffer_seconds,
                self.startup_chunks,
                self.ewma_alpha,
            )
        ):
            raise PlaybackError("session parameters must be finite")
        if self.view_seconds <= 0:
            raise PlaybackError("view duration must be positive")
        if self.chunk_seconds <= 0:
            raise PlaybackError("chunk duration must be positive")
        if self.max_buffer_seconds < self.chunk_seconds:
            raise PlaybackError("buffer must hold at least one chunk")
        if self.startup_chunks < 1:
            raise PlaybackError("need at least one startup chunk")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise PlaybackError("ewma alpha must be in (0, 1]")


#: The case-study view (Figs 15-17 and X2, which replays the Fig 15/16
#: sessions over the owner's ladder): 15 minutes in 6 s chunks behind a
#: 20 s buffer, under a throughput ABR that spends 85% of its estimate.
CASE_STUDY_SESSION = SessionConfig(
    view_seconds=900.0, chunk_seconds=6.0, max_buffer_seconds=20.0
)
CASE_STUDY_ABR = ThroughputAbr(safety=0.85)


@dataclass(frozen=True)
class SessionResult:
    """QoE outcome of one simulated view."""

    average_bitrate_kbps: float
    rebuffer_ratio: float
    rebuffer_seconds: float
    startup_delay_seconds: float
    played_seconds: float
    chunk_count: int
    switches: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.rebuffer_ratio <= 1.0:
            raise PlaybackError(
                f"rebuffer ratio out of range: {self.rebuffer_ratio}"
            )


def simulate_sessions(
    ladders: Sequence[BitrateLadder],
    path: NetworkPath,
    config: SessionConfig,
    rng: np.random.Generator,
    abr: Optional[AbrAlgorithm] = None,
    session_means: Optional[Sequence[float]] = None,
) -> Tuple[SessionResult, ...]:
    """Simulate one view of ``view_seconds`` per ladder, in lockstep.

    Row ``r`` plays ``ladders[r]`` over its own network draw.  Draws
    are made row by row, in row order, before any playback: the
    session mean (``session_means[r]`` when given, which pins it for
    paired comparisons on identical network draws; otherwise sampled
    from the path's lognormal), then the row's chunk throughputs.  A
    batch therefore consumes ``rng`` exactly as one
    :func:`simulate_session` call per row would.
    """
    abr = abr or ThroughputAbr()
    rows = len(ladders)
    if session_means is not None and len(session_means) != rows:
        raise PlaybackError(
            f"{len(session_means)} session means for {rows} ladders"
        )
    if not rows:
        return ()
    table = LadderTable(ladders)
    n_chunks = int(math.ceil(config.view_seconds / config.chunk_seconds))
    with obs.span(
        "playback.simulate",
        sessions=rows,
        chunks=rows * n_chunks,
        abr=type(abr).__name__,
    ):
        # One row per chunk step, so every step reads a contiguous row.
        throughputs = np.empty((n_chunks, rows))
        for r in range(rows):
            mean_kbps = (
                path.sample_session_mean(rng)
                if session_means is None
                else session_means[r]
            )
            throughputs[:, r] = path.sample_chunk_throughputs(
                mean_kbps, n_chunks, rng
            )
        results = _play(table, throughputs, config, abr)
        obs.counter("playback.sessions").inc(rows)
        obs.counter("playback.chunks").inc(rows * n_chunks)
    return results


def _play(
    table: LadderTable,
    throughputs: np.ndarray,
    config: SessionConfig,
    abr: AbrAlgorithm,
) -> Tuple[SessionResult, ...]:
    """Advance every row one chunk at a time; floats match the scalar loop.

    Every update is the scalar loop's expression evaluated elementwise
    in the same order, so each row gets the doubles the per-chunk loop
    computes.  Running sums the decisions never read (played bitrate,
    stall time) are taken after the loop with ``add.accumulate``, which
    adds strictly in chunk order as the scalar ``+=`` does (``np.sum``
    may add pairwise).
    """
    n_chunks, rows = throughputs.shape
    chunk_seconds = config.chunk_seconds
    startup_chunks = min(config.startup_chunks, n_chunks)
    keep = 1 - config.ewma_alpha
    bitrates = np.empty_like(throughputs)
    # buffer - download per steady-state chunk; negative means a stall.
    drained = np.empty((n_chunks - startup_chunks, rows))
    buffer = np.zeros(rows)
    startup = np.zeros(rows)
    ewma = throughputs[0]
    for i in range(n_chunks):
        bitrate = bitrates[i] = abr.choose_batch(
            table, AbrState(buffer, throughputs[max(i - 1, 0)], ewma)
        )
        download = bitrate * chunk_seconds / throughputs[i]
        if i < startup_chunks:
            startup += download
            buffer = buffer + chunk_seconds
        else:
            step = drained[i - startup_chunks]
            np.subtract(buffer, download, out=step)
            buffer = np.minimum(
                np.maximum(step, 0.0) + chunk_seconds,
                config.max_buffer_seconds,
            )
        ewma = config.ewma_alpha * throughputs[i] + keep * ewma
    switches = np.count_nonzero(bitrates[1:] != bitrates[:-1], axis=0)
    play_seconds = np.array(
        [
            min(chunk_seconds, config.view_seconds - i * chunk_seconds)
            for i in range(n_chunks)
        ]
    )
    bitrates *= play_seconds[:, None]
    played = np.add.accumulate(bitrates, out=bitrates)[-1]
    # A stall adds download - buffer, which is exactly 0.0 - drained;
    # every other chunk adds +0.0.
    np.minimum(drained, 0.0, out=drained)
    stalls = np.subtract(0.0, drained, out=drained)
    rebuffer = (
        np.add.accumulate(stalls, out=stalls)[-1]
        if len(stalls)
        else np.zeros(rows)
    )
    total = config.view_seconds + rebuffer
    return tuple(
        SessionResult(
            average_bitrate_kbps=average,
            rebuffer_ratio=ratio,
            rebuffer_seconds=stalled,
            startup_delay_seconds=delay,
            played_seconds=config.view_seconds,
            chunk_count=n_chunks,
            switches=switched,
        )
        for average, ratio, stalled, delay, switched in zip(
            (played / config.view_seconds).tolist(),
            (rebuffer / total).tolist(),
            rebuffer.tolist(),
            startup.tolist(),
            switches.tolist(),
        )
    )


def simulate_session(
    ladder: BitrateLadder,
    path: NetworkPath,
    config: SessionConfig,
    rng: np.random.Generator,
    abr: Optional[AbrAlgorithm] = None,
    session_mean_kbps: Optional[float] = None,
) -> SessionResult:
    """Simulate one view: a one-row :func:`simulate_sessions` batch.

    ``session_mean_kbps`` pins the session's mean throughput (useful for
    paired owner/syndicator comparisons on identical network draws);
    when omitted it is sampled from the path's lognormal.
    """
    return simulate_sessions(
        [ladder],
        path,
        config,
        rng,
        abr=abr,
        session_means=(
            None if session_mean_kbps is None else [session_mean_kbps]
        ),
    )[0]
