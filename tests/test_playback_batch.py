"""The lockstep playback kernel against its scalar references.

``simulate_sessions`` must equal the per-chunk loop kept in
:mod:`repro.testkit.reference` bit for bit: every ``SessionResult``
field and the generator's final state, over drawn ladders (1-12 rungs,
mixed per row), session configs, calm and congested paths, all three
ABR families and an ABR that only implements ``choose``.  The
block-drawn chunk sampler must return the per-chunk sampler's array
and leave the generator in the same state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delivery.network import NetworkPath, default_isp_profiles
from repro.entities.ladder import BitrateLadder
from repro.errors import DeliveryError, PlaybackError
from repro.playback.abr import (
    AbrAlgorithm,
    BufferBasedAbr,
    HybridAbr,
    ThroughputAbr,
)
from repro.playback.session import SessionConfig, simulate_sessions
from repro.testkit.reference import (
    chunk_throughputs_per_chunk,
    simulate_session_scalar,
)

pytestmark = pytest.mark.perf

seeds = st.integers(min_value=0, max_value=2**32 - 1)

rungs = st.lists(
    st.floats(min_value=50.0, max_value=20_000.0),
    min_size=1,
    max_size=12,
    unique=True,
).map(sorted)

#: Rows drawn from a small pool, so ladders repeat and mix across rows.
ladder_rows = st.lists(rungs, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
)


@st.composite
def session_configs(draw):
    chunk_seconds = draw(st.floats(min_value=1.0, max_value=12.0))
    return SessionConfig(
        view_seconds=draw(st.floats(min_value=1.0, max_value=300.0)),
        chunk_seconds=chunk_seconds,
        max_buffer_seconds=draw(
            st.floats(min_value=chunk_seconds, max_value=60.0)
        ),
        startup_chunks=draw(st.integers(min_value=1, max_value=4)),
        ewma_alpha=draw(st.floats(min_value=0.05, max_value=1.0)),
    )


@st.composite
def paths(draw):
    congested = draw(st.booleans())
    return NetworkPath(
        isp="X",
        cdn_name="A",
        median_kbps=draw(st.floats(min_value=200.0, max_value=20_000.0)),
        sigma=draw(st.floats(min_value=0.0, max_value=1.5)),
        within_session_cv=draw(st.sampled_from([0.0, 0.1, 0.25, 0.6])),
        outage_prob=(
            draw(st.floats(min_value=0.01, max_value=0.95))
            if congested
            else 0.0
        ),
        outage_factor=draw(st.floats(min_value=0.05, max_value=1.0)),
        outage_mean_chunks=draw(st.floats(min_value=1.0, max_value=12.0)),
    )


class _ChooseOnlyAbr(AbrAlgorithm):
    """An ABR without ``choose_batch``: batches fall back to ``choose``."""

    def choose(self, ladder, state):
        return ladder[int(state.buffer_seconds) % len(ladder)]


throughput_abrs = st.builds(
    ThroughputAbr, safety=st.floats(min_value=0.1, max_value=1.0)
)
buffer_abrs = st.builds(
    BufferBasedAbr,
    reservoir_seconds=st.floats(min_value=0.0, max_value=20.0),
    cushion_seconds=st.floats(min_value=0.5, max_value=30.0),
)
abrs = st.one_of(
    throughput_abrs,
    buffer_abrs,
    st.builds(HybridAbr, throughput_abrs, buffer_abrs),
    st.just(_ChooseOnlyAbr()),
)


def _scalar_sessions(ladders, path, config, rng, abr, means):
    return tuple(
        simulate_session_scalar(
            ladder,
            path,
            config,
            rng,
            abr=abr,
            session_mean_kbps=None if means is None else means[row],
        )
        for row, ladder in enumerate(ladders)
    )


class TestBatchEqualsScalar:
    @settings(max_examples=150, deadline=None)
    @given(
        ladder_rows,
        session_configs(),
        paths(),
        abrs,
        st.booleans(),
        seeds,
    )
    def test_batch_matches_reference(
        self, rows, config, path, abr, pinned, seed
    ):
        ladders = [BitrateLadder.from_bitrates(rates) for rates in rows]
        means = (
            np.random.default_rng(seed).uniform(100.0, 20_000.0, len(rows))
            .tolist()
            if pinned
            else None
        )
        batch_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        batch = simulate_sessions(
            ladders, path, config, batch_rng, abr=abr, session_means=means
        )
        assert batch == _scalar_sessions(
            ladders, path, config, scalar_rng, abr, means
        )
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        paths(),
        st.floats(min_value=1.0, max_value=50_000.0),
        st.integers(min_value=1, max_value=400),
        seeds,
    )
    def test_block_sampler_matches_per_chunk_draws(
        self, path, mean_kbps, n_chunks, seed
    ):
        block_rng = np.random.default_rng(seed)
        chunk_rng = np.random.default_rng(seed)
        block = path.sample_chunk_throughputs(mean_kbps, n_chunks, block_rng)
        reference = chunk_throughputs_per_chunk(
            path, mean_kbps, n_chunks, chunk_rng
        )
        assert block.dtype == reference.dtype
        assert np.array_equal(block, reference)
        assert block_rng.bit_generator.state == chunk_rng.bit_generator.state

    @pytest.mark.parametrize(
        "mean_kbps", [0.0, -1.0, math.nan, math.inf, -math.inf]
    )
    def test_block_sampler_and_reference_reject_the_same_means(
        self, mean_kbps
    ):
        path = default_isp_profiles()["Y"].path_to("B")
        message = "session mean must be positive and finite"
        with pytest.raises(DeliveryError, match=message):
            path.sample_chunk_throughputs(
                mean_kbps, 10, np.random.default_rng(0)
            )
        with pytest.raises(DeliveryError, match=message):
            chunk_throughputs_per_chunk(
                path, mean_kbps, 10, np.random.default_rng(0)
            )

    def test_case_study_batch_matches_reference(self, eco):
        """The §6 case-study shape: every ladder, paired session means."""
        study = eco.case_study
        ladders = [
            study.ladder(label)
            for label in ("O",) + study.syndicator_labels
            for _ in range(4)
        ]
        path = default_isp_profiles()["Y"].path_to("B")
        config = SessionConfig(
            view_seconds=900.0, chunk_seconds=6.0, max_buffer_seconds=20.0
        )
        means = [3_000.0, 9_000.0, 600.0, 15_000.0] * (len(ladders) // 4)
        abr = ThroughputAbr(safety=0.85)
        batch_rng = np.random.default_rng(2018)
        scalar_rng = np.random.default_rng(2018)
        assert simulate_sessions(
            ladders, path, config, batch_rng, abr=abr, session_means=means
        ) == _scalar_sessions(ladders, path, config, scalar_rng, abr, means)
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


    def test_cushion_too_small_to_move_the_reservoir(self, ladder):
        """8 + 1e-16 == 8: a buffer of exactly 8 s is still the reservoir."""
        abr = BufferBasedAbr(reservoir_seconds=8.0, cushion_seconds=1e-16)
        config = SessionConfig(
            view_seconds=300.0, chunk_seconds=4.0, max_buffer_seconds=8.0
        )
        path = default_isp_profiles()["X"].path_to("A")
        batch_rng = np.random.default_rng(11)
        scalar_rng = np.random.default_rng(11)
        ladders = [ladder] * 8
        assert simulate_sessions(
            ladders, path, config, batch_rng, abr=abr
        ) == _scalar_sessions(ladders, path, config, scalar_rng, abr, None)


class TestBatchSurface:
    def test_empty_batch_draws_nothing(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        path = default_isp_profiles()["X"].path_to("A")
        assert simulate_sessions([], path, SessionConfig(60.0), rng) == ()
        assert rng.bit_generator.state == state

    def test_session_means_must_match_rows(self, ladder):
        path = default_isp_profiles()["X"].path_to("A")
        with pytest.raises(PlaybackError):
            simulate_sessions(
                [ladder, ladder],
                path,
                SessionConfig(60.0),
                np.random.default_rng(4),
                session_means=[1_000.0],
            )
