"""ABR algorithms, session simulation, user agents (repro.playback)."""

import numpy as np
import pytest

from repro.delivery.network import NetworkPath
from repro.entities.ladder import BitrateLadder
from repro.errors import DeliveryError, LadderError, PlaybackError
from repro.playback.abr import AbrState, BufferBasedAbr, ThroughputAbr
from repro.playback.session import SessionConfig, simulate_session
from repro.playback.useragent import build_user_agent


def _state(buffer_seconds=10.0, ewma=2000.0):
    return AbrState(
        buffer_seconds=buffer_seconds,
        last_throughput_kbps=ewma,
        ewma_throughput_kbps=ewma,
    )


class TestThroughputAbr:
    def test_picks_highest_rung_under_budget(self, ladder):
        abr = ThroughputAbr(safety=0.8)
        # budget = 0.8 * 1600 = 1280 -> rung 1200
        assert abr.choose(ladder, _state(ewma=1600)).bitrate_kbps == 1200

    def test_floor_when_throughput_terrible(self, ladder):
        abr = ThroughputAbr()
        assert abr.choose(ladder, _state(ewma=10)).bitrate_kbps == 150

    def test_ceiling_when_throughput_huge(self, ladder):
        abr = ThroughputAbr()
        assert abr.choose(ladder, _state(ewma=1e6)).bitrate_kbps == 2400

    def test_safety_factor_validation(self):
        with pytest.raises(PlaybackError):
            ThroughputAbr(safety=0.0)
        with pytest.raises(PlaybackError):
            ThroughputAbr(safety=1.5)


class TestBufferBasedAbr:
    def test_reservoir_forces_floor(self, ladder):
        abr = BufferBasedAbr(reservoir_seconds=8, cushion_seconds=16)
        assert abr.choose(ladder, _state(buffer_seconds=4)).bitrate_kbps == 150

    def test_full_cushion_gives_top(self, ladder):
        abr = BufferBasedAbr(reservoir_seconds=8, cushion_seconds=16)
        choice = abr.choose(ladder, _state(buffer_seconds=30))
        assert choice.bitrate_kbps == 2400

    def test_midpoint_is_intermediate(self, ladder):
        abr = BufferBasedAbr(reservoir_seconds=8, cushion_seconds=16)
        choice = abr.choose(ladder, _state(buffer_seconds=16))
        assert 150 < choice.bitrate_kbps < 2400

    def test_monotone_in_buffer(self, ladder):
        abr = BufferBasedAbr(reservoir_seconds=8, cushion_seconds=16)
        picks = [
            abr.choose(ladder, _state(buffer_seconds=b)).bitrate_kbps
            for b in (2, 10, 14, 18, 22, 30)
        ]
        assert picks == sorted(picks)

    def test_validation(self):
        with pytest.raises(PlaybackError):
            BufferBasedAbr(reservoir_seconds=-1)
        with pytest.raises(PlaybackError):
            BufferBasedAbr(cushion_seconds=0)


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(PlaybackError):
            SessionConfig(view_seconds=0)
        with pytest.raises(PlaybackError):
            SessionConfig(view_seconds=60, chunk_seconds=0)
        with pytest.raises(PlaybackError):
            SessionConfig(view_seconds=60, max_buffer_seconds=1)
        with pytest.raises(PlaybackError):
            SessionConfig(view_seconds=60, ewma_alpha=0)


class TestNonFiniteInputs:
    """Non-finite inputs fail at the playback boundary with typed errors.

    In a batch, one NaN row would otherwise poison results silently.
    """

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(view_seconds=float("nan")),
            dict(view_seconds=float("inf")),
            dict(view_seconds=60.0, max_buffer_seconds=float("nan")),
        ],
        ids=["view-nan", "view-inf", "max-buffer-nan"],
    )
    def test_session_config_rejects(self, kwargs):
        with pytest.raises(PlaybackError):
            SessionConfig(**kwargs)

    def test_ladder_rejects_nan_bitrate(self):
        with pytest.raises(LadderError):
            BitrateLadder.from_bitrates([float("nan")])

    def test_network_path_rejects_nan_median(self):
        with pytest.raises(DeliveryError):
            NetworkPath(isp="X", cdn_name="A", median_kbps=float("nan"))

    def test_session_rejects_nan_session_mean(self, ladder, rng):
        path = NetworkPath(isp="X", cdn_name="A", median_kbps=5000)
        with pytest.raises(DeliveryError):
            simulate_session(
                ladder,
                path,
                SessionConfig(view_seconds=60),
                rng,
                session_mean_kbps=float("nan"),
            )


class TestSimulation:
    @pytest.fixture
    def path(self):
        return NetworkPath(
            isp="X", cdn_name="A", median_kbps=5000, sigma=0.0,
            within_session_cv=0.0,
        )

    def test_fast_network_no_rebuffering(self, ladder, path, rng):
        result = simulate_session(
            ladder, path, SessionConfig(view_seconds=300), rng
        )
        assert result.rebuffer_ratio == 0.0
        assert result.average_bitrate_kbps == pytest.approx(2400, rel=0.05)

    def test_slow_network_caps_bitrate(self, ladder, rng):
        slow = NetworkPath(
            isp="X", cdn_name="A", median_kbps=400, sigma=0.0,
            within_session_cv=0.0,
        )
        result = simulate_session(
            ladder, slow, SessionConfig(view_seconds=300), rng
        )
        assert result.average_bitrate_kbps <= 400

    def test_starving_network_rebuffers(self, rng):
        ladder = BitrateLadder.from_bitrates((800,))  # floor above network
        starving = NetworkPath(
            isp="X", cdn_name="A", median_kbps=400, sigma=0.0,
            within_session_cv=0.0,
        )
        result = simulate_session(
            ladder, starving, SessionConfig(view_seconds=300), rng
        )
        assert result.rebuffer_ratio > 0.2

    def test_low_floor_protects_against_starvation(self, ladder, rng):
        starving = NetworkPath(
            isp="X", cdn_name="A", median_kbps=400, sigma=0.0,
            within_session_cv=0.0,
        )
        result = simulate_session(
            ladder, starving, SessionConfig(view_seconds=300), rng
        )
        # ladder floor 150 < 400 kbps: playable without stalls after
        # startup.
        assert result.rebuffer_ratio < 0.05

    def test_chunk_count(self, ladder, path, rng):
        result = simulate_session(
            ladder, path, SessionConfig(view_seconds=95, chunk_seconds=10),
            rng,
        )
        assert result.chunk_count == 10

    def test_pinned_session_mean_is_deterministic(self, ladder, path):
        results = [
            simulate_session(
                ladder,
                path,
                SessionConfig(view_seconds=120),
                np.random.default_rng(1),
                session_mean_kbps=3000,
            )
            for _ in range(2)
        ]
        assert (
            results[0].average_bitrate_kbps == results[1].average_bitrate_kbps
        )

    def test_startup_delay_positive(self, ladder, path, rng):
        result = simulate_session(
            ladder, path, SessionConfig(view_seconds=120), rng
        )
        assert result.startup_delay_seconds > 0

    def test_buffer_abr_also_works(self, ladder, path, rng):
        result = simulate_session(
            ladder,
            path,
            SessionConfig(view_seconds=300),
            rng,
            abr=BufferBasedAbr(),
        )
        assert 150 <= result.average_bitrate_kbps <= 2400


class TestUserAgents:
    def test_version_filled_into_template(self):
        ua = build_user_agent("firefox", 61)
        assert "Firefox/61.0" in ua
        assert build_user_agent("edge", 100).endswith("Edg/100.0.0.0")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_user_agent("netscape")
