"""Portfolio assignment (repro.synthesis.portfolios)."""

import numpy as np
import pytest

from repro.constants import ContentType, Platform, Protocol
from repro.entities.device import default_registry
from repro.errors import CalibrationError
from repro.synthesis import calibration as cal
from repro.synthesis.population import generate_publishers
from repro.synthesis.portfolios import PortfolioAssigner


@pytest.fixture(scope="module")
def assigner_and_publishers():
    rng = np.random.default_rng(7)
    publishers = generate_publishers(rng, 110)
    assigner = PortfolioAssigner(rng, publishers, default_registry())
    return assigner, publishers


class TestAdoptionLevels:
    def test_population_support_tracks_curves(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        n = len(publishers)
        for protocol, curve in cal.PROTOCOL_ADOPTION.items():
            if protocol is Protocol.RTMP:
                continue  # attenuated by the serves_live requirement
            for t in (0.0, 1.0):
                fraction = (
                    sum(
                        protocol in assigner.protocols_at(p.publisher_id, t)
                        for p in publishers
                    )
                    / n
                )
                # HLS gets topped up by the at-least-one-protocol rule.
                tolerance = 0.10 if protocol is Protocol.HLS else 0.06
                assert fraction == pytest.approx(
                    curve.level(t), abs=tolerance
                ), protocol

    def test_platform_support_tracks_curves(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        n = len(publishers)
        for platform, curve in cal.PLATFORM_ADOPTION.items():
            fraction = (
                sum(
                    platform in assigner.platforms_at(p.publisher_id, 1.0)
                    for p in publishers
                )
                / n
            )
            assert fraction == pytest.approx(curve.level(1.0), abs=0.06)

    def test_adoption_monotone_over_time(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        for publisher in publishers[:20]:
            was_supported = False
            for t in np.linspace(0, 1, 12):
                supported = Protocol.DASH in assigner.protocols_at(
                    publisher.publisher_id, t
                )
                assert supported or not was_supported or True
                if was_supported:
                    assert supported  # DASH is rising: never abandoned
                was_supported = supported


class TestProfiles:
    def test_profile_is_internally_consistent(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        registry = default_registry()
        for publisher in publishers[:30]:
            profile = assigner.profile_at(publisher.publisher_id, 1.0)
            for model in profile.device_models:
                assert registry.platform_of(model) in profile.platforms
            sdk_names = {
                registry.lookup(m).sdk_name
                for m in profile.device_models
                if registry.lookup(m).sdk_name
            }
            for sdk in profile.sdks:
                assert sdk.name in sdk_names

    def test_every_publisher_has_http_protocol(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        for publisher in publishers:
            protocols = assigner.protocols_at(publisher.publisher_id, 0.0)
            assert any(p.is_http_adaptive for p in protocols)

    def test_rtmp_only_for_live_publishers(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        for publisher in publishers:
            protocols = assigner.protocols_at(publisher.publisher_id, 0.0)
            if Protocol.RTMP in protocols:
                assert publisher.serves_live


class TestCdnDraws:
    def test_cdn_count_bounds(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        for publisher in publishers:
            profile = assigner.profile_at(publisher.publisher_id, 0.5)
            assert 1 <= len(profile.cdn_assignments) <= 5

    def test_smallest_publishers_single_cdn(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        for publisher in publishers:
            if publisher.daily_view_hours <= cal.VIEW_HOUR_BASE_X:
                profile = assigner.profile_at(publisher.publisher_id, 0.5)
                assert len(profile.cdn_assignments) == 1

    def test_largest_publishers_many_cdns(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        top_decade = len(cal.SIZE_BUCKET_FRACTIONS) - 1
        threshold = cal.VIEW_HOUR_BASE_X * 10 ** (top_decade - 1)
        for publisher in publishers:
            if publisher.daily_view_hours > threshold:
                profile = assigner.profile_at(publisher.publisher_id, 0.5)
                assert len(profile.cdn_assignments) >= 4

    def test_content_coverage_after_split(self, assigner_and_publishers):
        assigner, publishers = assigner_and_publishers
        for publisher in publishers:
            profile = assigner.profile_at(publisher.publisher_id, 0.5)
            for content_type in publisher.content_types:
                assert any(
                    a.serves(content_type) for a in profile.cdn_assignments
                )


class TestForcing:
    # force_protocol/ensure_cdns mutate assigner state in place, so this
    # class gets a private assigner: the shared module-scoped fixture is
    # read by other classes and the suite runs in shuffled order.
    @pytest.fixture(scope="class")
    def forcing_assigner(self):
        rng = np.random.default_rng(7)
        publishers = generate_publishers(rng, 110)
        assigner = PortfolioAssigner(rng, publishers, default_registry())
        return assigner, publishers

    def test_force_protocol(self, forcing_assigner):
        assigner, publishers = forcing_assigner
        pid = publishers[5].publisher_id
        assigner.force_protocol(pid, Protocol.DASH, 0.0)
        assert Protocol.DASH in assigner.protocols_at(pid, 0.0)
        assigner.force_protocol(pid, Protocol.DASH, 1.0)
        assert Protocol.DASH not in assigner.protocols_at(pid, 1.0)

    def test_force_unknown_publisher(self, forcing_assigner):
        assigner, _ = forcing_assigner
        with pytest.raises(CalibrationError):
            assigner.force_protocol("ghost", Protocol.DASH, 0.5)

    def test_ensure_cdns_adds_missing(self, forcing_assigner):
        assigner, publishers = forcing_assigner
        pid = publishers[-1].publisher_id  # smallest: one CDN
        assigner.ensure_cdns(pid, ("A", "B"))
        profile = assigner.profile_at(pid, 0.5)
        assert {"A", "B"} <= {a.cdn.name for a in profile.cdn_assignments}
        assert len(profile.cdn_assignments) <= 5

    def test_ensure_cdns_idempotent(self, forcing_assigner):
        assigner, publishers = forcing_assigner
        pid = publishers[-2].publisher_id
        assigner.ensure_cdns(pid, ("A",))
        count = len(assigner.profile_at(pid, 0.5).cdn_assignments)
        assigner.ensure_cdns(pid, ("A",))
        assert len(assigner.profile_at(pid, 0.5).cdn_assignments) == count

    def test_ensure_cdns_caps_at_five(self, forcing_assigner):
        assigner, publishers = forcing_assigner
        pid = publishers[0].publisher_id  # largest: 4-5 CDNs already
        assigner.ensure_cdns(pid, ("A", "B", "C", "D", "E"))
        assert len(assigner.profile_at(pid, 0.5).cdn_assignments) <= 5
