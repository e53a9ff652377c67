"""CDNs, assignments, publishers and profiles (repro.entities)."""

import pytest

from repro.constants import ContentType, Platform, Protocol, SyndicationRole
from repro.entities.cdn import CDN, CdnAssignment
from repro.entities.device import SDK
from repro.entities.publisher import Publisher, PublisherProfile


class TestCdn:
    def test_edge_hostname_default(self):
        assert CDN(name="A").edge_hostname == "cdn-a.example.net"

    def test_edge_hostname_override(self):
        cdn = CDN(name="A", hostname_suffix="akamaihd.net")
        assert cdn.edge_hostname == "akamaihd.net"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CDN(name="")


class TestCdnAssignment:
    def test_defaults_to_both_content_types(self):
        assignment = CdnAssignment(cdn=CDN(name="A"))
        assert assignment.serves(ContentType.LIVE)
        assert assignment.serves(ContentType.VOD)
        assert not assignment.vod_only
        assert not assignment.live_only

    def test_vod_only(self):
        assignment = CdnAssignment(
            cdn=CDN(name="A"), content_types=frozenset({ContentType.VOD})
        )
        assert assignment.vod_only
        assert not assignment.serves(ContentType.LIVE)

    def test_empty_content_types_rejected(self):
        with pytest.raises(ValueError):
            CdnAssignment(cdn=CDN(name="A"), content_types=frozenset())


def _publisher(**overrides):
    kwargs = dict(
        publisher_id="pub_x",
        daily_view_hours=1e4,
        role=SyndicationRole.NONE,
        serves_live=True,
        serves_vod=True,
        catalogue_size=100,
    )
    kwargs.update(overrides)
    return Publisher(**kwargs)


class TestPublisher:
    def test_content_types(self):
        assert _publisher().content_types == (
            ContentType.LIVE,
            ContentType.VOD,
        )
        assert _publisher(serves_live=False).content_types == (
            ContentType.VOD,
        )

    def test_must_serve_something(self):
        with pytest.raises(ValueError):
            _publisher(serves_live=False, serves_vod=False)

    def test_positive_view_hours(self):
        with pytest.raises(ValueError):
            _publisher(daily_view_hours=0)

    def test_catalogue_at_least_one(self):
        with pytest.raises(ValueError):
            _publisher(catalogue_size=0)


def _profile(**overrides):
    kwargs = dict(
        publisher=_publisher(),
        protocols=frozenset({Protocol.HLS, Protocol.DASH}),
        platforms=frozenset({Platform.BROWSER, Platform.MOBILE}),
        cdn_assignments=(
            CdnAssignment(cdn=CDN(name="A")),
            CdnAssignment(
                cdn=CDN(name="B"),
                content_types=frozenset({ContentType.VOD}),
            ),
        ),
        sdks=frozenset({SDK("ExoPlayer", "2.9"), SDK("ExoPlayer", "2.10")}),
        device_models=frozenset({"iphone", "android-phone", "chrome-html5"}),
    )
    kwargs.update(overrides)
    return PublisherProfile(**kwargs)


class TestPublisherProfile:
    def test_requires_nonempty_dimensions(self):
        with pytest.raises(ValueError):
            _profile(protocols=frozenset())
        with pytest.raises(ValueError):
            _profile(platforms=frozenset())
        with pytest.raises(ValueError):
            _profile(cdn_assignments=())

    def test_duplicate_cdn_rejected(self):
        with pytest.raises(ValueError):
            _profile(
                cdn_assignments=(
                    CdnAssignment(cdn=CDN(name="A")),
                    CdnAssignment(cdn=CDN(name="A")),
                )
            )
