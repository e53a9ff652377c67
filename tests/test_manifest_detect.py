"""Protocol detection from URLs — the Table 1 logic."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import Protocol
from repro.core.dimensions import PROTOCOL_COLUMN
from repro.errors import ProtocolDetectionError
from repro.packaging.manifest.detect import (
    _urlparse_protocol,
    detect_protocol,
    detect_protocol_or_none,
    extension_for,
    sample_manifest_url,
)
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


class TestTable1Samples:
    """The exact sample URLs printed in Table 1 of the paper."""

    def test_hls_akamai_sample(self):
        url = "http://foo.akamaihd.net/master.m3u8"
        assert detect_protocol(url) is Protocol.HLS

    def test_dash_limelight_sample(self):
        url = "http://bar.llwnd.net//Z53TiGRzq.mpd"
        assert detect_protocol(url) is Protocol.DASH

    def test_mss_level3_sample(self):
        url = "http://baz.level3.net/56.ism/manifest"
        assert detect_protocol(url) is Protocol.MSS

    def test_hds_aws_sample(self):
        url = "http://qux.aws.com/cache/hds.f4m"
        assert detect_protocol(url) is Protocol.HDS


class TestExtensions:
    def test_m3u_variant(self):
        assert detect_protocol("http://x/y.m3u") is Protocol.HLS

    def test_isml_live_variant(self):
        assert detect_protocol("http://x/y.isml/manifest") is Protocol.MSS

    def test_case_insensitive(self):
        assert detect_protocol("http://x/MASTER.M3U8") is Protocol.HLS

    def test_query_string_ignored(self):
        url = "http://x/v.mpd?token=abc.m3u8"
        assert detect_protocol(url) is Protocol.DASH

    def test_progressive_mp4(self):
        assert detect_protocol("http://x/movie.mp4") is Protocol.PROGRESSIVE

    def test_progressive_flv(self):
        assert detect_protocol("http://x/movie.flv") is Protocol.PROGRESSIVE


class TestRtmpScheme:
    """§3 footnote 5: RTMP is detected from the URL scheme."""

    @pytest.mark.parametrize("scheme", ["rtmp", "rtmps", "rtmpe", "rtmpt"])
    def test_rtmp_schemes(self, scheme):
        assert detect_protocol(f"{scheme}://x/live/ch1") is Protocol.RTMP

    def test_rtmp_beats_extension(self):
        # Scheme is checked first, as the paper's rule implies.
        assert detect_protocol("rtmp://x/live/ch1.mp4") is Protocol.RTMP


class TestUnknowns:
    def test_unknown_extension_raises(self):
        with pytest.raises(ProtocolDetectionError):
            detect_protocol("http://x/page.html")

    def test_or_none_returns_none(self):
        assert detect_protocol_or_none("http://x/page.html") is None
        assert detect_protocol_or_none("") is None

    def test_extensionless_path(self):
        assert detect_protocol_or_none("http://x/watch/12345") is None

    def test_dotfile_component_not_an_extension(self):
        assert detect_protocol_or_none("http://x/.m3u8/foo") is None


class TestInverse:
    @pytest.mark.parametrize(
        "protocol,extension",
        [
            (Protocol.HLS, ".m3u8"),
            (Protocol.DASH, ".mpd"),
            (Protocol.MSS, ".ism"),
            (Protocol.HDS, ".f4m"),
            (Protocol.PROGRESSIVE, ".mp4"),
        ],
    )
    def test_extension_for(self, protocol, extension):
        assert extension_for(protocol) == extension

    def test_rtmp_has_no_extension(self):
        with pytest.raises(ProtocolDetectionError):
            extension_for(Protocol.RTMP)

    @pytest.mark.parametrize(
        "protocol",
        [
            Protocol.HLS,
            Protocol.DASH,
            Protocol.MSS,
            Protocol.HDS,
            Protocol.RTMP,
        ],
    )
    def test_minted_urls_detect_back(self, protocol):
        url = sample_manifest_url(protocol, "vid123", "edge.example.net")
        assert detect_protocol(url) is protocol


class TestUrlparseRejects:
    """URLs ``urlparse`` raises on match no protocol."""

    BAD_URL = "http://[::1/x.m3u8"

    def test_or_none_returns_none(self):
        assert detect_protocol_or_none(self.BAD_URL) is None

    def test_detect_raises_detection_error(self):
        with pytest.raises(ProtocolDetectionError):
            detect_protocol(self.BAD_URL)

    def test_loaded_dataset_builds_protocol_column(self, tmp_path):
        path = tmp_path / "bad-url.jsonl"
        Dataset(
            [make_record(url=self.BAD_URL), make_record(publisher_id="p2")]
        ).save(path)
        loaded = Dataset.load(path)
        entries = loaded.entries(PROTOCOL_COLUMN)
        assert entries.rows.tolist() == [1]
        assert [entries.values[c] for c in entries.codes] == [Protocol.HLS]


def _reference_or_none(url):
    """The ``urlparse`` classifier, with a rejected URL as no match."""
    if not url:
        return None
    try:
        return _urlparse_protocol(url)
    except ValueError:
        return None


#: Characters of a plain URL: the fast path reads strings made of them.
_PLAIN_CHARS = list("aZ09.-_~%!$&'()*+,=:@`^{}|\"<>")

#: Plain characters plus every delimiter ``urlparse`` splits on or
#: rejects, whitespace, control characters and non-ASCII letters.
_URL_CHARS = _PLAIN_CHARS + list("?#;[]\\ \t\n\r\x00\x1f\x7féü€")

_SCHEMES = st.sampled_from(
    ["http", "https", "HTTP", "Https", "rtmp", "RTMPE", "rtmps", "rtmpt",
     "ftp", "a+b.c-1", "1http", ""]
)

_EXTENSIONS = st.sampled_from(
    [".m3u8", ".M3U8", ".m3u", ".mpd", ".MPD", ".ism", ".isml", ".f4m",
     ".mp4", ".flv", ".webm", ".mov", ".html", ".", ""]
)

_TAILS = st.sampled_from(
    ["", "/manifest", "?token=a.m3u8", "#frag.mpd", ";p=v.ism", "?", "#",
     ";", " ", "\t"]
)


@st.composite
def url_shaped(draw, chars, separators, tails):
    """``scheme``, a separator, ``netloc``, ``/path`` and a tail, the
    netloc and path components drawn from ``chars``."""
    text = st.text(st.sampled_from(chars), max_size=8)
    segments = draw(st.lists(st.tuples(text, _EXTENSIONS), max_size=4))
    path = "".join(f"/{name}{ext}" for name, ext in segments)
    return "".join(
        (draw(_SCHEMES), draw(separators), draw(text), path, draw(tails))
    )


class TestClassifierDifferential:
    """The fast path against the ``urlparse`` reference, URL by URL."""

    @settings(max_examples=400, deadline=None)
    @given(url=st.text())
    def test_arbitrary_text(self, url):
        assert detect_protocol_or_none(url) == _reference_or_none(url)

    @settings(max_examples=500, deadline=None)
    @given(
        url=url_shaped(
            _PLAIN_CHARS, st.just("://"), st.sampled_from(["", "/manifest"])
        )
    )
    def test_plain_urls(self, url):
        assert detect_protocol_or_none(url) == _reference_or_none(url)

    @settings(max_examples=1000, deadline=None)
    @given(
        url=url_shaped(
            _URL_CHARS, st.sampled_from(["://", ":/", "//", ":"]), _TAILS
        )
    )
    @example(url="http://foo.akamaihd.net/master.m3u8")
    @example(url="http://bar.llwnd.net//Z53TiGRzq.mpd")
    @example(url="http://baz.level3.net/56.ism/manifest")
    @example(url="http://qux.aws.com/cache/hds.f4m")
    @example(url="rtmp://x/live/ch1.mp4")
    @example(url="HTTP://X/MASTER.M3U8")
    @example(url="http://x/v.mpd?token=abc.m3u8")
    @example(url="http://x/a.ism;params/manifest")
    @example(url="http://x/a.m3u8#frag.mpd")
    @example(url="http://[::1]/x.m3u8")
    @example(url="http://[::1/x.m3u8")
    @example(url=" http://x/a.m3u8")
    @example(url="http://x/a\x00.m3u8")
    @example(url="http://ü.example/a.m3u8")
    def test_url_shaped(self, url):
        expected = _reference_or_none(url)
        assert detect_protocol_or_none(url) == expected
        if expected is None:
            with pytest.raises(ProtocolDetectionError):
                detect_protocol(url)
        else:
            assert detect_protocol(url) is expected
