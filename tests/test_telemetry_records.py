"""View records and their serialization (repro.telemetry.records)."""

import dataclasses
import json
import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ConnectionType, ContentType
from repro.errors import DatasetError
from repro.telemetry.records import ViewRecord


def make_record(**overrides):
    kwargs = dict(
        snapshot=date(2018, 3, 12),
        publisher_id="pub_001",
        url="http://a.cdn.example.net/vid_x/master.m3u8",
        device_model="roku-ultra",
        os_name="roku",
        cdn_names=("A",),
        bitrate_ladder_kbps=(150.0, 600.0, 2400.0),
        view_duration_hours=0.4,
        avg_bitrate_kbps=1800.0,
        rebuffer_ratio=0.01,
        content_type=ContentType.VOD,
        video_id="vid_x",
        weight=25.0,
        sdk_name="RokuSDK",
        sdk_version="8.1",
    )
    kwargs.update(overrides)
    return ViewRecord(**kwargs)


class TestDerivedProperties:
    def test_view_hours_is_weight_times_duration(self):
        record = make_record(weight=25.0, view_duration_hours=0.4)
        assert record.view_hours == pytest.approx(10.0)

    def test_views_equals_weight(self):
        assert make_record(weight=7).views == 7.0

    def test_app_view_flag(self):
        assert make_record().is_app_view
        browser = make_record(
            sdk_name=None, sdk_version=None, user_agent="Mozilla/5.0"
        )
        assert not browser.is_app_view


class TestValidation:
    def test_missing_publisher(self):
        with pytest.raises(DatasetError):
            make_record(publisher_id="")

    def test_missing_url(self):
        with pytest.raises(DatasetError):
            make_record(url="")

    def test_missing_cdns(self):
        with pytest.raises(DatasetError):
            make_record(cdn_names=())

    def test_negative_duration(self):
        with pytest.raises(DatasetError):
            make_record(view_duration_hours=-0.1)

    def test_nonpositive_weight(self):
        with pytest.raises(DatasetError):
            make_record(weight=0)

    def test_rebuffer_ratio_bounds(self):
        with pytest.raises(DatasetError):
            make_record(rebuffer_ratio=1.5)
        with pytest.raises(DatasetError):
            make_record(rebuffer_ratio=-0.1)

    def test_negative_bitrate(self):
        with pytest.raises(DatasetError):
            make_record(avg_bitrate_kbps=-1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"view_duration_hours": math.nan},
            {"view_duration_hours": math.inf},
            {"weight": math.nan},
            {"weight": math.inf},
            {"avg_bitrate_kbps": math.nan},
            {"bitrate_ladder_kbps": (150.0, math.nan)},
            {"bitrate_ladder_kbps": (math.inf,)},
        ],
        ids=lambda o: f"{next(iter(o))}={next(iter(o.values()))}",
    )
    def test_non_finite_values_rejected(self, overrides):
        with pytest.raises(DatasetError):
            make_record(**overrides)


class TestSerialization:
    def test_json_roundtrip(self):
        record = make_record(
            is_syndicated=True,
            owner_id="pub_000",
            isp="X",
            geo="CA",
            connection=ConnectionType.CELLULAR_4G,
        )
        assert ViewRecord.from_json(record.to_json()) == record

    def test_json_is_single_line(self):
        assert "\n" not in make_record().to_json()

    def test_enum_fields_serialized_as_values(self):
        data = make_record().to_json_dict()
        assert data["content_type"] == "vod"
        assert data["connection"] == "wifi"
        assert data["snapshot"] == "2018-03-12"

    def test_default_weight_on_load(self):
        data = make_record().to_json_dict()
        del data["weight"]
        assert ViewRecord.from_json_dict(data).weight == 1.0

    def test_malformed_json_rejected(self):
        with pytest.raises(DatasetError):
            ViewRecord.from_json("{not json")

    def test_missing_field_rejected(self):
        data = make_record().to_json_dict()
        del data["url"]
        with pytest.raises(DatasetError):
            ViewRecord.from_json_dict(data)

    def test_bad_enum_value_rejected(self):
        data = make_record().to_json_dict()
        data["content_type"] = "broadcast"
        with pytest.raises(DatasetError):
            ViewRecord.from_json_dict(data)

    def test_ladder_parsed_to_floats(self):
        data = make_record().to_json_dict()
        record = ViewRecord.from_json_dict(data)
        assert record.bitrate_ladder_kbps == (150.0, 600.0, 2400.0)


def reference_json(record):
    """The line encoding through ``dataclasses.asdict``: a deep copy of
    every field, then the JSON form of dates, enums and tuples."""
    data = dataclasses.asdict(record)
    data["snapshot"] = record.snapshot.isoformat()
    data["content_type"] = record.content_type.value
    data["connection"] = record.connection.value
    data["cdn_names"] = list(record.cdn_names)
    data["bitrate_ladder_kbps"] = list(record.bitrate_ladder_kbps)
    return json.dumps(data, separators=(",", ":"))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_optional_text = st.none() | st.text(max_size=8)
_records = st.builds(
    ViewRecord,
    snapshot=st.dates(),
    publisher_id=st.text(min_size=1, max_size=8),
    url=st.text(min_size=1, max_size=12),
    device_model=st.text(max_size=8),
    os_name=st.text(max_size=8),
    cdn_names=st.lists(
        st.text(min_size=1, max_size=3), min_size=1, max_size=4
    ).map(tuple),
    bitrate_ladder_kbps=st.lists(_finite, max_size=5).map(tuple),
    view_duration_hours=st.floats(min_value=0.0, max_value=1e6),
    avg_bitrate_kbps=st.floats(min_value=0.0, max_value=1e6),
    rebuffer_ratio=st.floats(min_value=0.0, max_value=1.0),
    content_type=st.sampled_from(ContentType),
    video_id=st.text(max_size=8),
    weight=st.integers(min_value=1, max_value=500)
    | st.floats(min_value=1e-9, max_value=1e9),
    user_agent=_optional_text,
    sdk_name=_optional_text,
    sdk_version=_optional_text,
    is_syndicated=st.booleans(),
    owner_id=_optional_text,
    isp=_optional_text,
    geo=_optional_text,
    connection=st.sampled_from(ConnectionType),
)


@pytest.mark.robustness
class TestCodecReference:
    """The field-table codec writes the lines ``asdict`` wrote."""

    @settings(max_examples=300, deadline=None)
    @given(_records)
    def test_to_json_matches_the_asdict_reference(self, record):
        assert record.to_json() == reference_json(record)
        assert ViewRecord.from_json(record.to_json()) == record

    def test_edge_shapes(self):
        for record in (
            make_record(bitrate_ladder_kbps=()),
            make_record(cdn_names=("A", "B", "C")),
            make_record(sdk_name=None, sdk_version=None, user_agent=None),
            make_record(owner_id="pub_000", isp="X", geo="CA", weight=7),
        ):
            assert record.to_json() == reference_json(record)

    def test_synthesized_records(self, dataset):
        for record in dataset.records[::97]:
            assert record.to_json() == reference_json(record)
