"""View records and their serialization (repro.telemetry.records)."""

import math
from datetime import date

import pytest

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
