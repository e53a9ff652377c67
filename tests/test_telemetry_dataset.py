"""The Dataset container (repro.telemetry.dataset)."""

import gzip
import json
import math
from datetime import date

import pytest

from repro import figures, obs
from repro.constants import ContentType
from repro.errors import DatasetError
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator
from repro.telemetry.dataset import Dataset, encode_lines
from tests.test_telemetry_records import make_record


@pytest.fixture
def small_dataset():
    return Dataset(
        [
            make_record(
                snapshot=date(2016, 1, 4),
                publisher_id="p1",
                weight=10,
                view_duration_hours=1.0,
            ),
            make_record(
                snapshot=date(2016, 1, 4),
                publisher_id="p2",
                weight=5,
                view_duration_hours=2.0,
                video_id="vid_y",
            ),
            make_record(
                snapshot=date(2018, 3, 12),
                publisher_id="p1",
                weight=2,
                view_duration_hours=0.5,
                content_type=ContentType.LIVE,
            ),
        ]
    )


class TestSlicing:
    def test_snapshots_sorted(self, small_dataset):
        assert small_dataset.snapshots() == [
            date(2016, 1, 4),
            date(2018, 3, 12),
        ]

    def test_latest_and_first(self, small_dataset):
        assert small_dataset.latest_snapshot() == date(2018, 3, 12)
        assert small_dataset.first_snapshot() == date(2016, 1, 4)
        assert len(small_dataset.latest()) == 1

    def test_for_snapshot(self, small_dataset):
        snap = small_dataset.for_snapshot(date(2016, 1, 4))
        assert len(snap) == 2

    def test_missing_snapshot_raises(self, small_dataset):
        with pytest.raises(DatasetError):
            small_dataset.for_snapshot(date(2017, 1, 1))

    def test_empty_dataset_latest_raises(self):
        with pytest.raises(DatasetError):
            Dataset([]).latest_snapshot()

    def test_filter(self, small_dataset):
        live = small_dataset.filter(
            lambda r: r.content_type is ContentType.LIVE
        )
        assert len(live) == 1

    def test_exclude_publishers(self, small_dataset):
        rest = small_dataset.exclude_publishers(["p1"])
        assert rest.publishers() == {"p2"}


class TestAggregation:
    def test_totals(self, small_dataset):
        assert small_dataset.total_view_hours() == pytest.approx(
            10 * 1.0 + 5 * 2.0 + 2 * 0.5
        )
        assert small_dataset.total_views() == 17.0

    def test_publisher_view_hours(self, small_dataset):
        vh = small_dataset.publisher_view_hours()
        assert vh["p1"] == pytest.approx(11.0)
        assert vh["p2"] == pytest.approx(10.0)

    def test_view_hours_by_arbitrary_key(self, small_dataset):
        by_type = small_dataset.view_hours_by(lambda r: r.content_type)
        assert by_type[ContentType.LIVE] == pytest.approx(1.0)

    def test_views_by(self, small_dataset):
        by_pub = small_dataset.views_by(lambda r: r.publisher_id)
        assert by_pub["p1"] == 12.0

    def test_top_publishers(self, small_dataset):
        assert small_dataset.top_publishers(1) == ["p1"]
        assert small_dataset.top_publishers(0) == []
        with pytest.raises(DatasetError):
            small_dataset.top_publishers(-1)

    def test_distinct_video_ids(self, small_dataset):
        assert small_dataset.distinct_video_ids() == 2
        assert small_dataset.distinct_video_ids("p2") == 1


class TestExplode:
    def test_explode_preserves_aggregates(self, small_dataset):
        exploded = small_dataset.explode()
        assert len(exploded) == 17
        assert exploded.total_view_hours() == pytest.approx(
            small_dataset.total_view_hours()
        )
        assert exploded.total_views() == small_dataset.total_views()

    def test_explode_unit_weights(self, small_dataset):
        assert all(r.weight == 1.0 for r in small_dataset.explode())

    def test_explode_rejects_fractional_weights(self):
        dataset = Dataset([make_record(weight=1.5)])
        with pytest.raises(DatasetError):
            dataset.explode()


class TestPersistence:
    def test_jsonl_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        small_dataset.save(path)
        loaded = Dataset.load(path)
        assert loaded.records == small_dataset.records

    def test_gzip_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "data.jsonl.gz"
        small_dataset.save(path)
        assert Dataset.load(path).records == small_dataset.records

    def test_gzip_actually_compressed(self, small_dataset, tmp_path):
        plain = tmp_path / "a.jsonl"
        compressed = tmp_path / "a.jsonl.gz"
        small_dataset.save(plain)
        small_dataset.save(compressed)
        assert compressed.stat().st_size < plain.stat().st_size

    def test_gzip_bytes_do_not_depend_on_name_or_time(
        self, small_dataset, tmp_path
    ):
        first = tmp_path / "first.jsonl.gz"
        second = tmp_path / "renamed-copy.jsonl.gz"
        small_dataset.save(first)
        small_dataset.save(second)
        data = first.read_bytes()
        assert second.read_bytes() == data
        # Header: magic, deflate, no FNAME flag, MTIME zero.
        assert data[:8] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00"
        assert gzip.decompress(data) == encode_lines(small_dataset.records)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            Dataset.load(tmp_path / "nope.jsonl")

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"broken": true}\n')
        with pytest.raises(DatasetError) as excinfo:
            Dataset.load(path)
        assert "bad.jsonl:1" in str(excinfo.value)

    def test_blank_lines_skipped(self, small_dataset, tmp_path):
        path = tmp_path / "gaps.jsonl"
        text = "\n".join(r.to_json() for r in small_dataset) + "\n\n\n"
        path.write_text(text)
        assert len(Dataset.load(path)) == 3


class TestLoadLimit:
    @pytest.fixture
    def saved(self, small_dataset, tmp_path):
        path = tmp_path / "limited.jsonl"
        small_dataset.save(path)
        return path, small_dataset

    def test_limit_is_an_exact_prefix(self, saved):
        path, dataset = saved
        assert Dataset.load(path, limit=2).records == dataset.records[:2]

    def test_limit_zero_loads_nothing(self, saved):
        path, _ = saved
        loaded = Dataset.load(path, limit=0)
        assert len(loaded) == 0
        assert loaded.records == ()

    def test_limit_beyond_length_loads_everything(self, saved):
        path, dataset = saved
        assert Dataset.load(path, limit=10_000).records == dataset.records

    def test_limit_equal_to_length_loads_everything(self, saved):
        path, dataset = saved
        loaded = Dataset.load(path, limit=len(dataset))
        assert loaded.records == dataset.records

    def test_negative_limit_raises_instead_of_truncating(self, saved):
        path, _ = saved
        with pytest.raises(DatasetError, match=">= 0.*-1"):
            Dataset.load(path, limit=-1)

    def test_negative_limit_checked_before_file_access(self, tmp_path):
        # The argument error wins over the missing-file error.
        with pytest.raises(DatasetError, match=">= 0"):
            Dataset.load(tmp_path / "absent.jsonl", limit=-5)


class TestLoadErrors:
    """Every unreadable input surfaces as a DatasetError with its location."""

    @staticmethod
    def _line(**overrides):
        data = make_record().to_json_dict()
        data.update(overrides)
        return json.dumps(data)

    def _load_error(self, path):
        with pytest.raises(DatasetError) as excinfo:
            Dataset.load(path)
        assert str(path) in str(excinfo.value)
        return str(excinfo.value)

    def test_truncated_gzip(self, small_dataset, tmp_path):
        path = tmp_path / "cut.jsonl.gz"
        small_dataset.save(path)
        path.write_bytes(path.read_bytes()[:-12])
        self._load_error(path)

    @pytest.mark.parametrize(
        "payload", [b"not gzip at all\n", b"\x1f\x8b\x63garbage"]
    )
    def test_gz_file_that_is_not_gzip(self, tmp_path, payload):
        path = tmp_path / "fake.jsonl.gz"
        path.write_bytes(payload)
        self._load_error(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(self._line().encode() + b"\n\xff\xfe\n")
        self._load_error(path)

    @pytest.mark.parametrize("line", ["[1, 2]", "42"])
    def test_line_that_is_not_an_object(self, tmp_path, line):
        path = tmp_path / "scalar.jsonl"
        path.write_text(self._line() + "\n" + line + "\n")
        assert f"{path}:2" in self._load_error(path)

    @pytest.mark.parametrize(
        "line", ["[" * 100_000, "1" * 5_000], ids=["deep", "long-int"]
    )
    def test_line_the_json_decoder_cannot_hold(self, tmp_path, line):
        path = tmp_path / "deep.jsonl"
        path.write_text(self._line() + "\n" + line + "\n")
        assert f"{path}:2" in self._load_error(path)

    def test_cdn_names_not_a_list(self, tmp_path):
        path = tmp_path / "cdn.jsonl"
        path.write_text(self._line(cdn_names=5) + "\n")
        assert f"{path}:1" in self._load_error(path)

    def test_directory_path(self, tmp_path):
        self._load_error(tmp_path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"view_duration_hours": math.nan},
            {"view_duration_hours": math.inf},
            {"weight": math.nan},
            {"weight": math.inf},
            {"avg_bitrate_kbps": math.nan},
            {"bitrate_ladder_kbps": [150.0, math.nan, 2400.0]},
        ],
        ids=lambda o: f"{next(iter(o))}={next(iter(o.values()))}",
    )
    def test_non_finite_measures(self, tmp_path, overrides):
        path = tmp_path / "nan.jsonl"
        path.write_text(self._line() + "\n" + self._line(**overrides) + "\n")
        assert f"{path}:2" in self._load_error(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("url", 5),
            ("device_model", ["x"]),
            ("cdn_names", "AB"),
            ("cdn_names", [1]),
            ("video_id", None),
            ("publisher_id", 7),
            ("is_syndicated", "no"),
            ("weight", True),
        ],
        ids=lambda v: v if isinstance(v, str) else json.dumps(v),
    )
    def test_mistyped_field(self, tmp_path, field, value):
        """A field of the wrong JSON type fails at load time, naming the
        field, rather than loading and breaking an analysis later."""
        path = tmp_path / "typed.jsonl"
        path.write_text(self._line(**{field: value}) + "\n")
        message = self._load_error(path)
        assert f"{path}:1" in message
        assert repr(field) in message


class TestRepr:
    def test_repr_mentions_shape(self, small_dataset):
        text = repr(small_dataset)
        assert "3 records" in text
        assert "2 snapshots" in text
        assert "2 publishers" in text


@pytest.fixture
def counting_obs():
    """The global obs context, on and empty; off and empty afterwards."""
    ctx = obs.configure(enabled=True)
    ctx.reset()
    yield ctx
    ctx.configure(enabled=False)
    ctx.reset()


def _records_built() -> float:
    return obs.metrics().counter("dataset.records_built").value


class TestLazyRecords:
    """A synthesized dataset keeps columns; records are built for the
    callers that ask for them, once."""

    def test_the_longitudinal_figures_build_no_records(self, counting_obs):
        config = EcosystemConfig(
            seed=2018, n_publishers=30, snapshot_limit=3,
            include_case_study=False,
        )
        case_study = {"F15", "F16", "F17", "F18", "X2", "X3"}
        ids = [i for i in figures.figure_ids() if i not in case_study]
        assert len(ids) == 32
        rows = figures.run_suite(config, ids=ids)
        assert all(rows[i] for i in ids)
        assert _records_built() == 0

    def test_records_are_built_once(self, counting_obs):
        dataset = EcosystemGenerator(
            EcosystemConfig(seed=7, n_publishers=20, snapshot_limit=2)
        ).generate().dataset
        assert _records_built() == 0
        records = dataset.records
        assert len(records) == len(dataset)
        assert _records_built() == len(dataset)
        assert dataset.records is records
        assert dataset.latest().records
        assert _records_built() == len(dataset)
