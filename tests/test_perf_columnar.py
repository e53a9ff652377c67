"""Performance suite: columnar/row parity and parallel determinism.

Four guarantees back the column store (DESIGN.md §10):

* **mask views** — ``filter``/``for_snapshot``/``exclude_publishers``
  return zero-copy views sharing the parent's column store, and views
  compose arbitrarily;
* **parity** — every figure and every dataset aggregation returns the
  same answer on the column store as on the row-at-a-time reference,
  :class:`~repro.testkit.reference.RowDataset` (floats compared with
  ``isclose``: summation order differs);
* **classification once** — a derived column calls its function once
  per distinct source value, so the records-only figures parse each
  distinct URL once;
* **determinism** — a parallel (``jobs=N``) synthesis is byte-identical
  to the serial build.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import figures, obs
from repro.constants import ContentType, Platform
from repro.core.dimensions import (
    HTTP_PROTOCOL_COLUMN,
    PROTOCOL_COLUMN,
    CdnDimension,
    FamilyDimension,
    PlatformDimension,
)
from repro.packaging.manifest import detect
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import (
    EcosystemGenerator,
    generate_default_dataset,
)
from repro.telemetry.dataset import Dataset
from repro.testkit.differential import _GROUPED_VS_LOOP, _outcome
from repro.testkit.reference import RowDataset
from tests.test_telemetry_records import make_record

pytestmark = pytest.mark.perf

GOLDEN_PATH = Path(__file__).parent / "golden" / "figures_seed2018_s6.json"
QOE_GOLDEN_PATH = Path(__file__).parent / "golden" / "qoe_seed2018_s6.json"

#: Figures captured in the golden file: deterministic rows without NaN
#: cells (NaN is not valid JSON).
GOLDEN_FIGURES = (
    "T1", "F2a", "F2b", "F2c", "F3a", "F3c", "F6a", "F7",
    "F9a", "F11a", "F11b", "F12a", "F18", "S41R",
)

#: Playback-simulated figures, pinned bit-exact: the batched session
#: kernel must reproduce the scalar loop's floats, not approximate them.
QOE_GOLDEN_FIGURES = ("F15", "F16", "X2")

CLASSIFIED_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "classified_seed2018_s6.json"
)

#: Figures whose analyses classify views by protocol, platform or CDN,
#: pinned as their exact JSON text: ``json.dumps`` writes every float
#: in full (F13's NaN cell included), so equal text is equal rows.
CLASSIFIED_GOLDEN_FIGURES = ("F4", "F8", "F13", "X1", "X4")


def _rows_close(actual, expected, rel=1e-9):
    """Row-list equality with isclose on floats (NaN equals NaN)."""
    assert len(actual) == len(expected), (
        f"{len(actual)} rows != {len(expected)} rows"
    )
    for row_a, row_b in zip(actual, expected):
        assert set(row_a) == set(row_b)
        for column in row_a:
            value_a, value_b = row_a[column], row_b[column]
            if isinstance(value_a, float) or isinstance(value_b, float):
                both_nan = (
                    isinstance(value_a, float)
                    and isinstance(value_b, float)
                    and math.isnan(value_a)
                    and math.isnan(value_b)
                )
                assert both_nan or value_a == pytest.approx(
                    value_b, rel=rel, abs=1e-12
                ), f"{column}: {value_a} != {value_b}"
            else:
                assert value_a == value_b, (
                    f"{column}: {value_a!r} != {value_b!r}"
                )


def _dicts_close(a, b, rel=1e-9):
    assert set(a) == set(b)
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=rel, abs=1e-12), (
            f"{key}: {a[key]} != {b[key]}"
        )


def _classified_texts(result):
    """Each classified figure's rows as sorted-key JSON text."""
    return {
        figure_id: json.dumps(
            figures.run_figure(figure_id, result), sort_keys=True
        )
        for figure_id in CLASSIFIED_GOLDEN_FIGURES
    }


def write_classified_golden(path: Path = CLASSIFIED_GOLDEN_PATH) -> None:
    """Re-record the classified figures' golden (a deliberate change)."""
    result = generate_default_dataset(seed=2018, snapshot_limit=6)
    text = json.dumps(_classified_texts(result), indent=1, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _row_backed(result):
    """The same ecosystem with the dataset on the row reference."""
    return dataclasses.replace(
        result, dataset=RowDataset(result.dataset.records)
    )


# ---------------------------------------------------------------------------
# Mask-view composition
# ---------------------------------------------------------------------------


class TestMaskViews:
    def _records(self):
        records = []
        for day, publisher, video, kind in (
            (0, "p1", "vid_a", ContentType.VOD),
            (0, "p1", "vid_b", ContentType.LIVE),
            (0, "p2", "vid_a", ContentType.VOD),
            (14, "p1", "vid_c", ContentType.VOD),
            (14, "p2", "vid_a", ContentType.LIVE),
            (14, "p3", "vid_d", ContentType.VOD),
        ):
            records.append(
                make_record(
                    snapshot=date(2016, 1, 4) + timedelta(days=day),
                    publisher_id=publisher,
                    video_id=video,
                    content_type=kind,
                )
            )
        return tuple(records)

    def test_views_share_the_parent_store(self):
        dataset = Dataset(self._records())
        snap = dataset.for_snapshot(date(2016, 1, 4))
        live = snap.filter(lambda r: r.content_type is ContentType.LIVE)
        assert snap._store is dataset._store
        assert live._store is dataset._store
        assert len(snap) == 3 and len(live) == 1

    def test_filter_of_filter_composes(self):
        dataset = Dataset(self._records())
        p1 = dataset.filter(lambda r: r.publisher_id == "p1")
        vod = p1.filter(lambda r: r.content_type is ContentType.VOD)
        assert {r.video_id for r in vod} == {"vid_a", "vid_c"}
        assert vod._store is dataset._store

    def test_exclude_then_snapshot(self):
        dataset = Dataset(self._records())
        rest = dataset.exclude_publishers(["p1"])
        snap = rest.for_snapshot(date(2016, 1, 18))
        assert snap.publishers() == {"p2", "p3"}
        assert snap._store is dataset._store

    def test_snapshot_then_exclude_matches_reverse_order(self):
        dataset = Dataset(self._records())
        a = dataset.for_snapshot(date(2016, 1, 4)).exclude_publishers(
            ["p2"]
        )
        b = dataset.exclude_publishers(["p2"]).for_snapshot(
            date(2016, 1, 4)
        )
        assert a.records == b.records

    def test_views_do_not_mutate_the_parent(self):
        dataset = Dataset(self._records())
        dataset.filter(lambda r: False)
        dataset.exclude_publishers(["p1", "p2", "p3"])
        assert len(dataset) == 6
        assert dataset.total_views() == pytest.approx(6 * 25.0)

    def test_view_aggregations_match_rebuilt_dataset(self):
        dataset = Dataset(self._records())
        view = dataset.exclude_publishers(["p3"]).filter(
            lambda r: r.content_type is ContentType.VOD
        )
        rebuilt = Dataset(view.records)
        _dicts_close(
            view.view_hours_by("publisher_id"),
            rebuilt.view_hours_by("publisher_id"),
        )
        assert view.distinct_video_ids() == rebuilt.distinct_video_ids()

    def test_view_caches_are_per_view(self):
        dataset = Dataset(self._records())
        snap = dataset.for_snapshot(date(2016, 1, 4))
        assert dataset.for_snapshot(date(2016, 1, 4)) is snap
        assert snap.snapshots() == [date(2016, 1, 4)]
        assert sorted(dataset.snapshots()) == [
            date(2016, 1, 4),
            date(2016, 1, 18),
        ]

    def test_obs_counters_track_dispatch(self):
        ctx = obs.configure(enabled=True)
        ctx.reset()
        try:
            dataset = Dataset(self._records())
            dataset.view_hours_by("publisher_id")
            dataset.filter(lambda r: True)
            hits = obs.metrics().counter("dataset.columnar_hits").value
            fallbacks = obs.metrics().counter(
                "dataset.row_fallbacks"
            ).value
            assert hits >= 1
            assert fallbacks >= 1
        finally:
            ctx.configure(enabled=False)
            ctx.reset()


# ---------------------------------------------------------------------------
# Row-reference/column-store aggregation parity (property-based)
# ---------------------------------------------------------------------------

_SNAPSHOTS = (date(2016, 1, 4), date(2017, 1, 2), date(2018, 3, 12))
_PUBLISHERS = ("p1", "p2", "p3", "p4")

#: One URL per Table 1 shape, plus one that classifies to nothing and
#: one whose manifest extension is followed by a query string.
_URLS = (
    "http://a.example/v/master.m3u8",
    "http://a.example/v/stream.mpd",
    "http://a.example/v/video.ism/manifest",
    "http://a.example/v/stream.f4m",
    "rtmp://a.example/live/v",
    "http://a.example/v/clip.mp4",
    "http://a.example/v/page.xyz",
    "http://a.example/v/master.m3u8?token=abc&start=10",
)

#: Known models across three platforms, and two unknown ones.
_DEVICE_MODELS = (
    "roku-ultra", "appletv-4k", "chrome-html5", "safari-flash",
    "iphone", "android-phone", "fridge", "toaster-9000",
)

_record_st = st.builds(
    make_record,
    snapshot=st.sampled_from(_SNAPSHOTS),
    publisher_id=st.sampled_from(_PUBLISHERS),
    url=st.sampled_from(_URLS),
    device_model=st.sampled_from(_DEVICE_MODELS),
    video_id=st.sampled_from(("vid_a", "vid_b", "vid_c")),
    cdn_names=st.lists(
        st.sampled_from(("A", "B", "C")), min_size=1, max_size=3
    ).map(tuple),
    weight=st.integers(min_value=1, max_value=5).map(float),
    view_duration_hours=st.floats(
        min_value=0.01, max_value=4.0, allow_nan=False
    ),
    content_type=st.sampled_from(ContentType),
    sdk_name=st.sampled_from(("RokuSDK", "WebSDK", None)),
)


#: ``_record_st`` with the client and syndication fields varied too.
_client_record_st = st.builds(
    dataclasses.replace,
    _record_st,
    sdk_name=st.sampled_from(("RokuSDK", "WebSDK", "", None)),
    sdk_version=st.sampled_from(("8.1", "9.0", "", None)),
    user_agent=st.sampled_from(("Mozilla/5.0", None)),
    is_syndicated=st.booleans(),
    owner_id=st.sampled_from(("p1", "p2", "", None)),
)


class TestAggregationParity:
    @given(
        records=st.lists(_client_record_st, min_size=1, max_size=40),
        dropped=st.sets(st.sampled_from(_PUBLISHERS), max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_grouped_analyses_equal_their_record_loops(
        self, records, dropped
    ):
        """F13's SDK count, F14's syndicator counts and §4.3's CDN
        statistics group columns; each equals the record loop it
        replaced with ``==``, on views of up to three CDNs (repeats
        included) and on the root, a snapshot and an exclusion view."""
        dataset = Dataset(records)
        views = (
            dataset,
            dataset.for_snapshot(records[0].snapshot),
            dataset.exclude_publishers(dropped),
        )
        for view in views:
            if not len(view):
                continue
            for name, grouped, loop in _GROUPED_VS_LOOP:
                assert _outcome(grouped, view) == _outcome(loop, view), name

    @given(records=st.lists(_record_st, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_aggregations_agree(self, records):
        columnar = Dataset(records)
        row = RowDataset(records)
        assert columnar.snapshots() == row.snapshots()
        assert columnar.publishers() == row.publishers()
        assert columnar.total_view_hours() == pytest.approx(
            row.total_view_hours()
        )
        for key in ("publisher_id", "snapshot", "sdk_name",
                    PROTOCOL_COLUMN):
            _dicts_close(
                columnar.view_hours_by(key), row.view_hours_by(key)
            )
            _dicts_close(columnar.views_by(key), row.views_by(key))
        _dicts_close(
            columnar.publisher_view_hours(), row.publisher_view_hours()
        )
        assert columnar.distinct_video_ids() == row.distinct_video_ids()
        for publisher in columnar.publishers():
            assert columnar.distinct_video_ids(
                publisher
            ) == row.distinct_video_ids(publisher)
        assert columnar.publishers_per_value(
            "video_id"
        ) == row.publishers_per_value("video_id")
        assert columnar.values_per_publisher(
            "video_id"
        ) == row.values_per_publisher("video_id")

    @given(
        records=st.lists(_record_st, min_size=1, max_size=40),
        dropped=st.sets(st.sampled_from(_PUBLISHERS), max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_multi_valued_column_agrees(self, records, dropped):
        """A view's k CDNs each carry 1/k of it, in record order, so the
        store's sums equal the row loop's exactly.  Derived columns
        classify each distinct URL or device once, yet their values
        keep the row loop's first-appearance order: on the whole
        dataset, results keyed by value iterate in the same order.  (A
        view keeps its store's order, and ``values_per_publisher`` is
        keyed by publisher.)"""
        records = [
            *records,
            make_record(publisher_id="p1", cdn_names=("B", "B", "C")),
        ]
        keys = (
            CdnDimension.column_key,
            HTTP_PROTOCOL_COLUMN,
            PlatformDimension.column_key,
            FamilyDimension(Platform.BROWSER).column_key,
        )
        columnar, row = Dataset(records), RowDataset(records)
        snapshot = records[0].snapshot
        views = [
            (columnar, row),
            (columnar.for_snapshot(snapshot), row.for_snapshot(snapshot)),
            (
                columnar.exclude_publishers(dropped),
                row.exclude_publishers(dropped),
            ),
        ]
        methods = (
            "view_hours_by",
            "views_by",
            "publishers_per_value",
            "values_per_publisher",
        )
        for col_view, row_view in views:
            for key, method in itertools.product(keys, methods):
                expected = getattr(row_view, method)(key)
                actual = getattr(col_view, method)(key)
                assert actual == expected, (key, method)
                if col_view is columnar and method in methods[:3]:
                    assert list(actual) == list(expected), (key, method)

    @given(records=st.lists(_record_st, min_size=1, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_explode_preserves_aggregations(self, records):
        weighted = Dataset(records)
        exploded = weighted.explode()
        assert len(exploded) == int(
            sum(r.weight for r in records)
        )
        assert exploded.total_views() == pytest.approx(
            weighted.total_views()
        )
        _dicts_close(
            exploded.view_hours_by("publisher_id"),
            weighted.view_hours_by("publisher_id"),
            rel=1e-7,
        )
        assert exploded.distinct_video_ids() == (
            weighted.distinct_video_ids()
        )

    @given(records=st.lists(_record_st, min_size=1, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_callable_keys_fall_back_identically(self, records):
        columnar = Dataset(records)
        row = RowDataset(records)
        key = lambda r: (r.publisher_id, r.content_type)  # noqa: E731
        _dicts_close(columnar.view_hours_by(key), row.view_hours_by(key))


# ---------------------------------------------------------------------------
# Classification runs once per distinct URL
# ---------------------------------------------------------------------------


class TestClassifyOnce:
    #: The figures that simulate playback; every other figure reads
    #: only the synthesized records.
    QOE_IDS = ("F15", "F16", "F17", "F18", "X2", "X3")

    def test_figures_parse_each_distinct_url_once(self, monkeypatch):
        """The records-only figures at the ``longitudinal`` benchmark's
        shape parse each distinct URL once, plus Table 1's five sample
        URLs, however many views and figures read the protocol."""
        config = EcosystemConfig(
            seed=2018, n_publishers=30, snapshot_limit=3,
            include_case_study=False,
        )
        result = EcosystemGenerator(config).generate()
        original = detect.detect_protocol_or_none
        calls = []

        def spy(url):
            calls.append(url)
            return original(url)

        for module in list(sys.modules.values()):
            if getattr(module, "detect_protocol_or_none", None) is original:
                monkeypatch.setattr(module, "detect_protocol_or_none", spy)
        ids = [i for i in figures.figure_ids() if i not in self.QOE_IDS]
        assert len(ids) == 32
        for figure_id in ids:
            figures.run_figure(figure_id, result)
        urls = {record.url for record in result.dataset}
        assert len(calls) <= len(urls) + 5


# ---------------------------------------------------------------------------
# Figure parity across seeds (row reference vs column store)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eco_alt():
    """A second, differently seeded small build (parity across seeds)."""
    return generate_default_dataset(seed=7, snapshot_limit=3)


class TestFigureParity:
    def test_every_figure_matches_row_backend_seed2018(self, eco):
        row_backed = _row_backed(eco)
        for figure_id in figures.figure_ids():
            _rows_close(
                figures.run_figure(figure_id, eco),
                figures.run_figure(figure_id, row_backed),
            )

    def test_every_figure_matches_row_backend_alt_seed(self, eco_alt):
        row_backed = _row_backed(eco_alt)
        for figure_id in figures.figure_ids():
            _rows_close(
                figures.run_figure(figure_id, eco_alt),
                figures.run_figure(figure_id, row_backed),
            )


# ---------------------------------------------------------------------------
# Parallel synthesis determinism
# ---------------------------------------------------------------------------


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def builds(self):
        serial = generate_default_dataset(seed=99, snapshot_limit=3)
        parallel = generate_default_dataset(
            seed=99, snapshot_limit=3, jobs=2
        )
        return serial, parallel

    def test_records_identical(self, builds):
        serial, parallel = builds
        assert serial.dataset.records == parallel.dataset.records

    def test_saved_bytes_identical(self, builds, tmp_path):
        serial, parallel = builds
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial.dataset.save(serial_path)
        parallel.dataset.save(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_figure_rows_identical(self, builds):
        serial, parallel = builds
        for figure_id in ("F2a", "F6a", "F12a", "S44"):
            _rows_close(
                figures.run_figure(figure_id, serial),
                figures.run_figure(figure_id, parallel),
                rel=0,
            )


# ---------------------------------------------------------------------------
# Golden figures (seed 2018, 6 snapshots)
# ---------------------------------------------------------------------------


class TestGoldenFigures:
    def test_figures_match_golden_rows(self, eco):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert sorted(golden) == sorted(GOLDEN_FIGURES)
        for figure_id in GOLDEN_FIGURES:
            _rows_close(
                figures.run_figure(figure_id, eco), golden[figure_id]
            )

    def test_qoe_figures_match_golden_rows_exactly(self, eco):
        golden = json.loads(QOE_GOLDEN_PATH.read_text(encoding="utf-8"))
        assert sorted(golden) == sorted(QOE_GOLDEN_FIGURES)
        for figure_id in QOE_GOLDEN_FIGURES:
            assert figures.run_figure(figure_id, eco) == golden[figure_id]

    def test_classified_figures_match_golden_text(self, eco):
        golden = json.loads(
            CLASSIFIED_GOLDEN_PATH.read_text(encoding="utf-8")
        )
        assert sorted(golden) == sorted(CLASSIFIED_GOLDEN_FIGURES)
        texts = _classified_texts(eco)
        for figure_id in CLASSIFIED_GOLDEN_FIGURES:
            assert texts[figure_id] == golden[figure_id], figure_id


if __name__ == "__main__":
    write_classified_golden()
