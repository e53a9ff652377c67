"""Durations (Fig 8), protocol share (Fig 4), complexity (Fig 13)."""

from datetime import date

import pytest

from repro.constants import Platform, Protocol
from repro.core.complexity import (
    fit_complexity,
    max_unique_sdks,
    publisher_complexity,
)
from repro.core.durations import duration_cdfs, long_view_fractions
from repro.core.protocol_share import (
    per_publisher_protocol_share,
    share_cdf,
    supporter_medians,
)
from repro.errors import AnalysisError
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


class TestDurations:
    def test_cdfs_cover_observed_platforms(self, latest):
        cdfs = duration_cdfs(latest)
        assert Platform.SET_TOP in cdfs
        assert Platform.MOBILE in cdfs

    def test_set_top_views_longer_than_mobile(self, latest):
        # Fig 8's core finding.
        fractions = long_view_fractions(latest, threshold_hours=0.2)
        assert fractions[Platform.SET_TOP] > 2 * fractions[Platform.MOBILE]

    def test_long_view_fractions_in_unit_interval(self, latest):
        for fraction in long_view_fractions(latest).values():
            assert 0.0 <= fraction <= 1.0

    def test_median_ordering(self, latest):
        cdfs = duration_cdfs(latest)
        assert cdfs[Platform.SET_TOP].median() > cdfs[Platform.MOBILE].median()

    def test_negative_threshold_rejected(self, latest):
        with pytest.raises(AnalysisError):
            long_view_fractions(latest, threshold_hours=-1)

    def test_unclassifiable_dataset_rejected(self):
        data = Dataset([make_record(device_model="fridge")])
        with pytest.raises(AnalysisError):
            duration_cdfs(data)


class TestProtocolShare:
    def _dataset(self):
        d = date(2018, 3, 12)
        return Dataset(
            [
                make_record(
                    snapshot=d, publisher_id="p1", weight=85,
                    view_duration_hours=1.0,
                ),
                make_record(
                    snapshot=d, publisher_id="p1", weight=15,
                    view_duration_hours=1.0, url="http://x/v.mpd",
                ),
                make_record(
                    snapshot=d, publisher_id="p2", weight=100,
                    view_duration_hours=1.0,
                ),
            ]
        )

    def test_shares_among_supporters_only(self):
        shares = per_publisher_protocol_share(
            self._dataset(), Protocol.DASH
        )
        assert set(shares) == {"p1"}
        assert shares["p1"] == pytest.approx(15.0)

    def test_hls_share(self):
        shares = per_publisher_protocol_share(self._dataset(), Protocol.HLS)
        assert shares["p1"] == pytest.approx(85.0)
        assert shares["p2"] == pytest.approx(100.0)

    def test_cdf_median(self):
        cdf = share_cdf(self._dataset(), Protocol.HLS)
        assert cdf.median() == pytest.approx(85.0)

    def test_unsupported_protocol_rejected(self):
        with pytest.raises(AnalysisError):
            per_publisher_protocol_share(self._dataset(), Protocol.HDS)

    def test_fig4_contrast_on_synthetic_data(self, latest):
        medians = supporter_medians(latest)
        # Fig 4: HLS supporters lean on HLS; DASH support is shallow.
        assert medians[Protocol.HLS] > 60.0
        assert medians[Protocol.DASH] < 30.0


class TestComplexity:
    def test_metrics_computed_per_publisher(self, latest, eco):
        metrics = publisher_complexity(latest, eco.catalogue_sizes)
        assert set(metrics) == latest.publishers()
        for m in metrics.values():
            assert m.combinations >= 1
            assert m.protocol_titles >= 1
            assert m.unique_sdks >= 1

    def test_catalogue_sizes_used_when_given(self, eco, latest):
        with_sizes = publisher_complexity(latest, eco.catalogue_sizes)
        without = publisher_complexity(latest, None)
        pid = max(
            eco.catalogue_sizes, key=lambda p: eco.catalogue_sizes[p]
        )
        # Telemetry under-samples large catalogues (§3 caveat).
        assert with_sizes[pid].protocol_titles > without[pid].protocol_titles

    def test_fits_are_sublinear_and_significant(self, latest, eco):
        fits = fit_complexity(publisher_complexity(latest, eco.catalogue_sizes))
        assert fits.all_sublinear()
        assert fits.all_significant(alpha=0.05)
        # The paper reports p-values below 1e-9.
        assert fits.combinations.p_value < 1e-9
        assert fits.protocol_titles.p_value < 1e-9
        assert fits.unique_sdks.p_value < 1e-9

    def test_slopes_near_paper(self, latest, eco):
        fits = fit_complexity(publisher_complexity(latest, eco.catalogue_sizes))
        assert 1.4 < fits.combinations.per_decade_factor < 2.4
        assert 3.0 < fits.protocol_titles.per_decade_factor < 4.6
        assert 1.4 < fits.unique_sdks.per_decade_factor < 2.2

    def test_max_unique_sdks_magnitude(self, latest, eco):
        biggest = max_unique_sdks(publisher_complexity(latest, eco.catalogue_sizes))
        assert 50 <= biggest <= 130  # paper: up to 85 code bases

    def test_empty_dataset_rejected(self):
        with pytest.raises(AnalysisError):
            publisher_complexity(Dataset([]), None)

    def test_fit_needs_enough_publishers(self):
        d = date(2018, 3, 12)
        data = Dataset([make_record(snapshot=d, publisher_id="p1")])
        with pytest.raises(AnalysisError):
            fit_complexity(publisher_complexity(data, None))

    def test_max_requires_metrics(self):
        with pytest.raises(AnalysisError):
            max_unique_sdks({})
