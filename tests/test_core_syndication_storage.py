"""Syndication analyses (Figs 14-17) and storage models (Fig 18)."""

from datetime import date

import pytest

from repro import figures
from repro.core.storage import (
    build_case_origins,
    figure18,
    savings_for_cdn,
    tolerance_sweep,
)
from repro.core.syndication import (
    ladders_for_video,
    prevalence_summary,
    qoe_comparison,
    syndication_cdf,
    syndicator_fraction_per_owner,
)
from repro.delivery.origin import OriginServer
from repro.errors import AnalysisError
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import case_video_id
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


class TestSyndicationPrevalence:
    def _dataset(self):
        d = date(2018, 3, 12)
        return Dataset(
            [
                # Owner o1's own content.
                make_record(
                    snapshot=d, publisher_id="o1", owner_id="o1",
                    video_id="vid_o1_1",
                ),
                # o1 syndicated by s1 and s2.
                make_record(
                    snapshot=d, publisher_id="s1", owner_id="o1",
                    is_syndicated=True, video_id="vid_o1_1",
                ),
                make_record(
                    snapshot=d, publisher_id="s2", owner_id="o1",
                    is_syndicated=True, video_id="vid_o1_1",
                ),
                # Owner o2: never syndicated.
                make_record(
                    snapshot=d, publisher_id="o2", owner_id="o2",
                    video_id="vid_o2_1",
                ),
            ]
        )

    def test_fraction_per_owner(self):
        fractions = syndicator_fraction_per_owner(self._dataset())
        assert fractions["o1"] == pytest.approx(100.0)  # 2 of 2 syndicators
        assert fractions["o2"] == 0.0

    def test_prevalence_summary(self):
        summary = prevalence_summary(self._dataset())
        assert summary["pct_owners_with_syndicator"] == 50.0

    def test_cdf_support(self):
        cdf = syndication_cdf(self._dataset())
        assert cdf.support == (0.0, 100.0)

    def test_no_syndication_rejected(self):
        d = date(2018, 3, 12)
        data = Dataset([make_record(snapshot=d)])
        with pytest.raises(AnalysisError):
            syndicator_fraction_per_owner(data)

    def test_fig14_shape_on_synthetic_data(self, dataset):
        summary = prevalence_summary(dataset)
        # §6: >80% of owners use at least one syndicator; ~20% reach a
        # third of all syndicators.
        assert summary["pct_owners_with_syndicator"] > 70.0
        assert 8.0 < summary["pct_owners_third_of_syndicators"] < 45.0


class TestCaseStudyCut:
    def test_case_video_views_are_the_cut_the_analyses_select(
        self, dataset, eco
    ):
        """Synthesis writes the case video's views on the §6 cut that
        Figs 15-17 filter on: one device, geo and connection, over the
        QoE (ISP, CDN) combinations, for the owner and every syndicator."""
        study = eco.case_study
        views = [r for r in dataset if r.video_id == case_video_id()]
        assert {(r.device_model, r.geo, r.connection) for r in views} == {
            (
                cal.CASE_STUDY_DEVICE,
                cal.CASE_STUDY_GEO,
                cal.CASE_STUDY_CONNECTION,
            )
        }
        assert {(r.isp, r.cdn_names) for r in views} == {
            (isp, (cdn_name,)) for isp, cdn_name in cal.QOE_COMBOS
        }
        assert {r.publisher_id for r in views} == {study.owner_id} | {
            study.publisher_id(label) for label in study.syndicator_labels
        }


class TestLadderDivergence:
    def test_ladders_for_case_video(self, dataset, eco):
        ladders = ladders_for_video(dataset, case_video_id())
        assert len(ladders) == 11  # owner + 10 syndicators

    def test_divergence_stats(self, eco):
        rows = {row["label"]: row for row in figures.run_figure("F17", eco)}
        rungs = [row["rungs"] for row in rows.values()]
        assert min(rungs) == 3 and max(rungs) == 14  # S2 vs S9 (Fig 17)
        # The owner's top rung is ~7x the weakest syndicator's (S1).
        weakest = min(
            row["max_kbps"] for label, row in rows.items() if label != "O"
        )
        assert weakest == rows["S1"]["max_kbps"]
        assert 6.5 < rows["O"]["max_kbps"] / weakest < 8.5

    def test_missing_video_rejected(self, dataset):
        with pytest.raises(AnalysisError):
            ladders_for_video(dataset, "vid_none")


class TestQoeComparison:
    @pytest.mark.parametrize("isp,cdn", [("X", "A"), ("Y", "B")])
    def test_owner_wins_on_both_combos(self, dataset, eco, isp, cdn):
        study = eco.case_study
        comparison = qoe_comparison(
            dataset,
            study.owner_id,
            study.publisher_id("S7"),
            case_video_id(),
            isp,
            cdn,
        )
        # Fig 15: ~2.5x median bitrate advantage for the owner.
        assert 1.8 < comparison.median_bitrate_gain() < 3.5
        # Fig 16: lower rebuffering for owner clients at the 90th pct.
        assert comparison.p90_rebuffer_reduction() > 0.15

    def test_missing_combo_rejected(self, dataset, eco):
        study = eco.case_study
        with pytest.raises(AnalysisError):
            qoe_comparison(
                dataset,
                study.owner_id,
                study.publisher_id("S7"),
                case_video_id(),
                "X",
                "E",
            )


class TestStorage:
    def test_origins_built_per_cdn(self, eco):
        origins = build_case_origins(eco.case_study)
        assert {"A", "B", "C", "D"} <= set(origins)
        # Common CDNs hold all three participants.
        assert len(origins["A"].publishers) == 3
        # Extra CDNs hold only their syndicator.
        assert len(origins["C"].publishers) == 1

    def test_fig18_matches_paper(self, eco):
        rows = figure18(eco.case_study)
        assert len(rows) == 2
        for row in rows:
            assert row.total_tb == pytest.approx(1916, rel=0.05)
            assert row.saved_pct_5pct == pytest.approx(16.5, abs=1.5)
            assert row.saved_pct_10pct == pytest.approx(45.2, abs=1.5)
            assert row.saved_pct_integrated == pytest.approx(65.6, abs=1.0)

    def test_both_common_cdns_identical(self, eco):
        rows = figure18(eco.case_study)
        assert rows[0].total_tb == pytest.approx(rows[1].total_tb)

    def test_tolerance_sweep_broadly_increasing(self, eco):
        # Greedy grouping anchors each group at its lowest rate, so a
        # larger tolerance can occasionally re-partition and save
        # slightly less; the sweep must still rise overall.
        sweep = tolerance_sweep(eco.case_study)
        percentages = [pct for _, pct in sweep]
        assert percentages[0] == pytest.approx(0.0, abs=0.1)
        assert percentages[-1] > percentages[0]
        assert max(percentages) == pytest.approx(
            max(percentages[-2:]), abs=3.0
        )
        for previous, current in zip(percentages, percentages[1:]):
            assert current > previous - 3.0

    def test_savings_for_empty_origin_rejected(self):
        with pytest.raises(AnalysisError):
            savings_for_cdn(OriginServer("Z"), "owner")
