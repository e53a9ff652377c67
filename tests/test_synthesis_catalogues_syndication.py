"""Catalogues, ladders, syndication graph, case study (repro.synthesis)."""

import numpy as np
import pytest

from repro.constants import SyndicationRole
from repro.errors import CalibrationError
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import (
    build_case_catalogue,
    case_video_id,
    publisher_ladder,
    sample_video_index,
    video_id_for,
    zipf_cdf,
)
from repro.synthesis.population import generate_publishers
from repro.synthesis.syndication import (
    CaseStudy,
    assign_case_study,
    build_syndication_graph,
    invert_graph,
)


class TestPublisherLadders:
    def test_bigger_publishers_deeper_ladders(self, rng):
        publishers = generate_publishers(rng, 80)
        big = publisher_ladder(rng, publishers[0])
        small = publisher_ladder(rng, publishers[-1])
        assert len(big) > len(small)
        assert big.max_bitrate_kbps > small.max_bitrate_kbps

    def test_ladders_strictly_increasing(self, rng):
        for publisher in generate_publishers(rng, 40):
            ladder = publisher_ladder(rng, publisher)
            rates = ladder.bitrates_kbps
            assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_floor_near_hls_guideline(self, rng):
        for publisher in generate_publishers(rng, 40):
            ladder = publisher_ladder(rng, publisher)
            assert ladder.min_bitrate_kbps < 250


class TestVideoIds:
    def test_id_scheme_stable(self):
        assert video_id_for("pub_003", 7) == "vid_pub_003_00007"

    def test_zipf_concentrates_on_popular_titles(self, rng):
        cdf = zipf_cdf(1000)
        draws = [sample_video_index(rng, cdf) for _ in range(3000)]
        top10_share = sum(1 for d in draws if d < 10) / len(draws)
        assert top10_share > 0.25

    def test_zipf_within_bounds(self, rng):
        cdf = zipf_cdf(50)
        assert all(
            0 <= sample_video_index(rng, cdf) < 50 for _ in range(500)
        )

    def test_single_title_catalogue(self, rng):
        state = rng.bit_generator.state
        assert sample_video_index(rng, zipf_cdf(1)) == 0
        assert rng.bit_generator.state == state  # nothing drawn


class TestCaseCatalogue:
    def test_size_matches_calibration(self, rng):
        catalogue = build_case_catalogue(rng)
        assert len(catalogue) == cal.CASE_CATALOGUE_TITLES

    def test_case_video_belongs_to_catalogue(self, rng):
        assert case_video_id() in build_case_catalogue(rng)


class TestSyndicationGraph:
    @pytest.fixture(scope="class")
    def graph_and_publishers(self):
        rng = np.random.default_rng(11)
        publishers = generate_publishers(rng, 110)
        graph = build_syndication_graph(rng, publishers)
        return graph, publishers

    def test_every_owner_has_entry(self, graph_and_publishers):
        graph, publishers = graph_and_publishers
        owners = {
            p.publisher_id
            for p in publishers
            if p.role is SyndicationRole.OWNER
        }
        assert set(graph) == owners

    def test_links_point_at_full_syndicators(self, graph_and_publishers):
        graph, publishers = graph_and_publishers
        syndicators = {
            p.publisher_id
            for p in publishers
            if p.role is SyndicationRole.FULL_SYNDICATOR
        }
        for linked in graph.values():
            assert linked <= syndicators

    def test_most_owners_syndicate(self, graph_and_publishers):
        graph, _ = graph_and_publishers
        with_links = sum(1 for links in graph.values() if links)
        assert with_links / len(graph) > 0.7

    def test_invert_graph(self, graph_and_publishers):
        graph, _ = graph_and_publishers
        inverse = invert_graph(graph)
        for owner, links in graph.items():
            for syndicator in links:
                assert owner in inverse[syndicator]


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def study(self):
        rng = np.random.default_rng(13)
        publishers = generate_publishers(rng, 110)
        graph = build_syndication_graph(rng, publishers)
        return assign_case_study(rng, publishers, graph), graph

    def test_labels_cover_o_and_ten_syndicators(self, study):
        case, _ = study
        assert case.syndicator_labels == tuple(
            f"S{i}" for i in range(1, 11)
        )

    def test_owner_ladder_matches_paper(self, study):
        case, _ = study
        ladder = case.ladder("O")
        assert len(ladder) == 9
        assert ladder.max_bitrate_kbps > 8192

    def test_s1_seven_times_below_owner(self, study):
        case, _ = study
        ratio = case.ladder("O").max_bitrate_kbps / case.ladder(
            "S1"
        ).max_bitrate_kbps
        assert 6.5 < ratio < 8.5

    def test_ladder_size_spread(self, study):
        case, _ = study
        sizes = [len(case.ladder(label)) for label in case.syndicator_labels]
        assert min(sizes) == 3
        assert max(sizes) == 14

    def test_graph_wired_to_carry_owner_content(self, study):
        case, graph = study
        for label in case.syndicator_labels:
            assert case.publisher_id(label) in graph[case.owner_id]

    def test_unknown_label_rejected(self, study):
        case, _ = study
        with pytest.raises(CalibrationError):
            case.publisher_id("S99")


class TestCalibrationValidation:
    def test_default_calibration_is_valid(self):
        cal.validate_calibration()

    def test_bucket_fractions_sum_to_one(self):
        assert sum(cal.SIZE_BUCKET_FRACTIONS) == pytest.approx(1.0)

    def test_case_ladders_ascending(self):
        for rates in cal.CASE_STUDY_LADDERS.values():
            assert list(rates) == sorted(rates)

    def test_ladder_sizes_match_paper_targets(self):
        sizes = tuple(
            len(cal.CASE_STUDY_LADDERS[f"S{i}"]) for i in range(1, 11)
        )
        assert sizes == cal.PAPER.syndicator_ladder_sizes
