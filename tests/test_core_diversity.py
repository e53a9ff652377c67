"""Diversity metrics (repro.core.diversity) — extension."""

import math

import pytest

from repro.core.diversity import (
    effective_choices,
    fit_diversity,
    mean_evenness,
    publisher_diversity,
    shannon_entropy,
)
from repro.errors import AnalysisError


class TestEntropy:
    def test_uniform_distribution(self):
        shares = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
        assert shannon_entropy(shares) == pytest.approx(math.log(4))
        assert effective_choices(shares) == pytest.approx(4.0)

    def test_concentrated_distribution(self):
        shares = {"a": 1.0, "b": 0.0}
        assert shannon_entropy(shares) == 0.0
        assert effective_choices(shares) == 1.0

    def test_normalization_irrelevant(self):
        assert shannon_entropy({"a": 1, "b": 3}) == pytest.approx(
            shannon_entropy({"a": 0.25, "b": 0.75})
        )

    def test_effective_between_one_and_count(self):
        shares = {"a": 5.0, "b": 3.0, "c": 1.0}
        effective = effective_choices(shares)
        assert 1.0 < effective < 3.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            shannon_entropy({})
        with pytest.raises(AnalysisError):
            shannon_entropy({"a": -1.0, "b": 2.0})
        with pytest.raises(AnalysisError):
            shannon_entropy({"a": 0.0})


class TestPublisherDiversity:
    def test_profiles_for_all_publishers(self, latest):
        profiles = publisher_diversity(latest)
        assert len(profiles) > 100

    def test_effective_never_exceeds_count(self, latest):
        for profile in publisher_diversity(latest).values():
            assert profile.protocol_effective <= profile.protocol_count + 1e-9
            assert profile.platform_effective <= profile.platform_count + 1e-9
            assert profile.cdn_effective <= profile.cdn_count + 1e-9

    def test_evenness_ratio_in_unit_interval(self, latest):
        for profile in publisher_diversity(latest).values():
            assert 0.0 < profile.evenness_ratio <= 1.0 + 1e-9

    def test_surface_below_count_surface(self, latest):
        for profile in publisher_diversity(latest).values():
            assert profile.surface_index <= profile.count_surface + 1e-9

    def test_empty_dataset_rejected(self):
        from repro.telemetry.dataset import Dataset

        with pytest.raises(AnalysisError):
            publisher_diversity(Dataset([]))


class TestDiversityFits:
    def test_both_surfaces_grow_sublinearly(self, latest):
        fits = fit_diversity(publisher_diversity(latest))
        assert 1.0 < fits.surface_index.per_decade_factor < 10.0
        assert 1.0 < fits.count_surface.per_decade_factor < 10.0

    def test_counts_overstate_exercised_diversity(self, latest):
        # Large publishers' extra choices are partly long-tail: the raw
        # count surface grows faster than the evenness-aware one.
        fits = fit_diversity(publisher_diversity(latest))
        assert fits.evenness_gap > 0

    def test_mean_evenness_bounds(self, latest):
        profiles = publisher_diversity(latest)
        plain = mean_evenness(profiles)
        weighted = mean_evenness(profiles, weight_by_view_hours=True)
        assert 0.0 < plain <= 1.0
        assert 0.0 < weighted <= 1.0

    def test_fit_needs_enough_profiles(self):
        with pytest.raises(AnalysisError):
            fit_diversity({})
