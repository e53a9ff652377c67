"""Weighted summary statistics (repro.stats.weighted)."""

import pytest

from repro.stats.weighted import weighted_mean


class TestWeightedMean:
    def test_unweighted_is_plain_mean(self):
        assert weighted_mean([1, 2, 3]) == 2.0

    def test_weights_shift_the_mean(self):
        assert weighted_mean([1, 3], weights=[3, 1]) == 1.5

    def test_zero_weight_values_ignored(self):
        assert weighted_mean([1, 100], weights=[1, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([1, 2], weights=[1])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([1, 2], weights=[1, -2])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([1, 2], weights=[0, 0])
