"""Empirical CDFs (repro.stats.cdf)."""

import numpy as np
import pytest

from repro.stats.cdf import ECDF
from repro.stats.weighted import weighted_mean


class TestUnweighted:
    def test_single_point(self):
        cdf = ECDF([5.0])
        assert cdf(4.9) == 0.0
        assert cdf(5.0) == 1.0

    def test_quartiles(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf(1) == 0.25
        assert cdf(2) == 0.5
        assert cdf(4) == 1.0

    def test_right_continuity(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf(2.5) == 0.5  # flat between sample points

    def test_below_support_is_zero(self):
        assert ECDF([3, 4])(0.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ECDF([])

    def test_support(self):
        assert ECDF([3, 1, 2]).support == (1.0, 3.0)


class TestWeighted:
    def test_weight_equals_repetition(self):
        weighted = ECDF([1, 2], weights=[3, 1])
        repeated = ECDF([1, 1, 1, 2])
        for x in (0.5, 1.0, 1.5, 2.0):
            assert weighted(x) == repeated(x)

    def test_zero_weight_sample_ignored_in_mass(self):
        cdf = ECDF([1, 2], weights=[0, 1])
        assert cdf(1) == 0.0
        assert cdf(2) == 1.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ECDF([1, 2], weights=[1, -1])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            ECDF([1, 2], weights=[0, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ECDF([1, 2, 3], weights=[1, 2])

    def test_total_weight(self):
        assert ECDF([1, 2], weights=[3, 2]).total_weight == 5.0

    def test_rejects_a_bad_sample_as_the_weighted_stats_do(self):
        # One validation for every weighted statistic: the ECDF refuses
        # each bad sample with the message weighted_mean gives.
        bad = (
            ([], None),
            ([1, 2, 3], [1, 2]),
            ([1, 2], [1, -1]),
            ([1, 2], [0, 0]),
        )
        for values, weights in bad:
            with pytest.raises(ValueError) as from_mean:
                weighted_mean(values, weights)
            with pytest.raises(ValueError) as from_ecdf:
                ECDF(values, weights)
            assert str(from_ecdf.value) == str(from_mean.value)


class TestQuantiles:
    def test_median_of_odd_sample(self):
        assert ECDF([1, 2, 3]).median() == 2.0

    def test_quantile_bounds(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.1)

    def test_quantile_inverse_of_cdf(self):
        values = [1, 5, 7, 9, 11]
        cdf = ECDF(values)
        for q in (0.2, 0.4, 0.6, 0.8, 1.0):
            x = cdf.quantile(q)
            assert cdf(x) >= q


class TestSurvivalAndSeries:
    def test_survival_complements_cdf(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf.survival(2) == pytest.approx(1 - cdf(2))

    def test_evaluate_matches_scalar(self):
        cdf = ECDF([1, 2, 3])
        xs = [0.0, 1.5, 3.0]
        np.testing.assert_allclose(
            cdf.evaluate(xs), [cdf(x) for x in xs]
        )

    def test_steps_are_monotone(self):
        xs, fs = ECDF([3, 1, 4, 1, 5]).steps()
        assert list(xs) == sorted(xs)
        assert all(b >= a for a, b in zip(fs, fs[1:]))
        assert fs[-1] == 1.0

    def test_as_series_endpoints(self):
        cdf = ECDF([1, 2, 3])
        xs, fs = cdf.as_series(n_points=5)
        assert xs[0] == 1.0 and xs[-1] == 3.0
        assert fs[-1] == 1.0

    def test_as_series_needs_two_points(self):
        with pytest.raises(ValueError):
            ECDF([1, 2]).as_series(n_points=1)
