"""Property-based tests for the statistical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.bucketing import DecadeBuckets
from repro.stats.cdf import ECDF
from repro.stats.regression import fit_loglog
from repro.stats.weighted import weighted_mean

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)
weights = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


class TestEcdfProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_cdf_monotone_and_bounded(self, values):
        cdf = ECDF(values)
        xs = sorted(values)
        evaluations = [cdf(x) for x in xs]
        assert all(0.0 <= f <= 1.0 for f in evaluations)
        assert evaluations == sorted(evaluations)
        assert cdf(xs[-1]) == pytest.approx(1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_quantile_inverts_cdf(self, values):
        cdf = ECDF(values)
        for q in (0.1, 0.5, 0.9, 1.0):
            assert cdf(cdf.quantile(q)) >= q - 1e-12

    @given(
        st.lists(
            st.tuples(finite_floats, weights), min_size=1, max_size=40
        )
    )
    def test_weighting_equivalent_to_integer_repetition(self, pairs):
        values = [v for v, _ in pairs]
        int_weights = [max(1, int(w) % 7) for _, w in pairs]
        weighted = ECDF(values, weights=int_weights)
        repeated = ECDF(
            [v for v, k in zip(values, int_weights) for _ in range(k)]
        )
        for v in values:
            assert weighted(v) == pytest.approx(repeated(v))

    @given(st.lists(finite_floats, min_size=1, max_size=40), finite_floats)
    def test_survival_complements(self, values, x):
        cdf = ECDF(values)
        assert cdf(x) + cdf.survival(x) == pytest.approx(1.0)


class TestWeightedProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_mean_within_range(self, values):
        mean = weighted_mean(values)
        slack = 1e-9 * max(abs(v) for v in values) + 1e-9
        assert min(values) - slack <= mean <= max(values) + slack

    @given(
        st.lists(
            st.tuples(finite_floats, weights), min_size=1, max_size=50
        )
    )
    def test_weighted_mean_scale_invariant_weights(self, pairs):
        values = [v for v, _ in pairs]
        wts = [w for _, w in pairs]
        scaled = [w * 7.5 for w in wts]
        assert weighted_mean(values, wts) == pytest.approx(
            weighted_mean(values, scaled), rel=1e-9, abs=1e-6
        )


class TestRegressionProperties:
    @given(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    def test_exact_power_laws_recovered(self, slope, scale):
        xs = [1.0, 10.0, 100.0, 1e3, 1e4]
        ys = [scale * x**slope for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.per_decade_factor == pytest.approx(10**slope, rel=1e-6)

    @given(st.lists(positive_floats, min_size=3, max_size=30))
    def test_slope_invariant_to_y_scaling(self, ys):
        xs = list(np.logspace(0, 3, len(ys)))
        try:
            base = fit_loglog(xs, ys)
        except ValueError:
            return  # degenerate draw (identical x after rounding)
        scaled = fit_loglog(xs, [y * 123.0 for y in ys])
        assert scaled.slope == pytest.approx(base.slope, abs=1e-9)


class TestBucketProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=80,
        )
    )
    def test_every_value_lands_in_exactly_one_bucket(self, values):
        buckets = DecadeBuckets(base=100.0, n_buckets=7)
        for i, value in enumerate(values):
            buckets.add(f"p{i}", 1, value)
        assert sum(buckets.publisher_counts()) == len(values)
        assert sum(buckets.publisher_share()) == pytest.approx(100.0)

    @given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
    def test_bucket_edges_consistent_with_labels(self, value):
        buckets = DecadeBuckets(base=100.0, n_buckets=7)
        idx = buckets.bucket_index(value)
        if idx == 0:
            assert value <= 100.0 * (1 + 1e-9)
        elif idx < 6:
            assert 100.0 * 10 ** (idx - 1) < value * (1 + 1e-9)
            assert value <= 100.0 * 10**idx * (1 + 1e-9)
