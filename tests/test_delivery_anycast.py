"""The anycast route-instability model (repro.delivery.anycast).

§4.3: route changes sever ongoing TCP connections, but measured change
rates are low enough that anycast CDNs work for video.  These tests pin
the Poisson model's closed form.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delivery.anycast import AnycastRouteModel
from repro.errors import DeliveryError

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
durations = st.floats(min_value=0.0, max_value=86_400.0, allow_nan=False)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(DeliveryError):
            AnycastRouteModel(daily_change_rate=-0.1)

    def test_negative_view_rejected_everywhere(self):
        with pytest.raises(DeliveryError):
            AnycastRouteModel().disruption_probability(-1.0)


class TestDisruptionProbability:
    def test_closed_form(self):
        model = AnycastRouteModel(daily_change_rate=0.5)
        t = 7_200.0
        expected = 1.0 - math.exp(-0.5 / 86_400.0 * t)
        assert model.disruption_probability(t) == pytest.approx(expected)

    def test_zero_duration_is_riskless(self):
        assert AnycastRouteModel().disruption_probability(0.0) == 0.0

    def test_zero_rate_is_riskless(self):
        model = AnycastRouteModel(daily_change_rate=0.0)
        assert model.disruption_probability(86_400.0) == 0.0

    @given(rate=rates, t=durations)
    @settings(max_examples=60)
    def test_is_a_probability(self, rate, t):
        p = AnycastRouteModel(daily_change_rate=rate).disruption_probability(t)
        # Closed interval: 1 - e^(-lambda) rounds to exactly 1.0 once
        # lambda is large enough for the exponential to underflow.
        assert 0.0 <= p <= 1.0

    @given(rate=rates, t=durations, extra=durations)
    @settings(max_examples=60)
    def test_monotone_in_duration(self, rate, t, extra):
        model = AnycastRouteModel(daily_change_rate=rate)
        assert model.disruption_probability(
            t + extra
        ) >= model.disruption_probability(t)

    def test_long_views_at_high_rates_are_near_certain_to_break(self):
        # A day-long view under 50 changes/day: effectively certain.
        model = AnycastRouteModel(daily_change_rate=50.0)
        assert model.disruption_probability(86_400.0) > 0.999999
