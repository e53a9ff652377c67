"""Anycast route-instability model.

§4.3: some CDNs use anycast to direct clients to servers; BGP route
changes can sever ongoing TCP connections, a concern for long video
transfers — yet one of the top-3 CDNs in the paper's dataset uses
anycast, "suggesting that anycast route instability has not been a
blocking factor".  This model lets benches quantify how often a view of
a given duration would suffer a route change at realistic change rates.
"""

from __future__ import annotations

import math

from repro.errors import DeliveryError


class AnycastRouteModel:
    """Poisson route changes over a session's lifetime.

    ``daily_change_rate`` is the expected number of catchment changes a
    stationary client sees per day; measurement studies the paper cites
    place this well under one per day for most clients.
    """

    def __init__(self, daily_change_rate: float = 0.2) -> None:
        if daily_change_rate < 0:
            raise DeliveryError("change rate must be non-negative")
        self.daily_change_rate = daily_change_rate

    @property
    def per_second_rate(self) -> float:
        return self.daily_change_rate / 86_400.0

    def disruption_probability(self, view_seconds: float) -> float:
        """P[at least one route change during a view] = 1 - e^(-rt)."""
        if view_seconds < 0:
            raise DeliveryError("view duration must be non-negative")
        return 1.0 - math.exp(-self.per_second_rate * view_seconds)
