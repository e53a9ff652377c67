"""Edge caches, the multi-CDN broker and fetcher, anycast (repro.delivery)."""

import numpy as np
import pytest

from repro.constants import ContentType
from repro.delivery.anycast import AnycastRouteModel
from repro.delivery.edge import EdgeCache
from repro.delivery.multicdn import CdnBroker, ResilientFetcher
from repro.entities.cdn import CDN, CdnAssignment
from repro.errors import AllCdnsFailedError, DeliveryError, TransportError


def _assignments(*names, vod_only=(), live_only=()):
    result = []
    for name in names:
        if name in vod_only:
            types = frozenset({ContentType.VOD})
        elif name in live_only:
            types = frozenset({ContentType.LIVE})
        else:
            types = frozenset(ContentType)
        result.append(CdnAssignment(cdn=CDN(name=name), content_types=types))
    return tuple(result)


class TestEdgeCache:
    def test_miss_then_hit(self):
        cache = EdgeCache(capacity_bytes=100)
        assert not cache.request("k1", 10)
        assert cache.request("k1", 10)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = EdgeCache(capacity_bytes=20)
        cache.request("a", 10)
        cache.request("b", 10)
        cache.request("a", 10)  # refresh a
        cache.request("c", 10)  # evicts b (LRU)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_oversized_object_not_admitted(self):
        cache = EdgeCache(capacity_bytes=5)
        assert not cache.request("big", 10)
        assert "big" not in cache
        assert cache.used_bytes == 0

    def test_bytes_accounting(self):
        cache = EdgeCache(capacity_bytes=100)
        cache.request("a", 30)
        cache.request("a", 30)
        assert cache.stats.bytes_served == 60
        assert cache.stats.bytes_from_origin == 30

    def test_hit_ratio(self):
        cache = EdgeCache(capacity_bytes=100)
        assert cache.stats.hit_ratio == 0.0
        cache.request("a", 1)
        cache.request("a", 1)
        assert cache.stats.hit_ratio == 0.5

    def test_purge_keeps_stats(self):
        cache = EdgeCache(capacity_bytes=100)
        cache.request("a", 10)
        cache.purge()
        assert cache.entry_count == 0
        assert cache.stats.misses == 1

    def test_syndication_duplicates_occupy_twice(self):
        # Same content under two publishers = two cache entries (§6).
        cache = EdgeCache(capacity_bytes=100)
        cache.request(("owner", "v1", 800, 0), 10)
        cache.request(("syn", "v1", 800, 0), 10)
        assert cache.entry_count == 2

    def test_capacity_validation(self):
        with pytest.raises(DeliveryError):
            EdgeCache(capacity_bytes=0)

    def test_negative_size_rejected(self):
        cache = EdgeCache(capacity_bytes=10)
        with pytest.raises(DeliveryError):
            cache.request("a", -1)


class TestBroker:
    def test_probes_unmeasured_cdns_first(self, rng):
        broker = CdnBroker(explore=0.0)
        broker.observe("A", 5000)
        decision = broker.select(
            _assignments("A", "B"), ContentType.VOD, rng
        )
        assert decision.cdn_name == "B"  # unmeasured scores infinity

    def test_picks_best_ewma(self, rng):
        broker = CdnBroker(explore=0.0)
        broker.observe("A", 2000)
        broker.observe("B", 8000)
        decision = broker.select(
            _assignments("A", "B"), ContentType.VOD, rng
        )
        assert decision.cdn_name == "B"
        assert decision.predicted_kbps == pytest.approx(8000)

    def test_ewma_update(self):
        broker = CdnBroker(alpha=0.5)
        broker.observe("A", 1000)
        broker.observe("A", 3000)
        assert broker.estimate("A") == pytest.approx(2000)

    def test_exploration_occasionally_deviates(self, rng):
        broker = CdnBroker(explore=0.5)
        broker.observe("A", 1000)
        broker.observe("B", 9000)
        picks = {
            broker.select(
                _assignments("A", "B"), ContentType.VOD, rng
            ).cdn_name
            for _ in range(100)
        }
        assert picks == {"A", "B"}

    def test_respects_content_type(self, rng):
        broker = CdnBroker(explore=0.5)
        assignments = _assignments("A", "B", live_only=("B",))
        picks = {
            broker.select(assignments, ContentType.VOD, rng).cdn_name
            for _ in range(20)
        }
        assert picks == {"A"}

    def test_no_eligible_cdn_raises(self, rng):
        assignments = _assignments("A", vod_only=("A",))
        with pytest.raises(DeliveryError):
            CdnBroker().select(assignments, ContentType.LIVE, rng)
        with pytest.raises(DeliveryError):
            CdnBroker().ranked(assignments, ContentType.LIVE)

    def test_validation(self):
        with pytest.raises(DeliveryError):
            CdnBroker(explore=1.0)
        with pytest.raises(DeliveryError):
            CdnBroker(alpha=0.0)
        with pytest.raises(DeliveryError):
            CdnBroker().observe("A", -1)


class TestAnycast:
    def test_disruption_probability_grows_with_duration(self):
        model = AnycastRouteModel(daily_change_rate=1.0)
        assert model.disruption_probability(60) < model.disruption_probability(
            3600
        )

    def test_zero_rate_never_disrupts(self):
        model = AnycastRouteModel(daily_change_rate=0.0)
        assert model.disruption_probability(86_400) == 0.0

    def test_long_video_views_rarely_disrupted_at_realistic_rates(self):
        # §4.3: anycast instability is not blocking for video.
        model = AnycastRouteModel(daily_change_rate=0.2)
        one_hour = model.disruption_probability(3600)
        assert one_hour < 0.01

    def test_validation(self):
        with pytest.raises(DeliveryError):
            AnycastRouteModel(daily_change_rate=-1)
        with pytest.raises(DeliveryError):
            AnycastRouteModel().disruption_probability(-1)


class TestResilientFetcher:
    def _fetcher(self, clock=None, **kwargs):
        from repro.resilience import BackoffPolicy

        broker = CdnBroker(explore=0.0)
        broker.observe("A", 5000.0)
        broker.observe("B", 2000.0)
        broker.observe("C", 500.0)
        defaults = dict(
            policy=BackoffPolicy(retries=1, base_delay=0.0, jitter=0.0),
            failure_threshold=2,
            recovery_timeout=30.0,
        )
        defaults.update(kwargs)
        if clock is not None:
            defaults["clock"] = clock
        return ResilientFetcher(broker, **defaults), broker

    def test_fetches_from_best_cdn_when_healthy(self):
        fetcher, _ = self._fetcher()
        outcome = fetcher.fetch(
            _assignments("A", "B", "C"),
            ContentType.VOD,
            lambda name: f"chunk-from-{name}",
        )
        assert outcome.cdn_name == "A"
        assert outcome.value == "chunk-from-A"
        assert outcome.failed_cdns == ()

    def test_fails_over_to_next_cdn_after_retries(self):
        fetcher, _ = self._fetcher()
        attempts = []

        def fetch(name):
            attempts.append(name)
            if name == "A":
                raise DeliveryError("A is down")
            return f"chunk-from-{name}"

        outcome = fetcher.fetch(
            _assignments("A", "B", "C"), ContentType.VOD, fetch
        )
        assert outcome.cdn_name == "B"
        assert outcome.failed_cdns == ("A",)
        # retries=1 means two attempts against A before failing over.
        assert attempts == ["A", "A", "B"]

    def test_circuit_opens_and_skips_failing_cdn(self):
        now = [0.0]
        fetcher, _ = self._fetcher(clock=lambda: now[0])

        def fetch(name):
            if name == "A":
                raise DeliveryError("A is down")
            return f"chunk-from-{name}"

        # Two failed fetch() calls (threshold=2) open A's circuit.
        fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)
        fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)
        calls = []

        def counting_fetch(name):
            calls.append(name)
            return fetch(name)

        outcome = fetcher.fetch(
            _assignments("A", "B"), ContentType.VOD, counting_fetch
        )
        assert outcome.skipped_open_circuits == ("A",)
        assert calls == ["B"]  # A never even attempted

    def test_circuit_recovers_after_timeout(self):
        now = [0.0]
        fetcher, _ = self._fetcher(clock=lambda: now[0])
        down = {"A"}

        def fetch(name):
            if name in down:
                raise DeliveryError(f"{name} is down")
            return f"chunk-from-{name}"

        fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)
        fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)
        down.clear()
        now[0] = 31.0  # past the recovery window: half-open probe allowed
        outcome = fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)
        assert outcome.cdn_name == "A"
        assert outcome.skipped_open_circuits == ()

    def test_all_cdns_down_raises_delivery_error(self):
        fetcher, _ = self._fetcher()

        def fetch(name):
            raise DeliveryError(f"{name} is down")

        with pytest.raises(DeliveryError):
            fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)

    def test_all_cdns_down_attributes_every_cdn(self):
        now = [0.0]

        def clock():
            now[0] += 0.25  # every clock read advances injected time
            return now[0]

        fetcher, _ = self._fetcher(clock=clock)

        def fetch(name):
            raise TransportError(f"{name} unreachable")

        with pytest.raises(AllCdnsFailedError) as info:
            fetcher.fetch(
                _assignments("A", "B", "C"), ContentType.VOD, fetch
            )
        attribution = info.value.attribution
        # One attempt entry per eligible CDN, in ranked (EWMA) order.
        assert [a.cdn_name for a in attribution] == ["A", "B", "C"]
        for attempt in attribution:
            assert attempt.outcome == "failed"
            # retries=1 means two tries against each CDN.
            assert attempt.attempts == 2
            assert attempt.elapsed > 0.0
            assert "unreachable" in attempt.error
        # The typed error is still a DeliveryError for legacy callers.
        assert isinstance(info.value, DeliveryError)

    def test_all_cdns_down_attributes_open_circuits(self):
        now = [0.0]
        fetcher, _ = self._fetcher(clock=lambda: now[0])

        def fetch(name):
            raise TransportError(f"{name} down")

        # Two failing calls (threshold=2) open every breaker.
        for _ in range(2):
            with pytest.raises(AllCdnsFailedError):
                fetcher.fetch(
                    _assignments("A", "B"), ContentType.VOD, fetch
                )
        with pytest.raises(AllCdnsFailedError) as info:
            fetcher.fetch(_assignments("A", "B"), ContentType.VOD, fetch)
        attribution = info.value.attribution
        assert [a.outcome for a in attribution] == (
            ["circuit-open", "circuit-open"]
        )
        for attempt in attribution:
            assert attempt.attempts == 0
            assert attempt.elapsed == 0.0
            assert "circuit open" in attempt.error

    def test_ranked_orders_by_ewma(self):
        _, broker = self._fetcher()
        ranked = broker.ranked(_assignments("A", "B", "C"), ContentType.VOD)
        assert ranked == ["A", "B", "C"]
