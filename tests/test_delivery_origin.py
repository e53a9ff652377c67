"""Origin storage and dedup (repro.delivery.origin) — the Fig 18 engine."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delivery.origin import OriginServer
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue, Video
from repro.errors import DeliveryError
from repro.testkit.reference import ReferenceOriginServer, StoredRendition


@pytest.fixture
def small_catalogue():
    return Catalogue(
        "cat",
        [Video("v1", 1000.0), Video("v2", 2000.0)],
    )


class TestPush:
    def test_push_returns_bytes_added(self, small_catalogue):
        origin = OriginServer("A")
        ladder = BitrateLadder.from_bitrates((800,))
        added = origin.push_catalogue("pub", small_catalogue, ladder)
        # 800 kbps = 1e5 B/s over 3000 s total.
        assert added == pytest.approx(3e8)
        assert origin.total_bytes() == pytest.approx(3e8)

    def test_double_push_rejected(self, small_catalogue):
        origin = OriginServer("A")
        ladder = BitrateLadder.from_bitrates((800,))
        origin.push_catalogue("pub", small_catalogue, ladder)
        with pytest.raises(DeliveryError):
            origin.push_catalogue("pub", small_catalogue, ladder)

    def test_double_push_leaves_origin_unchanged(self, small_catalogue):
        origin = OriginServer("A")
        ladder = BitrateLadder.from_bitrates((800,))
        origin.push_catalogue("pub", small_catalogue, ladder)
        before = origin.total_bytes()
        with pytest.raises(DeliveryError):
            origin.push_catalogue("pub", small_catalogue, ladder)
        assert origin.total_bytes() == before

    def test_multiple_publishers_tracked(self, small_catalogue):
        origin = OriginServer("A")
        origin.push_catalogue(
            "p1", small_catalogue, BitrateLadder.from_bitrates((500,))
        )
        origin.push_catalogue(
            "p2", small_catalogue, BitrateLadder.from_bitrates((520,))
        )
        assert origin.publishers == {"p1", "p2"}

    def test_empty_name_rejected(self):
        with pytest.raises(DeliveryError):
            OriginServer("")


class TestDedup:
    def _origin_with_two_copies(self, small_catalogue, rates_a, rates_b):
        origin = OriginServer("A")
        origin.push_catalogue(
            "p1", small_catalogue, BitrateLadder.from_bitrates(rates_a)
        )
        origin.push_catalogue(
            "p2", small_catalogue, BitrateLadder.from_bitrates(rates_b)
        )
        return origin

    def test_exact_duplicates_merge_at_zero_tolerance(self, small_catalogue):
        origin = self._origin_with_two_copies(
            small_catalogue, (800,), (800.0,)
        )
        total = origin.total_bytes()
        assert origin.deduplicated_bytes(0.0) == pytest.approx(total / 2)

    def test_near_duplicates_merge_within_tolerance(self, small_catalogue):
        origin = self._origin_with_two_copies(small_catalogue, (800,), (830,))
        saved, pct = origin.savings(0.05)
        # min(800, 830) worth of bytes per video is removed.
        assert pct == pytest.approx(100 * 800 / 1630, rel=1e-6)

    def test_no_merge_outside_tolerance(self, small_catalogue):
        origin = self._origin_with_two_copies(small_catalogue, (800,), (900,))
        saved, pct = origin.savings(0.05)
        assert saved == 0.0
        assert pct == 0.0

    def test_dedup_keeps_largest_copy(self, small_catalogue):
        origin = self._origin_with_two_copies(small_catalogue, (800,), (830,))
        kept = origin.deduplicated_bytes(0.05)
        # kept bytes correspond to the 830 kbps copy.
        total = origin.total_bytes()
        assert kept == pytest.approx(total * 830 / 1630)

    def test_tolerance_monotonicity(self, small_catalogue):
        origin = self._origin_with_two_copies(
            small_catalogue, (800, 1600), (860, 1750)
        )
        pcts = [origin.savings(t)[1] for t in (0.0, 0.05, 0.10, 0.20)]
        assert pcts == sorted(pcts)

    def test_different_videos_never_merge(self):
        origin = OriginServer("A")
        origin.push_catalogue(
            "p1",
            Catalogue("c1", [Video("v1", 1000.0)]),
            BitrateLadder.from_bitrates((800,)),
        )
        origin.push_catalogue(
            "p2",
            Catalogue("c2", [Video("v2", 1000.0)]),
            BitrateLadder.from_bitrates((800,)),
        )
        assert origin.savings(0.10)[0] == 0.0

    def test_negative_tolerance_rejected(self, small_catalogue):
        origin = self._origin_with_two_copies(small_catalogue, (800,), (830,))
        with pytest.raises(DeliveryError):
            origin.deduplicated_bytes(-0.1)

    def test_empty_origin_savings_rejected(self):
        with pytest.raises(DeliveryError):
            OriginServer("A").savings(0.05)


class TestIntegrated:
    def test_integrated_keeps_only_owner_copies(self, small_catalogue):
        origin = OriginServer("A")
        owner_ladder = BitrateLadder.from_bitrates((500, 1000))
        syn_ladder = BitrateLadder.from_bitrates((600, 1200, 2400))
        origin.push_catalogue("owner", small_catalogue, owner_ladder)
        origin.push_catalogue("syn", small_catalogue, syn_ladder)
        kept = origin.integrated_bytes("owner")
        owner_bytes = small_catalogue.storage_bytes(owner_ladder)
        assert kept == pytest.approx(owner_bytes)

    def test_integrated_savings_percentage(self, small_catalogue):
        origin = OriginServer("A")
        origin.push_catalogue(
            "owner", small_catalogue, BitrateLadder.from_bitrates((1000,))
        )
        origin.push_catalogue(
            "syn", small_catalogue, BitrateLadder.from_bitrates((2000,))
        )
        _, pct = origin.integrated_savings("owner")
        assert pct == pytest.approx(100 * 2000 / 3000, rel=1e-6)

    def test_videos_without_owner_copy_fall_back_to_dedup(self):
        origin = OriginServer("A")
        origin.push_catalogue(
            "syn1",
            Catalogue("c", [Video("v9", 1000.0)]),
            BitrateLadder.from_bitrates((800,)),
        )
        origin.push_catalogue(
            "syn2",
            Catalogue("c2", [Video("v9", 1000.0)]),
            BitrateLadder.from_bitrates((800.0,)),
        )
        kept = origin.integrated_bytes("owner-not-present")
        assert kept == pytest.approx(origin.total_bytes() / 2)


class TestStoredRendition:
    def test_validation(self):
        with pytest.raises(DeliveryError):
            StoredRendition("p", "v", 0, 10)
        with pytest.raises(DeliveryError):
            StoredRendition("p", "v", 100, -1)


# Bitrates on a 100 kbps grid meet exactly and sit on 5% and 10% group
# boundaries; off-grid ones fall between them.
_RATES = st.one_of(
    st.integers(min_value=1, max_value=40).map(lambda k: 100.0 * k),
    st.floats(min_value=50.0, max_value=4_000.0),
)
_LADDERS = st.lists(_RATES, min_size=1, max_size=5, unique=True).map(
    BitrateLadder.from_bitrates
)
# Each publisher's catalogue holds some of six titles, at its own
# durations: catalogues overlap in part, and a shared title's copies
# differ in size.
_CATALOGUES = st.lists(
    st.tuples(
        st.sampled_from([f"v{i}" for i in range(6)]),
        st.floats(min_value=1.0, max_value=10_000.0),
    ),
    max_size=6,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: Catalogue("c", [Video(v, d) for v, d in pairs]))
_PUSHES = st.lists(
    st.tuples(st.sampled_from(("owner", "s1", "s2")), _CATALOGUES, _LADDERS),
    min_size=1,
    max_size=6,
)


def _push_both(fast, reference, push):
    """Push to both servers: equal bytes added, or the same error."""
    try:
        expected = reference.push_catalogue(*push)
    except DeliveryError as exc:
        with pytest.raises(DeliveryError) as raised:
            fast.push_catalogue(*push)
        assert str(raised.value) == str(exc)
        return False
    assert fast.push_catalogue(*push) == expected
    return True


class TestReferenceDifferential:
    """The matrix server returns the per-rendition reference's floats."""

    @settings(max_examples=120, deadline=None)
    @given(_PUSHES)
    def test_every_figure_equals_the_reference(self, pushes):
        fast, reference = OriginServer("A"), ReferenceOriginServer("A")
        stored = []
        for push in pushes:
            if _push_both(fast, reference, push) and len(push[1]):
                stored.append(push)
            assert fast.total_bytes() == reference.total_bytes()
        assert fast.publishers == reference.publishers
        if stored:
            before = (fast.total_bytes(), fast.deduplicated_bytes(0.05))
            assert not _push_both(fast, reference, stored[0])
            assert (
                fast.total_bytes(), fast.deduplicated_bytes(0.05)
            ) == before
        rates = sorted(
            {kbps for _, _, ladder in pushes for kbps in ladder.bitrates_kbps}
        )
        # (b - a) / a puts b on the boundary of a group that a starts.
        boundaries = {(b - a) / a for a, b in combinations(rates, 2)}
        for tolerance in sorted({0.0, 0.05, 0.10} | boundaries):
            assert fast.deduplicated_bytes(
                tolerance
            ) == reference.deduplicated_bytes(tolerance), tolerance
        for owner_id in ("owner", "nobody"):
            assert fast.integrated_bytes(
                owner_id
            ) == reference.integrated_bytes(owner_id), owner_id
