"""Decade bucketing (repro.stats.bucketing)."""

import pytest

from repro.stats.bucketing import DecadeBuckets


class TestBucketIndex:
    @pytest.fixture
    def buckets(self):
        return DecadeBuckets(base=100.0, n_buckets=7)

    def test_smallest_bucket_closed_at_base(self, buckets):
        assert buckets.bucket_index(100.0) == 0
        assert buckets.bucket_index(1.0) == 0

    def test_decade_boundaries(self, buckets):
        assert buckets.bucket_index(100.0001) == 1
        assert buckets.bucket_index(1_000.0) == 1
        assert buckets.bucket_index(1_001.0) == 2
        assert buckets.bucket_index(10_000.0) == 2

    def test_top_bucket_open_ended(self, buckets):
        assert buckets.bucket_index(1e12) == 6

    def test_negative_rejected(self, buckets):
        with pytest.raises(ValueError):
            buckets.bucket_index(-1.0)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            DecadeBuckets(base=0)
        with pytest.raises(ValueError):
            DecadeBuckets(base=1, n_buckets=0)


class TestLabels:
    def test_labels_use_x_notation(self):
        buckets = DecadeBuckets(base=100.0, n_buckets=7)
        assert buckets.label(0) == "<=X"
        assert buckets.label(1) == "X-10X"
        assert buckets.label(3) == "100X-1000X"
        assert buckets.label(6) == ">100000X"

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            DecadeBuckets(base=1, n_buckets=2).label(5)


class TestMembership:
    def test_counts_and_shares(self):
        buckets = DecadeBuckets(base=10.0, n_buckets=3)
        buckets.add("a", 1, 5.0)
        buckets.add("b", 2, 50.0)
        buckets.add("c", 3, 50.0)
        buckets.add("d", 4, 5000.0)
        assert buckets.publisher_counts() == [1, 2, 1]
        assert buckets.publisher_share() == [25.0, 50.0, 25.0]

    def test_count_histogram(self):
        buckets = DecadeBuckets(base=10.0, n_buckets=2)
        buckets.add("a", 2, 5.0)
        buckets.add("b", 2, 5.0)
        buckets.add("c", 3, 5.0)
        assert buckets.count_histogram(0) == {2: 2, 3: 1}
        assert buckets.count_histogram(1) == {}

    def test_negative_count_rejected(self):
        buckets = DecadeBuckets(base=10.0)
        with pytest.raises(ValueError):
            buckets.add("a", -1, 5.0)

    def test_share_requires_members(self):
        with pytest.raises(ValueError):
            DecadeBuckets(base=10.0).publisher_share()

    def test_stacked_rows_shape(self):
        buckets = DecadeBuckets(base=10.0, n_buckets=3)
        buckets.add("a", 1, 5.0)
        buckets.add("b", 2, 500.0)
        rows = buckets.stacked_rows()
        assert len(rows) == 3
        assert rows[0]["count_histogram"] == {1: 1}
        assert rows[2]["count_histogram"] == {2: 1}
