"""Unit tests for the histogram primitive and run-correlation ids."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    RUN_ID_LENGTH,
    bucket_label,
    is_run_id,
    new_run_id,
)


class TestDefaultBuckets:
    def test_strictly_increasing(self):
        assert all(a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))

    def test_span_and_shape(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(1e2)
        assert len(DEFAULT_BUCKETS) == 22

    def test_labels_are_shortest_decimal(self):
        assert bucket_label(1.0) == "1"
        assert bucket_label(0.00025) == "0.00025"
        assert bucket_label(2.5) == "2.5"


class TestObserve:
    def test_counts_length_is_boundaries_plus_overflow(self):
        hist = Histogram("t")
        assert len(hist.counts) == len(DEFAULT_BUCKETS) + 1

    def test_value_on_edge_lands_in_that_bucket(self):
        hist = Histogram("t", boundaries=(1.0, 2.0, 4.0))
        hist.observe(2.0)  # le semantics: exactly-on-edge counts as <= edge
        assert hist.counts == [0, 1, 0, 0]

    def test_overflow_bucket(self):
        hist = Histogram("t", boundaries=(1.0, 2.0))
        hist.observe(1e9)
        assert hist.counts == [0, 0, 1]
        assert hist.cumulative()[-1] == ("+Inf", 1)

    def test_sum_and_count_track(self):
        hist = Histogram("t")
        for v in (0.001, 0.002, 0.003):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.006)

    def test_cumulative_is_monotone_and_ends_at_count(self):
        hist = Histogram("t")
        for v in (1e-6, 1e-4, 1e-2, 1.0, 1e6):
            hist.observe(v)
        cumulative = [n for _, n in hist.cumulative()]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.count


class TestValidation:
    def test_rejects_empty_boundaries(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("t", boundaries=())

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("t", boundaries=(1.0, 1.0, 2.0))


class TestPercentile:
    def test_empty_is_zero(self):
        assert Histogram("t").percentile(0.5) == 0.0

    def test_linear_interpolation_in_bucket(self):
        hist = Histogram("t", boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 10.0):
            hist.observe(v)
        # rank 2 of 4 falls exactly at the top of the (1, 2] bucket
        assert hist.percentile(0.5) == pytest.approx(2.0)

    def test_overflow_rank_clamps_to_last_edge(self):
        hist = Histogram("t", boundaries=(1.0, 2.0, 4.0))
        hist.observe(100.0)
        assert hist.percentile(0.99) == pytest.approx(4.0)

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("t").percentile(1.5)

    def test_snapshot_keys(self):
        hist = Histogram("t")
        hist.observe(0.01)
        snap = hist.snapshot()
        assert set(snap) == {"count", "sum", "p50", "p95", "p99"}
        assert snap["count"] == 1
        assert snap["p50"] > 0.0


class TestSerialization:
    def test_round_trip_default_buckets(self):
        hist = Histogram("t")
        for v in (1e-4, 0.5, 1e4):
            hist.observe(v)
        clone = Histogram.from_dict("t", hist.to_dict())
        assert clone.counts == hist.counts
        assert clone.total == pytest.approx(hist.total)
        assert clone.boundaries == DEFAULT_BUCKETS

    def test_default_boundaries_omitted_from_dict(self):
        assert "boundaries" not in Histogram("t").to_dict()
        custom = Histogram("t", boundaries=(1.0, 2.0))
        assert custom.to_dict()["boundaries"] == [1.0, 2.0]

    def test_round_trip_custom_buckets(self):
        hist = Histogram("t", boundaries=(1.0, 2.0))
        hist.observe(1.5)
        clone = Histogram.from_dict("t", hist.to_dict())
        assert clone.boundaries == (1.0, 2.0)
        assert clone.counts == hist.counts

    def test_from_dict_rejects_count_length_mismatch(self):
        with pytest.raises(ValueError, match="bucket\\s+counts"):
            Histogram.from_dict("t", {"count": 0, "sum": 0.0, "counts": [0, 1]})


class TestRunId:
    def test_shape_and_alphabet(self):
        rid = new_run_id()
        assert len(rid) == RUN_ID_LENGTH == 26
        assert is_run_id(rid)
        assert set(rid) <= set("0123456789ABCDEFGHJKMNPQRSTVWXYZ")

    def test_is_run_id_rejects_wrong_shapes(self):
        assert not is_run_id("")
        assert not is_run_id("short")
        assert not is_run_id("l" * 26)  # 'l' is not in the Crockford alphabet
        assert not is_run_id(new_run_id().lower())

    def test_timestamp_prefix_orders_lexicographically(self):
        early = new_run_id(timestamp_ms=1_000)
        late = new_run_id(timestamp_ms=2_000_000_000_000)
        assert early[:10] < late[:10]

    def test_same_timestamp_same_prefix(self):
        a = new_run_id(timestamp_ms=123456789)
        b = new_run_id(timestamp_ms=123456789)
        assert a[:10] == b[:10]
        assert a[10:] != b[10:]  # random tail differs

    def test_unique(self):
        ids = {new_run_id() for _ in range(200)}
        assert len(ids) == 200
