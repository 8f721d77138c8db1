"""Unit tests for measurement primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    Counter,
    Histogram,
    StatsRegistry,
    StreamingHistogram,
    TimeSeries,
    bucket_value,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_raises(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_int_conversion(self):
        c = Counter("c")
        c.inc(3)
        assert int(c) == 3


class TestHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("h")
        assert math.isnan(h.mean)
        assert math.isnan(h.min)
        assert math.isnan(h.percentile(50))

    def test_mean_min_max(self):
        h = Histogram("h")
        h.extend([1, 2, 3, 4])
        assert h.mean == 2.5
        assert h.min == 1
        assert h.max == 4
        assert h.count == 4

    def test_percentiles_exact(self):
        h = Histogram("h")
        h.extend(range(101))
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95

    def test_summary_keys(self):
        h = Histogram("h")
        h.add(1.0)
        s = h.summary()
        assert set(s) == {"count", "mean", "std", "min", "p50", "p95",
                          "p99", "max"}

    def test_samples_immutable_copy(self):
        h = Histogram("h")
        h.add(1)
        samples = h.samples
        assert isinstance(samples, tuple)


class TestTimeSeries:
    def test_record_and_read(self):
        ts = TimeSeries("t")
        ts.record(0, 1.0)
        ts.record(5, 2.0)
        assert list(ts.cycles) == [0, 5]
        assert list(ts.values) == [1.0, 2.0]
        assert len(ts) == 2

    def test_non_monotonic_raises(self):
        ts = TimeSeries("t")
        ts.record(5, 1.0)
        with pytest.raises(ValueError):
            ts.record(4, 1.0)

    def test_window_mean(self):
        ts = TimeSeries("t")
        for c, v in [(0, 1.0), (10, 3.0), (20, 5.0)]:
            ts.record(c, v)
        assert ts.window_mean(0, 15) == 2.0
        assert math.isnan(ts.window_mean(100, 200))

    def test_same_cycle_allowed(self):
        ts = TimeSeries("t")
        ts.record(3, 1.0)
        ts.record(3, 2.0)
        assert len(ts) == 2


class TestStatsRegistry:
    def test_counter_is_memoized(self):
        reg = StatsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_histogram_is_memoized(self):
        reg = StatsRegistry()
        assert reg.histogram("x") is reg.histogram("x")

    def test_series_is_memoized(self):
        reg = StatsRegistry()
        assert reg.series("x") is reg.series("x")

    def test_counters_prefix_filter(self):
        reg = StatsRegistry()
        reg.counter("a.x").inc()
        reg.counter("a.y").inc(2)
        reg.counter("b.z").inc(3)
        assert reg.counters("a.") == {"a.x": 1, "a.y": 2}

    def test_get_missing_returns_none(self):
        reg = StatsRegistry()
        assert reg.get_counter("nope") is None
        assert reg.get_histogram("nope") is None


class TestLogBuckets:
    def test_zero_has_its_own_bucket(self):
        from repro.sim.stats import bucket_value, log_bucket

        assert log_bucket(0) == 0
        assert bucket_value(0) == 0.0

    def test_keys_order_like_values(self):
        from repro.sim.stats import log_bucket

        values = [-100.0, -1.5, -0.01, 0.0, 0.02, 1.0, 3.0, 4096.0]
        keys = [log_bucket(v) for v in values]
        assert keys == sorted(keys)

    def test_midpoint_relative_error_bounded(self):
        from repro.sim.stats import bucket_value, log_bucket

        for v in [1, 7, 100, 12345, 0.001, 3.7e6]:
            mid = bucket_value(log_bucket(v))
            assert abs(mid - v) / v < 1 / 8  # 8 sub-buckets per octave

    def test_deterministic(self):
        from repro.sim.stats import log_bucket

        assert [log_bucket(v) for v in (1.0, 2.5, 9.9)] == \
            [log_bucket(v) for v in (1.0, 2.5, 9.9)]


class TestStreamingHistogram:
    def _make(self, cap=4):
        from repro.sim.stats import StreamingHistogram

        return StreamingHistogram(cap)

    def test_exact_under_cap(self):
        h = self._make(cap=10)
        h.extend([5, 1, 3])
        assert h.exact
        assert h.percentile(50) == 3
        assert h.mean == 3
        assert (h.min, h.max) == (1, 5)

    def test_aggregates_stay_exact_past_cap(self):
        h = self._make(cap=4)
        h.extend(range(1, 101))
        assert not h.exact
        assert h.count == 100
        assert h.total == 5050
        assert (h.min, h.max) == (1, 100)
        assert h.mean == 50.5

    def test_percentile_approximate_past_cap(self):
        h = self._make(cap=4)
        h.extend(range(1, 1001))
        p99 = h.percentile(99)
        assert abs(p99 - 990) / 990 < 0.15

    def test_invalid_cap_raises(self):
        import pytest

        from repro.sim.stats import StreamingHistogram

        with pytest.raises(ValueError):
            StreamingHistogram(0)

    def test_as_dict_deterministic(self):
        h1, h2 = self._make(), self._make()
        for h in (h1, h2):
            h.extend([9, 1, 55, 7, 3, 1000, 2])
        assert h1.as_dict() == h2.as_dict()
        assert h1.as_dict()["mode"] == "bucketed"

    def test_summary_keys_match_histogram(self):
        h = self._make()
        h.add(1.0)
        assert set(h.summary()) == {"count", "mean", "std", "min", "p50",
                                    "p95", "p99", "max"}


class TestBucketedHistogramMode:
    def test_default_mode_is_exact(self):
        assert Histogram("h").mode == "exact"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mode"):
            Histogram("h", mode="approximate")

    def test_bucketed_bounds_memory(self):
        h = Histogram("h", mode="bucketed", exact_cap=16)
        h.extend(range(10_000))
        assert len(h.samples) == 16  # verbatim head only
        assert h.count == 10_000
        assert h.total == sum(range(10_000))

    def test_bucketed_summary_aggregates_exact(self):
        h = Histogram("h", mode="bucketed", exact_cap=2)
        h.extend([1, 2, 3, 4])
        assert h.mean == 2.5
        assert (h.min, h.max) == (1, 4)

    def test_registry_mode_selection_and_conflict(self):
        reg = StatsRegistry()
        h = reg.histogram("x", mode="bucketed")
        assert reg.histogram("x") is h  # no mode: existing returned
        assert reg.histogram("x", mode="bucketed") is h
        with pytest.raises(ValueError, match="already exists"):
            reg.histogram("x", mode="exact")

    def test_snapshot_shape_per_mode(self):
        reg = StatsRegistry()
        reg.histogram("e").add(1)
        reg.histogram("b", mode="bucketed").add(1)
        snap = reg.snapshot()["histograms"]
        assert snap["e"] == [1.0]
        assert isinstance(snap["b"], dict)
        assert snap["b"]["count"] == 1


# ----------------------------------------------------------------------
# property tests: incremental percentiles and the buffered bucketed mode
# ----------------------------------------------------------------------
#: finite samples: plain floats, and integer counts (the parallelism
#: probe's kind, which takes add_batch's one-shot path)
SAMPLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=64),
)
QUANTILES = st.one_of(st.sampled_from((0, 50, 95, 99, 100)),
                      st.floats(min_value=0, max_value=100))
#: a run of samples added one by one, then one percentile read
STEPS = st.lists(st.tuples(st.lists(SAMPLES, max_size=40), QUANTILES),
                 min_size=1, max_size=12)


def _same(a: float, b: float) -> bool:
    """Equal values (so 0.0 == -0.0), or NaN from the same overflow."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _sort_and_walk(h: StreamingHistogram, q: float) -> float:
    """The bucketed percentile as first written: sort the head and the
    bucket midpoints together on every read and walk to the rank."""
    state = h.as_dict()
    pairs = sorted([(v, 1) for v in state["head"]]
                   + [(bucket_value(int(k)), n)
                      for k, n in state["buckets"].items()])
    rank = min(h.count, max(1, math.ceil(q / 100.0 * h.count)))
    seen = 0
    for value, n in pairs:
        seen += n
        if seen >= rank:
            return value
    raise AssertionError("rank past the last sample")


class TestIncrementalPercentiles:
    """Percentiles assume NaN-free samples, as every recorder gives."""

    @settings(max_examples=150, deadline=None)
    @given(STEPS)
    def test_exact_regime_matches_numpy(self, steps):
        h = StreamingHistogram(exact_cap=1_000)
        for values, q in steps:
            h.extend(values)
            if h.count:
                expect = float(np.percentile(h.head, q))
                assert _same(h.percentile(q), expect)
        assert h.exact

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=24), STEPS)
    def test_bucketed_regime_matches_sort_and_walk(self, cap, steps):
        h = StreamingHistogram(exact_cap=cap)
        for values, q in steps:
            h.extend(values)
            if h.count and not h.exact:
                assert _same(h.percentile(q), _sort_and_walk(h, q))

    def test_out_of_range_quantile_raises_like_numpy(self):
        h = StreamingHistogram()
        h.add(1.0)
        for q in (-1, 100.5, math.nan):
            with pytest.raises(ValueError):
                h.percentile(q)


#: one operation on a bucketed histogram: a sample, a list through
#: extend, or a read
OPS = st.one_of(
    st.tuples(st.just("add"), SAMPLES),
    st.tuples(st.just("extend"), st.lists(SAMPLES, max_size=40)),
    st.tuples(st.just("read"), st.sampled_from((
        "count", "samples", "total", "mean", "std", "min", "max",
        "summary", "snapshot", "p50", "p99"))),
)


def _read(h, reader: str):
    if reader == "snapshot":
        return h._snapshot_state()
    if reader.startswith("p"):
        return h.percentile(int(reader[1:]))
    if reader == "summary":
        return h.summary()
    return getattr(h, reader)


def _same_reading(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_reading(a[k], b[k])
                                            for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_reading, a, b))
    if isinstance(a, float):
        return _same(a, b)
    return a == b


class TestBufferedBucketedHistogram:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=48),
           st.lists(OPS, max_size=40))
    def test_matches_per_sample_adds(self, cap, ops):
        """Buffered adds folded through add_batch read exactly like a
        StreamingHistogram fed one sample at a time."""
        h = Histogram("h", mode="bucketed", exact_cap=cap)
        ref = Histogram("ref", mode="bucketed", exact_cap=cap)
        stream = ref._stream
        for op, arg in ops:
            if op == "read":
                assert _same_reading(_read(h, arg), _read(ref, arg))
                continue
            if op == "add":
                h.add(arg)
                stream.add(arg)
                continue
            getattr(h, op)(arg)
            for v in arg:
                stream.add(v)
        for reader in ("count", "samples", "total", "mean", "std", "min",
                       "max", "summary", "snapshot"):
            assert _same_reading(_read(h, reader), _read(ref, reader))

    def test_buffer_folds_at_the_cap(self):
        h = Histogram("h", mode="bucketed", exact_cap=8)
        for v in range(7):
            h.add(v)
        assert len(h._pending) == 7 and h._stream.count == 0
        h.add(7)
        assert not h._pending and h._stream.count == 8
