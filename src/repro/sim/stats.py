"""Measurement primitives: counters, histograms, time series.

All measurement in the reproduction flows through these classes so that
experiments can enumerate every probe via :class:`StatsRegistry` and
reports never reach into model internals.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: log-bucket resolution: sub-buckets per power of two (relative error
#: of a bucketed percentile is at most ~1/(2*_SUBBUCKETS) ≈ 6%)
_SUBBUCKETS = 8
#: exponent bias keeping positive-value keys positive: frexp exponents
#: span about [-1074, 1024] for doubles, so |e * _SUBBUCKETS| < _BIAS
_BIAS = 16384

#: largest float64 that still represents every smaller non-negative
#: integer exactly; below it, integer-valued sums are associativity-free
_EXACT_SUM_LIMIT = float(2 ** 53)


def log_bucket(value: float) -> int:
    """Map a value onto a signed logarithmic bucket key.

    Keys order the same way values do, so sorted bucket keys walk the
    distribution in value order: negative values get negative keys,
    zero gets its own bucket (key 0), positive values positive keys.
    The mapping uses ``frexp`` (exact integer arithmetic on the float
    representation), so it is deterministic across runs and platforms.
    """
    if value == 0:
        return 0
    m, e = math.frexp(abs(value))
    sub = int((m - 0.5) * 2 * _SUBBUCKETS)
    if sub >= _SUBBUCKETS:  # m == nextafter(1, 0) rounding guard
        sub = _SUBBUCKETS - 1
    # e may be negative (|value| < 0.5); the bias keeps the magnitude
    # key positive so the sign of the key is the sign of the value
    key = _BIAS + e * _SUBBUCKETS + sub
    return key if value > 0 else -key


def bucket_value(key: int) -> float:
    """The representative (midpoint) value of a :func:`log_bucket` key."""
    if key == 0:
        return 0.0
    e, sub = divmod(abs(key) - _BIAS, _SUBBUCKETS)
    if e < 1024:
        lo = math.ldexp(0.5 + sub / (2 * _SUBBUCKETS), e)
        hi = math.ldexp(0.5 + (sub + 1) / (2 * _SUBBUCKETS), e)
        mid = (lo + hi) / 2.0
    else:
        # the top octave's edges sum past the largest double; scale the
        # midpoint fraction instead (the same value where both are finite)
        mid = math.ldexp(0.5 + (2 * sub + 1) / (4 * _SUBBUCKETS), e)
    return mid if key > 0 else -mid


def _linear_percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a value-ordered, non-empty, NaN-free
    sequence by numpy's default ("linear") method.

    This is ``np.percentile`` without the call: the same float
    operations in the same order as numpy >= 1.22 — virtual index
    ``(n - 1) * (q / 100)``, its floor, then numpy's ``_lerp``
    including the branch that interpolates down from the upper
    neighbour when the fraction is at least one half — so the result is
    the one numpy returns, bit for bit.
    """
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:
        return ordered[last]
    below = math.floor(index)
    t = index - below
    a = ordered[below]
    b = ordered[below + 1]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _log_bucket_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`log_bucket` over a float64 array.

    ``np.frexp`` decomposes IEEE doubles exactly like ``math.frexp``
    and ``m - 0.5`` / the power-of-two scale are exact float ops, so
    every element's key equals the scalar function's result.
    """
    out = np.zeros(values.shape, dtype=np.int64)
    nz = values != 0
    if not nz.any():
        return out
    v = values[nz]
    m, e = np.frexp(np.abs(v))
    sub = ((m - 0.5) * (2 * _SUBBUCKETS)).astype(np.int64)
    np.minimum(sub, _SUBBUCKETS - 1, out=sub)
    key = _BIAS + e.astype(np.int64) * _SUBBUCKETS + sub
    np.negative(key, out=key, where=v < 0)
    out[nz] = key
    return out


class StreamingHistogram:
    """A bounded-memory streaming histogram: exact up to a cap.

    The first ``exact_cap`` samples are stored verbatim (percentiles
    are then exact, like :class:`Histogram`); beyond the cap new
    samples fold into logarithmic buckets (:func:`log_bucket`), so
    memory stays O(cap + buckets) however long the run.  Count, sum,
    sum of squares, min and max are tracked exactly in both regimes,
    so ``mean``/``std``/``min``/``max`` never degrade — only
    percentiles become bucketed approximations past the cap.

    Percentiles are cheap to read repeatedly, as alert rules do: a
    value-ordered copy of the head is caught up lazily with only the
    samples added since the last read, and past the cap a cumulative
    ladder over the buckets is rebuilt only when a bucket changed;
    :meth:`add` does no extra work for either.  Percentiles assume
    NaN-free samples (no recorder produces NaN).

    This is the storage engine both for the opt-in *bucketed* mode of
    :class:`Histogram` and for the per-flow/per-link fabric telemetry
    in :mod:`repro.obs.flows`.
    """

    __slots__ = ("exact_cap", "_head", "_buckets", "count", "total",
                 "sumsq", "_min", "_max", "_ordered", "_ladder")

    def __init__(self, exact_cap: int = 512):
        if exact_cap < 1:
            raise ValueError(f"exact_cap must be >= 1, got {exact_cap}")
        self.exact_cap = exact_cap
        self._head: List[float] = []
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: value-ordered copy of a prefix of ``_head`` (see _sorted_head)
        self._ordered: List[float] = []
        #: (count when built, bucket midpoints in key order, cumulative
        #: bucket counts); once bucketed, the head is full, so a count
        #: change means a bucket changed
        self._ladder: Optional[Tuple[int, List[float], List[int]]] = None

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._head) < self.exact_cap:
            self._head.append(value)
        else:
            key = log_bucket(value)
            self._buckets[key] = self._buckets.get(key, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def add_batch(self, values) -> None:
        """Fold a whole array of samples in, **bit-identical** to the
        same sequence of :meth:`add` calls.

        The one-shot accumulation is only taken when it provably cannot
        round differently from the sequential path: non-negative
        integer-valued samples whose running sums stay below 2**53 are
        associativity-free, so ``sum``/``sumsq`` match exactly (this
        covers the vec kernels' back-filled parallelism counts and
        cycle latencies).  Anything else — negatives, fractions, sums
        near the exact-integer limit — falls back to the per-sample
        loop rather than risk a divergent float total.
        """
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        n = int(arr.size)
        if n == 0:
            return
        if n < 16:
            # below this, per-sample adds beat the array machinery
            for v in arr.tolist():
                self.add(v)
            return
        with np.errstate(over="ignore"):  # huge samples: unsafe below
            tot = float(arr.sum())
            ssq = float(np.square(arr).sum())
        safe = (
            bool(np.all(arr == np.floor(arr)))
            and float(arr.min()) >= 0.0
            and self.total.is_integer()
            and self.sumsq.is_integer()
            and self.total + tot < _EXACT_SUM_LIMIT
            and self.sumsq + ssq < _EXACT_SUM_LIMIT
        )
        if not safe:
            for v in arr.tolist():
                self.add(v)
            return
        self.count += n
        self.total += tot
        self.sumsq += ssq
        lo, hi = float(arr.min()), float(arr.max())
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi
        fill = self.exact_cap - len(self._head)
        if fill > 0:
            take = min(fill, n)
            self._head.extend(arr[:take].tolist())
            arr = arr[take:]
        if arr.size:
            keys, counts = np.unique(_log_bucket_array(arr),
                                     return_counts=True)
            buckets = self._buckets
            for key, cnt in zip(keys.tolist(), counts.tolist()):
                buckets[key] = buckets.get(key, 0) + cnt

    @property
    def exact(self) -> bool:
        """True while every sample is still stored verbatim."""
        return not self._buckets

    @property
    def head(self) -> Tuple[float, ...]:
        """The verbatim-sample prefix (everything, while under the cap)."""
        return tuple(self._head)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        if not self.count:
            return math.nan
        m = self.total / self.count
        return math.sqrt(max(self.sumsq / self.count - m * m, 0.0))

    @property
    def min(self) -> float:
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        return self._max if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Exact (interpolated, as ``np.percentile``) while under the
        cap; nearest-rank over the retained head plus bucket midpoints
        once bucketed."""
        if not self.count:
            return math.nan
        if not self._buckets:
            return _linear_percentile(self._sorted_head(), q)
        rank = min(self.count, max(1, math.ceil(q / 100.0 * self.count)))
        return self._nearest_rank(rank)

    def _sorted_head(self) -> List[float]:
        """The head in value order, caught up with the samples appended
        since the last read (one sort of a sorted run plus the tail)."""
        ordered = self._ordered
        head = self._head
        if len(ordered) < len(head):
            ordered.extend(head[len(ordered):])
            ordered.sort()
        return ordered

    def _nearest_rank(self, rank: int) -> float:
        """The ``rank``-th smallest (1-based) of the head samples and
        the bucket midpoints, each midpoint counted once per sample in
        its bucket."""
        head = self._sorted_head()
        ladder = self._ladder
        if ladder is None or ladder[0] != self.count:
            keys = sorted(self._buckets)
            ladder = self._ladder = (
                self.count, [bucket_value(k) for k in keys],
                list(accumulate(self._buckets[k] for k in keys)))
        _, mids, cum = ladder
        # first bucket whose midpoint has >= rank samples at or below it
        lo, hi = 0, len(mids)
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] + bisect_right(head, mids[mid]) >= rank:
                hi = mid
            else:
                lo = mid + 1
        below = cum[lo - 1] if lo else 0  # bucketed samples under it
        if lo < len(mids) and below + bisect_left(head, mids[lo]) < rank:
            return mids[lo]
        # the answer is a head sample lying above every earlier bucket
        return head[rank - below - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data form (snapshot/JSON-friendly)."""
        return {
            "mode": "bucketed",
            "count": self.count,
            "sum": self.total,
            "sumsq": self.sumsq,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "head": list(self._head),
            "buckets": {str(k): self._buckets[k]
                        for k in sorted(self._buckets)},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StreamingHistogram(n={self.count}, "
                f"exact={not self._buckets})")


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A sample store with summary statistics.

    The default *exact* mode keeps every sample (experiments here are
    small enough), so percentiles are exact rather than bucketed
    approximations — and paper tables derived from them are
    bit-identical run to run.  The opt-in *bucketed* mode
    (``Histogram(name, mode="bucketed")``) delegates storage to a
    :class:`StreamingHistogram`, bounding memory for long-running
    traffic experiments: count/mean/std/min/max stay exact, while
    percentiles become log-bucketed approximations once the sample
    count passes the exact cap.

    Bucketed mode serves per-cycle probes such as the parallelism
    histogram, so :meth:`add` only appends the value to a buffer.  The
    buffer is converted to float64 and folded in through
    :meth:`StreamingHistogram.add_batch` (bit-identical to per-sample
    adds) when it reaches ``exact_cap`` samples and before anything
    reads the histogram, including :meth:`extend`.

    A probe whose recorder may owe samples for cycles it skipped sets
    :attr:`settle` (``Simulator.settle``): every read calls it first.
    """

    MODES = ("exact", "bucketed")

    def __init__(self, name: str, mode: str = "exact",
                 exact_cap: int = 4096):
        if mode not in self.MODES:
            raise ValueError(
                f"histogram {name!r}: unknown mode {mode!r} "
                f"(expected one of {self.MODES})"
            )
        self.name = name
        self.mode = mode
        bucketed = mode == "bucketed"
        self._stream: Optional[StreamingHistogram] = (
            StreamingHistogram(exact_cap) if bucketed else None
        )
        #: bucketed mode: samples not yet folded into ``_stream``
        self._pending: Optional[List[float]] = [] if bucketed else None
        self._samples: List[float] = []
        #: called before every read to bring owed samples in (or None)
        self.settle: Optional[Callable[[], None]] = None

    def add(self, value: float) -> None:
        pending = self._pending
        if pending is None:
            self._samples.append(float(value))
            return
        pending.append(value)
        if len(pending) >= self._stream.exact_cap:
            self._fold()

    def add_repeated(self, value: float, n: int) -> None:
        """Append ``n`` copies of ``value``, as ``n`` :meth:`add` calls
        would."""
        pending = self._pending
        if pending is None:
            self._samples.extend([float(value)] * n)
            return
        pending.extend([value] * n)
        if len(pending) >= self._stream.exact_cap:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if pending:
            self._pending = []
            self._stream.add_batch(pending)

    def _folded(self) -> Optional[StreamingHistogram]:
        """The bucketed-mode store with every owed and buffered sample
        folded in (None in exact mode)."""
        if self.settle is not None:
            self.settle()
        if self._pending:
            self._fold()
        return self._stream

    def extend(self, values: Iterable[float]) -> None:
        stream = self._folded()
        if stream is not None:
            stream.extend(values)
        else:
            self._samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        stream = self._folded()
        if stream is not None:
            return stream.count
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        """All samples (exact mode) or the verbatim head retained
        before bucketing began (bucketed mode)."""
        stream = self._folded()
        if stream is not None:
            return stream.head
        return tuple(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples (exact in both modes)."""
        stream = self._folded()
        if stream is not None:
            return stream.total
        return float(sum(self._samples))

    @property
    def mean(self) -> float:
        stream = self._folded()
        if stream is not None:
            return stream.mean
        if not self._samples:
            return math.nan
        return float(np.mean(self._samples))

    @property
    def std(self) -> float:
        stream = self._folded()
        if stream is not None:
            return stream.std
        if not self._samples:
            return math.nan
        return float(np.std(self._samples))

    @property
    def min(self) -> float:
        stream = self._folded()
        if stream is not None:
            return stream.min
        return min(self._samples) if self._samples else math.nan

    @property
    def max(self) -> float:
        stream = self._folded()
        if stream is not None:
            return stream.max
        return max(self._samples) if self._samples else math.nan

    def percentile(self, q: float) -> float:
        stream = self._folded()
        if stream is not None:
            return stream.percentile(q)
        if not self._samples:
            return math.nan
        return float(np.percentile(self._samples, q))

    def _snapshot_state(self) -> object:
        """Snapshot form: the full sample list (exact mode) or the
        deterministic streaming-state dict (bucketed mode)."""
        stream = self._folded()
        if stream is not None:
            return stream.as_dict()
        return list(self._samples)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3g})"


class TimeSeries:
    """(cycle, value) samples, e.g. link utilization over time."""

    def __init__(self, name: str):
        self.name = name
        self._cycles: List[int] = []
        self._values: List[float] = []

    def record(self, cycle: int, value: float) -> None:
        if self._cycles and cycle < self._cycles[-1]:
            raise ValueError(
                f"time series {self.name!r}: non-monotonic cycle {cycle}"
            )
        self._cycles.append(cycle)
        self._values.append(float(value))

    @property
    def cycles(self) -> np.ndarray:
        return np.asarray(self._cycles, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._cycles)

    def window_mean(self, start: int, end: int) -> float:
        """Mean of samples with start <= cycle < end."""
        c = self.cycles
        mask = (c >= start) & (c < end)
        if not mask.any():
            return math.nan
        return float(self.values[mask].mean())


class StatsRegistry:
    """Namespaced factory for probes; one per simulator."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str, mode: Optional[str] = None,
                  exact_cap: int = 4096) -> Histogram:
        """Get or create a histogram.  ``mode`` selects the storage on
        first creation ("exact" default, "bucketed" bounded); passing a
        conflicting mode for an existing histogram raises."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name, mode=mode or "exact",
                             exact_cap=exact_cap)
            self._histograms[name] = hist
        elif mode is not None and hist.mode != mode:
            raise ValueError(
                f"histogram {name!r} already exists with mode "
                f"{hist.mode!r}, requested {mode!r}"
            )
        return hist

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {
            k: c.value for k, c in sorted(self._counters.items())
            if k.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        return {
            k: h for k, h in sorted(self._histograms.items())
            if k.startswith(prefix)
        }

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deep, plain-data snapshot of every probe.

        Counters become ints, histograms their full ordered sample
        lists (or, in bucketed mode, their deterministic streaming
        state), time series their (cycles, values) lists.  Two runs are
        behaviourally identical iff their snapshots compare equal —
        this is what the fast-path golden-equivalence tests assert.
        """
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                k: h._snapshot_state()
                for k, h in sorted(self._histograms.items())
            },
            "series": {
                k: (list(s._cycles), list(s._values))
                for k, s in sorted(self._series.items())
            },
        }

