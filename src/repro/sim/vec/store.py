"""Struct-of-arrays state stores for the batch kernels.

:class:`IntervalSet` and :class:`EventQueue` are *list-compatible*
(``append``/``remove``/iteration/truthiness match the plain-list usage
in the architecture models), so a batch kernel can swap them in without
touching the object-path helper code, then run their bulk operations
(due extraction, interval occupancy counting) vectorized.  DyNoC's
kernel, which staticmesh inherits, is their only user.

They are only constructed when a :class:`~repro.sim.vec.VecSimulator`
vectorizes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

_GROW = 1.5
_MIN_CAP = 16


def _grown(arr, needed: int):
    cap = max(_MIN_CAP, int(len(arr) * _GROW), needed)
    out = np.empty(cap, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


class IntervalSet:
    """Link/router occupancy intervals ``(start, end, id)`` as SoA arrays.

    List-compatible with the architectures' plain-list usage (append of
    3-tuples, iteration yielding the tuples, truthiness), plus the bulk
    operations a batch kernel needs: pruning, distinct-id occupancy at
    one cycle, and per-cycle distinct-id occupancy over a whole stretch
    in one array program.
    """

    __slots__ = ("name", "_starts", "_ends", "_ids", "_n")

    def __init__(self, name: str,
                 items: Sequence[Tuple[int, int, int]] = ()):
        self.name = name
        self._starts = np.empty(_MIN_CAP, dtype=np.int64)
        self._ends = np.empty(_MIN_CAP, dtype=np.int64)
        self._ids = np.empty(_MIN_CAP, dtype=np.int64)
        self._n = 0
        for item in items:
            self.append(item)

    def append(self, item: Tuple[int, int, int]) -> None:
        start, end, ident = item
        n = self._n
        if n == len(self._starts):
            self._starts = _grown(self._starts, n + 1)
            self._ends = _grown(self._ends, n + 1)
            self._ids = _grown(self._ids, n + 1)
        self._starts[n] = start
        self._ends[n] = end
        self._ids[n] = ident
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        for i in range(self._n):
            yield (int(self._starts[i]), int(self._ends[i]),
                   int(self._ids[i]))

    def prune(self, now: int) -> None:
        """Drop intervals with ``end <= now`` (already off the wire)."""
        n = self._n
        if n == 0:
            return
        keep = np.flatnonzero(self._ends[:n] > now)
        m = keep.size
        if m != n:
            self._starts[:m] = self._starts[keep]
            self._ends[:m] = self._ends[keep]
            self._ids[:m] = self._ids[keep]
            self._n = m

    def count_distinct_at(self, now: int) -> int:
        """Distinct ids with an interval covering ``now``."""
        n = self._n
        if n == 0:
            return 0
        s, e = self._starts[:n], self._ends[:n]
        mask = (s <= now) & (now < e)
        if not mask.any():
            return 0
        return int(np.unique(self._ids[:n][mask]).size)

    def active_counts(self, t0: int, t1: int) -> "np.ndarray":
        """Per-cycle distinct-id counts over cycles ``t0 .. t1-1``.

        The vectorized replay behind parallelism back-fill: intervals of
        one id are merged (a packet streaming over successive links must
        count once per cycle, exactly like the object kernel's per-cycle
        distinct-id set), then a +1/-1 difference array is accumulated
        and cumulatively summed — O(intervals + stretch) instead of the
        object kernel's O(intervals x stretch).
        """
        span = t1 - t0
        if span <= 0:
            return np.zeros(0, dtype=np.int64)
        diff = np.zeros(span + 1, dtype=np.int64)
        n = self._n
        if n == 0:
            return diff[:span]
        s = np.maximum(self._starts[:n], t0)
        e = np.minimum(self._ends[:n], t1)
        keep = s < e
        if not keep.any():
            return diff[:span]
        s, e, ids = s[keep], e[keep], self._ids[:n][keep]
        order = np.lexsort((s, ids))
        s, e, ids = s[order], e[order], ids[order]
        # merge per-id overlapping/adjacent-in-time intervals, then mark
        cur_id = cur_s = cur_e = None
        for i in range(ids.size):
            if cur_id is not None and ids[i] == cur_id and s[i] <= cur_e:
                if e[i] > cur_e:
                    cur_e = e[i]
                continue
            if cur_id is not None:
                diff[cur_s - t0] += 1
                diff[cur_e - t0] -= 1
            cur_id, cur_s, cur_e = ids[i], s[i], e[i]
        diff[cur_s - t0] += 1
        diff[cur_e - t0] -= 1
        return np.cumsum(diff[:span])

    def max_end(self) -> Optional[int]:
        if self._n == 0:
            return None
        return int(self._ends[: self._n].max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self.name!r}, n={self._n})"


class EventQueue:
    """Timed payloads ``(ready_cycle, ...)`` with insertion order kept.

    ``append`` takes the architectures' existing tuples (index 0 is the
    ready cycle); :meth:`pop_due` extracts everything due in insertion
    order with one mask instead of the object kernel's scan-and-remove,
    and :meth:`min_ready` gives the batch kernel its wake hint.
    """

    __slots__ = ("name", "_ready", "_items", "_n")

    def __init__(self, name: str, items: Sequence[Tuple] = ()):
        self.name = name
        self._ready = np.empty(_MIN_CAP, dtype=np.int64)
        self._items: List[Tuple] = []
        self._n = 0
        for item in items:
            self.append(item)

    def append(self, item: Tuple) -> None:
        n = self._n
        if n == len(self._ready):
            self._ready = _grown(self._ready, n + 1)
        self._ready[n] = item[0]
        self._items.append(item)
        self._n = n + 1

    def remove(self, item: Tuple) -> None:
        idx = self._items.index(item)
        del self._items[idx]
        n = self._n
        self._ready[idx:n - 1] = self._ready[idx + 1:n]
        self._n = n - 1

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._items)

    def pop_due(self, now: int) -> List[Tuple]:
        """Remove and return every item with ``ready <= now``, in
        insertion order (matching the object kernel's scan order)."""
        n = self._n
        if n == 0:
            return []
        ready = self._ready[:n]
        mask = ready <= now
        if not mask.any():
            return []
        items = self._items
        due = [items[i] for i in np.flatnonzero(mask).tolist()]
        keep = np.flatnonzero(~mask)
        m = keep.size
        self._ready[:m] = ready[keep]
        self._items = [items[i] for i in keep.tolist()]
        self._n = m
        return due

    def min_ready(self) -> Optional[int]:
        if self._n == 0:
            return None
        return int(self._ready[: self._n].min())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventQueue({self.name!r}, n={self._n})"
