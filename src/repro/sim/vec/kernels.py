"""The compiled-tick batch-kernel contract.

A *batch kernel* replaces one architecture's per-cycle object ``tick``
with an array program.  The contract a component
must satisfy to install one (enforced statically by lint rule QL006 and
dynamically by the vec==object golden-equivalence suite):

``VEC_FIELDS``
    Class attribute: the ``self._x`` containers the kernel swaps for
    its own structures.  The object-path tick may mutate hot state **only**
    through these fields (or ``VEC_SHARED``) — QL006 flags anything
    else, because state the kernel does not know about would silently
    drift between backends.

``VEC_SHARED``
    Class attribute: additional ``self._x`` state the object tick
    mutates that the kernel deliberately shares as-is (scalars and
    small dicts the batch replay updates arithmetically, stats/
    telemetry handles, RNG state).

Installation
    The architecture's ``__init__`` ends with ``self._init_vec()``
    (see :class:`repro.arch.base.CommArchitecture`); when
    ``sim.vectorized`` is set, ``_make_vec_kernel()`` returns the
    kernel and ``tick`` dispatches to it.  Everything outside ``tick``
    — fault hooks, event-phase callbacks, submit paths — keeps running
    the object code against the swapped containers, so those must keep
    the interface the object code uses.

Equivalence rules
    * A kernel's ``tick`` must leave *exactly* the state and statistics
      the object tick would have left at the same cycle: counters,
      histogram sample streams, trace events, delivery order.
    * Cross-cycle batching (returning a wake hint beyond ``now + 1``
      and replaying the skipped stretch arithmetically on the next
      tick) is only legal when the skipped ticks are deterministic
      from the state at sleep time.  State stashed *at sleep time*
      must drive the replay — live state may have been changed by
      event-phase fault hooks while the component slept.
    * Back-filled parallelism samples rely on the zero-filter
      invariant: ``_note_parallelism`` records only nonzero counts,
      and the object kernel is awake whenever the count is nonzero,
      so filtering zeros from a replayed stretch reproduces the object
      sample stream exactly regardless of where the object path slept.
    * When ``sim.telemetering`` is true the kernel must fall back to
      the object path's per-cycle hint (telemetry records per-tick
      queue depths and link busy counts); vectorized scans inside one
      tick remain legal.
    * Journey stamps (``sim.journeying`` — :mod:`repro.obs.journey`)
      need **no** kernel fallback: every stamp site lives on an
      object-code path (submits, grant/route/launch/serve decisions,
      transfer completions, deliveries) that both backends execute at
      identical cycles — the same invariant that already makes the
      delivery stream and ``latency.message`` histogram bit-identical.
      A kernel may therefore keep its cross-cycle batching with
      journeys on; the journey-record equality suite
      (``tests/obs/test_journey.py``) enforces this per architecture.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sim.engine import Simulator

#: method names that synchronize kernel state back into the object-path
#: containers.  Object-path code that reads a ``VEC_FIELDS`` attribute
#: outside the tick path must call one of these first — lint rule QL010
#: (:mod:`repro.lint.race`) uses this tuple as its flush-site metadata,
#: so a renamed flush entry point must be reflected here.
VEC_FLUSH_SITES: Tuple[str, ...] = ("flush", "flush_kernels")


class BatchKernel:
    """Base class for per-architecture compiled-tick kernels.

    Holds the back-references and the shared back-fill helper; concrete
    kernels implement :meth:`tick`.
    """

    def __init__(self, arch) -> None:
        self.arch = arch
        self.sim: Simulator = arch._sim
        self._const_buf = None  # lazily grown np.full cache

    # ------------------------------------------------------------------
    def tick(self, sim: Simulator):
        """Run one (possibly stretch-replaying) vectorized tick; returns
        the architecture's quiescence hint."""
        raise NotImplementedError

    def flush(self, now: int) -> None:
        """Bring replayed accounting up to date through cycle ``now - 1``
        (the last cycle that has actually executed).

        A kernel sleeping through a busy stretch defers its per-cycle
        samples until the wake tick; if the run ends inside the stretch
        the object path would still have recorded every executed cycle.
        :meth:`VecSimulator.flush_kernels` calls this at ``run`` /
        ``run_until`` boundaries so snapshots taken there are
        bit-identical.  Must be idempotent and must leave the pending
        wake tick replaying only the remainder."""

    # ------------------------------------------------------------------
    def constant_samples(self, n: int, value: float) -> "np.ndarray":
        """``n`` copies of ``value`` as a float64 array, reusing one
        grow-only buffer — the back-fill shape for stretches whose
        parallelism count was constant (a read-only view is returned;
        histogram batch appends only read it)."""
        buf = self._const_buf
        if buf is None or buf.size < n:
            cap = max(64, n)
            buf = self._const_buf = np.empty(cap, dtype=np.float64)
        view = buf[:n]
        view.flags.writeable = True
        view[:] = value
        view.flags.writeable = False
        return view

    def backfill_constant(self, hist, n: int, value: float) -> None:
        """Append ``n`` copies of ``value`` to ``hist``.  Short stretches
        go through per-sample adds — cheaper than array setup below a
        few dozen samples — long ones through the batched append; both
        are bit-identical to the sequential object path."""
        if n < 32:
            add = hist.add
            for _ in range(n):
                add(value)
        else:
            hist.add_batch(self.constant_samples(n, value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.arch.name!r})"
