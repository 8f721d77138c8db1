"""Vectorizing backend for the synchronous kernel.

``repro.sim.vec`` holds the vectorized counterpart of the object
kernel: a :class:`VecSimulator` that architectures detect to install
their "compiled tick" batch kernels, the :class:`BatchKernel` contract,
and the engine-selection helpers behind ``repro sweep --engine=vec``.

Only the shared-bus baseline installs a kernel: it clears a 1.5x
per-run bar on dense traffic.  RMBoC, BUS-COM, DyNoC, staticmesh and
CoNoChi run their object ``tick`` inside the same cycle loop (hybrid
execution).  See ``docs/kernel.md`` for the measurements.

The backend is a pure optimization with the same golden-equivalence
guarantee as the activity-driven fast path: a vec run is bit-identical
to an object run in :meth:`~repro.sim.stats.StatsRegistry.snapshot`
and in trace fingerprints (see ``tests/sim/test_vec_equivalence.py``).

Choose the engine per call: ``make_simulator(engine="vec")`` or
``build_architecture(..., engine="vec")``.  It pays only on unobserved
dense shared-bus traffic (``docs/kernel.md``, "Where vec pays").
"""

from __future__ import annotations

from repro.sim.vec.engine import ENGINES, VecSimulator, make_simulator
from repro.sim.vec.kernels import BatchKernel

__all__ = [
    "BatchKernel",
    "ENGINES",
    "VecSimulator",
    "make_simulator",
]
