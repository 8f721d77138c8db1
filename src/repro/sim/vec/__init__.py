"""Struct-of-arrays (SoA) backend for the synchronous kernel.

``repro.sim.vec`` holds the vectorized counterpart of the object
kernel: list-compatible numpy stores for link/router occupancy
intervals and timed event queues, a :class:`VecSimulator` that
architectures detect to install their "compiled tick" batch kernels,
and the engine-selection helpers behind ``repro sweep --engine=vec``.

Only DyNoC, staticmesh and the shared-bus baseline install a kernel;
each clears a 1.5x per-run bar on dense traffic.  RMBoC, BUS-COM and
CoNoChi run their object ``tick`` inside the same cycle loop (hybrid
execution).  See ``docs/kernel.md`` for the measurements.

The backend is a pure optimization with the same golden-equivalence
guarantee as the activity-driven fast path: a vec run is bit-identical
to an object run in :meth:`~repro.sim.stats.StatsRegistry.snapshot`
and in trace fingerprints (see ``tests/sim/test_vec_equivalence.py``).

numpy is optional at import time: ``pip install repro[fast]`` pulls it
in explicitly, and :data:`HAVE_NUMPY`/:func:`require_numpy` gate every
array path so that the pure-Python object kernel keeps working when it
is absent (``VecSimulator`` then simply never vectorizes).
"""

from __future__ import annotations

try:  # optional [fast] extra — see pyproject.toml
    import numpy as _np  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via tests' import stub
    HAVE_NUMPY = False


def require_numpy(feature: str = "the vec engine") -> None:
    """Raise a clean, actionable ImportError when numpy is missing."""
    if not HAVE_NUMPY:
        raise ImportError(
            f"{feature} needs numpy, which is not installed. "
            f"Install the fast extra (`pip install repro[fast]`) or plain "
            f"`pip install numpy`; without it the pure-Python object "
            f"kernel (--engine=object) remains fully functional."
        )


from repro.sim.vec.engine import (  # noqa: E402
    ENGINE_ENV,
    ENGINES,
    VecSimulator,
    engine_default,
    make_simulator,
)
from repro.sim.vec.kernels import BatchKernel  # noqa: E402
from repro.sim.vec.store import EventQueue, IntervalSet  # noqa: E402

__all__ = [
    "BatchKernel",
    "ENGINE_ENV",
    "ENGINES",
    "EventQueue",
    "HAVE_NUMPY",
    "IntervalSet",
    "VecSimulator",
    "engine_default",
    "make_simulator",
    "require_numpy",
]
