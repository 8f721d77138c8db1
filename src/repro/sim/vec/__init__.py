"""The ``vec`` engine name and engine selection.

``repro.sim.vec`` holds :class:`VecSimulator` and the helpers behind
``repro sweep --engine=vec``.  No architecture installs a batch kernel
any more: every fabric sleeps to its event horizon on both engines and
replays the skipped cycles' samples exactly (see ``docs/kernel.md``),
so a vec run is bit-identical to an object run in
:meth:`~repro.sim.stats.StatsRegistry.snapshot` and in trace
fingerprints (see ``tests/sim/test_vec_equivalence.py``).

Choose the engine per call: ``make_simulator(engine="vec")`` or
``build_architecture(..., engine="vec")``.
"""

from __future__ import annotations

from repro.sim.vec.engine import ENGINES, VecSimulator, make_simulator

__all__ = [
    "ENGINES",
    "VecSimulator",
    "make_simulator",
]
