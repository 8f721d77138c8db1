"""Engine selection and the vectorizing simulator.

``VecSimulator`` *is* a :class:`repro.sim.engine.Simulator` — same
three-phase cycle, same activity-driven fast path, same commit
discipline — carrying the ``vectorized`` flag a batch kernel would key
on.  No architecture installs one any more: each fabric's object tick
sleeps to its event horizon and settles the skipped cycles, which is
what the last kernel (the shared bus's) did.  The engine name stays
selectable so recorded runs and sweeps that name it keep working.

Engine choice is explicit and per call (``make_simulator(engine=...)``,
``build_architecture(engine=...)``, ``repro sweep --engine``); the
default is the object kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.engine import SimError, Simulator

#: recognised engine names, in preference order for documentation
ENGINES: Tuple[str, ...] = ("object", "vec")


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name (None means ``object``)."""
    if engine is None:
        return "object"
    name = engine.strip().lower()
    if name not in ENGINES:
        raise SimError(
            f"unknown engine {engine!r}: expected one of {', '.join(ENGINES)}"
        )
    return name


class VecSimulator(Simulator):
    """A :class:`Simulator` flagged ``vectorized`` (a plain
    :class:`Simulator` has no such attribute)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vectorized = True


def make_simulator(name: str = "sim", engine: Optional[str] = None,
                   **kwargs) -> Simulator:
    """Build a simulator for the chosen engine.

    ``"vec"`` returns a :class:`VecSimulator`, ``"object"`` (or None) a
    plain :class:`Simulator`.  All other keyword arguments pass through to
    the simulator constructor.
    """
    resolved = resolve_engine(engine)
    if resolved == "vec":
        return VecSimulator(name=name, **kwargs)
    return Simulator(name=name, **kwargs)
