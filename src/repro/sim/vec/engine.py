"""Engine selection and the hybrid vectorizing simulator.

``VecSimulator`` *is* a :class:`repro.sim.engine.Simulator` — same
three-phase cycle, same activity-driven fast path, same commit
discipline.  The only difference is a flag: architectures probe
``getattr(sim, "vectorized", False)`` at construction time and, when it
is set, install their compiled-tick batch kernel.  Components that
never install a kernel keep running their object tick inside the very
same cycle loop — hybrid execution — so quiescence fast-forward,
telemetry guards, the sanitizer and fault hooks all keep working
unchanged.

Engine choice is explicit and per call (``make_simulator(engine=...)``,
``build_architecture(engine=...)``, ``repro sweep --engine``); the
default is the object kernel.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
    """A :class:`Simulator` whose architectures vectorize themselves.

    ``vectorized`` is the single flag the rest of the system keys on
    (always True here; a plain :class:`Simulator` has no such
    attribute).  ``vec_kernels`` records the installed batch kernels
    for introspection and tests.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vectorized = True
        self.vec_kernels: List[object] = []

    def register_vec_kernel(self, kernel: object) -> None:
        """Record a batch kernel installed by an architecture."""
        self.vec_kernels.append(kernel)

    def flush_kernels(self) -> None:
        """Replay every kernel's deferred per-cycle accounting through
        the last executed cycle (see :meth:`BatchKernel.flush`), so a
        snapshot taken now equals the object path's."""
        for kernel in self.vec_kernels:
            kernel.flush(self.cycle)

    def run(self, cycles: int) -> None:
        super().run(cycles)
        self.flush_kernels()

    def run_until(self, predicate, max_cycles=None) -> int:
        result = super().run_until(predicate, max_cycles=max_cycles)
        self.flush_kernels()
        return result


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
