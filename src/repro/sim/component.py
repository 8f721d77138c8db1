"""Component base class for the synchronous kernel."""

from __future__ import annotations

from typing import Optional, Union

from repro.sim.engine import SLEEP, SimError, Simulator

#: what ``tick`` may return: None (tick next cycle), SLEEP, or a wake cycle
QuiescenceHint = Optional[Union[int, type(SLEEP)]]


class Component:
    """A clocked hardware block.

    Subclasses implement :meth:`tick`, which runs once per cycle.
    Components talk by method calls: code that changes what another
    component's tick would do calls that component's :meth:`wake`.

    Quiescence protocol (optional)
    ------------------------------
    ``tick`` may return a hint to the activity-driven scheduler:

    * ``None`` — tick again next cycle (the default; any component that
      ignores the protocol keeps today's semantics);
    * :data:`repro.sim.SLEEP` — quiescent: skip this component's ticks
      until something wakes it;
    * an ``int`` cycle number — quiescent until that cycle (an absolute
      wake time; earlier wake-ups may still occur).

    Wake sources are: the timed hint coming due, or an explicit
    :meth:`wake` call.  Scheduled simulator events fire regardless of
    sleep but do **not** implicitly wake components — an event that
    makes a sleeping component relevant again must call its
    :meth:`wake` (the architecture backends' submit paths already do).

    **Contract:** while a component reports quiescence, its ``tick``
    must be an observable no-op — then spurious or early wake-ups are
    always harmless, and fast-path runs are bit-identical to slow-path
    runs (the golden-equivalence guarantee).
    """

    # the kernel-owned fields live in slots: the scheduler touches them
    # every tick, and slot access skips the instance dict. Subclasses
    # (which declare no __slots__) still get a __dict__ of their own.
    __slots__ = ("name", "_sim", "_order", "_asleep", "_wake_at",
                 "_ticks", "_tick_base", "__weakref__")

    def __init__(self, name: str):
        self.name = name
        self._sim: Optional[Simulator] = None
        # scheduler bookkeeping, owned by Simulator
        self._order: int = -1
        self._asleep: bool = False
        self._wake_at: Optional[int] = None
        self._ticks: int = 0
        self._tick_base: int = 0

    # ------------------------------------------------------------------
    def bind(self, sim: Simulator) -> None:
        """Called by ``Simulator.add``; a component belongs to one simulator."""
        if self._sim is not None and self._sim is not sim:
            raise SimError(f"component {self.name!r} already bound to a simulator")
        self._sim = sim

    @property
    def sim(self) -> Simulator:
        if self._sim is None:
            raise SimError(f"component {self.name!r} is not registered")
        return self._sim

    @property
    def now(self) -> int:
        """The current cycle number."""
        return self.sim.cycle

    # ------------------------------------------------------------------
    @property
    def asleep(self) -> bool:
        """Whether the scheduler currently has this component sleeping."""
        return self._asleep

    def wake(self) -> None:
        """Return this component to the runnable set (no-op when awake
        or unbound).  Woken by an event, it ticks this cycle; woken by
        another component's tick, it ticks next cycle — so that
        component must be registered after it, or the stepped kernel
        (which ticks it this cycle) disagrees."""
        if self._sim is not None:
            self._sim.wake(self)

    # ------------------------------------------------------------------
    def tick(self, sim: Simulator) -> "QuiescenceHint":
        """Advance the component by one clock cycle."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
