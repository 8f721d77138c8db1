"""TDMA slot tables — BUS-COM's virtual-topology mechanism.

A :class:`SlotTable` maps every (bus, slot) pair to either a statically
assigned owner module or the dynamic segment. The *virtual topology* of
a BUS-COM system is exactly this table: a module pair can communicate
with guaranteed bandwidth iff the sender owns static slots. Runtime
adaptation = rewriting entries (through the reconfiguration manager,
which charges the LUT-reconfiguration latency).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class SlotKind(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass
class SlotEntry:
    kind: SlotKind
    owner: Optional[str] = None  # meaningful for STATIC only

    def __post_init__(self) -> None:
        if self.kind is SlotKind.STATIC and self.owner is None:
            raise ValueError("static slot needs an owner")
        if self.kind is SlotKind.DYNAMIC and self.owner is not None:
            raise ValueError("dynamic slot cannot have an owner")


class SlotTable:
    """Per-bus TDMA schedules for a BUS-COM system."""

    def __init__(self, num_buses: int, slots_per_bus: int):
        if num_buses < 1 or slots_per_bus < 1:
            raise ValueError("need at least one bus and one slot")
        self.num_buses = num_buses
        self.slots_per_bus = slots_per_bus
        self._table: List[List[SlotEntry]] = [
            [SlotEntry(SlotKind.DYNAMIC) for _ in range(slots_per_bus)]
            for _ in range(num_buses)
        ]
        #: bumped by every rewrite, so derived schedules can be cached
        self.version = 0

    # ------------------------------------------------------------------
    def entry(self, bus: int, slot: int) -> SlotEntry:
        return self._table[bus][slot]

    def set_static(self, bus: int, slot: int, owner: str) -> None:
        self._table[bus][slot] = SlotEntry(SlotKind.STATIC, owner)
        self.version += 1

    def set_dynamic(self, bus: int, slot: int) -> None:
        self._table[bus][slot] = SlotEntry(SlotKind.DYNAMIC)
        self.version += 1

    # ------------------------------------------------------------------
    def static_slots_of(self, module: str) -> List[Tuple[int, int]]:
        """All (bus, slot) positions statically owned by ``module``."""
        return [
            (b, s)
            for b in range(self.num_buses)
            for s in range(self.slots_per_bus)
            if self._table[b][s].kind is SlotKind.STATIC
            and self._table[b][s].owner == module
        ]

    def bandwidth_share(self, module: str) -> float:
        """Fraction of all static slots owned by ``module``."""
        total = sum(
            1
            for b in range(self.num_buses)
            for s in range(self.slots_per_bus)
            if self._table[b][s].kind is SlotKind.STATIC
        )
        if total == 0:
            return 0.0
        return len(self.static_slots_of(module)) / total

    def owners(self) -> Dict[str, int]:
        """Module -> number of static slots owned."""
        out: Dict[str, int] = {}
        for bus in self._table:
            for entry in bus:
                if entry.kind is SlotKind.STATIC and entry.owner:
                    out[entry.owner] = out.get(entry.owner, 0) + 1
        return out

    def drop_module(self, module: str) -> int:
        """Convert all of ``module``'s static slots to dynamic; returns count."""
        n = 0
        for b in range(self.num_buses):
            for s in range(self.slots_per_bus):
                e = self._table[b][s]
                if e.kind is SlotKind.STATIC and e.owner == module:
                    self.set_dynamic(b, s)
                    n += 1
        return n

    # ------------------------------------------------------------------
    def plan_migration_off_bus(
        self, bus: int, healthy: Sequence[int]
    ) -> List[Tuple[int, int, int, int, str]]:
        """Plan moving every static slot of a failed ``bus`` into free
        dynamic slots of ``healthy`` buses (BUS-COM's fault response:
        the virtual topology is rewritten, not the wires).

        Pure computation — nothing is applied.  Returns plan entries
        ``(from_bus, from_slot, to_bus, to_slot, owner)``; an empty plan
        means there is nowhere to migrate (no healthy dynamic slot).
        Slots that cannot be placed are simply left off the plan."""
        free = [
            (b, s)
            for b in healthy
            for s in range(self.slots_per_bus)
            if self._table[b][s].kind is SlotKind.DYNAMIC
        ]
        plan: List[Tuple[int, int, int, int, str]] = []
        it = iter(free)
        for s in range(self.slots_per_bus):
            e = self._table[bus][s]
            if e.kind is not SlotKind.STATIC or e.owner is None:
                continue
            spot = next(it, None)
            if spot is None:
                break
            plan.append((bus, s, spot[0], spot[1], e.owner))
        return plan

    def apply_migration(
        self, plan: Sequence[Tuple[int, int, int, int, str]]
    ) -> None:
        """Rewrite the table per ``plan``: the dead bus's static slots
        become dynamic, the chosen healthy slots become static."""
        for from_bus, from_slot, to_bus, to_slot, owner in plan:
            self.set_dynamic(from_bus, from_slot)
            self.set_static(to_bus, to_slot, owner)

    def undo_migration(
        self, plan: Sequence[Tuple[int, int, int, int, str]]
    ) -> None:
        """Restore the pre-fault table after the bus is repaired."""
        for from_bus, from_slot, to_bus, to_slot, owner in plan:
            self.set_static(from_bus, from_slot, owner)
            self.set_dynamic(to_bus, to_slot)

    # ------------------------------------------------------------------
    @classmethod
    def round_robin(
        cls,
        num_buses: int,
        slots_per_bus: int,
        static_slots: int,
        modules: Sequence[str],
    ) -> "SlotTable":
        """Design-time default: the first ``static_slots`` positions of
        every bus are dealt round-robin to the modules; the rest are
        dynamic."""
        table = cls(num_buses, slots_per_bus)
        if modules:
            for b in range(num_buses):
                for s in range(static_slots):
                    table.set_static(b, s, modules[(s + b) % len(modules)])
        return table
