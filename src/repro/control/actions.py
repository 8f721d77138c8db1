"""Per-architecture adaptive actions for the SLO control loop.

Mirrors the structure of :mod:`repro.faults.policies`: one policy
class per architecture, each translating an alert into that design's
own runtime-reconfiguration primitive —

===========  =========================================================
BUS-COM      re-plan the TDMA table: grant a static slot (taken from
             the least-loaded owner) to the most-backlogged module
             (``reassign_slot``)
CoNoChi      insert a switch next to a crowded one and migrate a
             module onto it (``add_switch`` + ``migrate_module``)
DyNoC        re-place the hottest flow's endpoint module next to its
             peer so traffic stops detouring through saturated
             routers (``remove_module`` + ``place_module``)
StaticMesh   same policy as DyNoC — and the apply always fails,
             because the static design welds placement shut; the
             action log records the suppression, which *is* the
             paper's point about static baselines
RMBoC        lane re-allocation: raise the per-module concurrent-
             circuit cap during a backoff storm
             (``set_channel_cap``)
sharedbus    arbiter priority rebalancing: rotate the most-backlogged
             module to the head of the round-robin scan
             (``set_arbitration_order``)
===========  =========================================================

Every plan is deterministic — candidates are enumerated in sorted
order, ties break lexically — and every action carries an explicit
``rollback`` closure restoring the pre-action configuration.  Policies
only call public architecture entry points (enforced by lint rule
QL012).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.fabric.geometry import Rect
from repro.obs.alerts import AlertRule, default_rules

__all__ = ["Action", "ActionPolicy", "make_action_policy",
           "adaptive_rules", "register_action_policy"]


def adaptive_rules() -> List[AlertRule]:
    """The rule set a controller-attached run watches.

    The canonical defaults plus the controller-specific pressure
    signals: instantaneous fabric-queue depth (CoNoChi switch fabrics,
    the sharedbus arbiter) and RMBoC request-backoff storms.  Rules
    whose metrics an architecture never records simply never fire, so
    one set serves all six designs.
    """
    return default_rules() + [
        AlertRule("fabric-pressure", "queue_current", 8,
                  kind="sustained", for_cycles=256,
                  description="a fabric ingress queue has stayed deep "
                              "— switch ports or arbiter saturated"),
        AlertRule("backoff-storm", "counter:rmboc.blocked", 256,
                  kind="burn_rate", window=1_024,
                  description="RMBoC senders rejected faster than the "
                              "lane budget explains — circuits "
                              "re-colliding on saturated segments"),
    ]


@dataclass
class Action:
    """One planned actuation: apply/rollback closures plus metadata."""

    kind: str
    target: str
    detail: str = ""
    apply: Callable[[], None] = field(default=lambda: None)
    rollback: Callable[[], None] = field(default=lambda: None)


class ActionPolicy:
    """Base: maps fired alerts to architecture-specific actions."""

    ARCH = "base"
    #: alert rules this policy responds to
    RULES: Tuple[str, ...] = ()

    def __init__(self, arch):
        self.arch = arch

    def covers(self, rule: str) -> bool:
        return rule in self.RULES

    def plan(self, alert, tel, now: int) -> Optional[Action]:
        """An Action for this alert, or None when nothing feasible
        exists right now (the loop retries with backoff)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class BusComActionPolicy(ActionPolicy):
    """Dynamic TDMA slot re-planning via the SlotTable machinery."""

    ARCH = "buscom"
    RULES = ("tdma-slot-overrun",)

    def plan(self, alert, tel, now: int) -> Optional[Action]:
        arch = self.arch
        backlogs = arch.total_backlog()
        if not backlogs:
            return None
        needy = min(
            (m for m in sorted(backlogs)),
            key=lambda m: (-backlogs[m], m),
        )
        if backlogs[needy] <= 0:
            return None
        owners = arch.table.owners()
        donors = sorted(
            m for m in owners
            if m != needy and owners[m] > 0
        )
        if not donors:
            return None
        donor = min(donors, key=lambda m: (backlogs.get(m, 0), m))
        slots = sorted(arch.table.static_slots_of(donor))
        if not slots:
            return None
        bus, slot = slots[0]
        return Action(
            kind="reassign-slot",
            target=f"bus{bus}.slot{slot}",
            detail=f"{donor} -> {needy}",
            apply=lambda: arch.reassign_slot(bus, slot, needy),
            rollback=lambda: arch.reassign_slot(bus, slot, donor),
        )


# ----------------------------------------------------------------------
class CoNoChiActionPolicy(ActionPolicy):
    """Switch insertion under sustained fabric-queue pressure."""

    ARCH = "conochi"
    RULES = ("fabric-pressure",)

    def _switch_of(self, module: str):
        control = self.arch.control
        return control.switch_of(control.resolve(module))

    def plan(self, alert, tel, now: int) -> Optional[Action]:
        arch = self.arch
        grid = arch.grid
        control = arch.control
        # the most crowded switch that still shares ports between
        # modules — relieving it is what a new switch buys
        crowded = [
            s for s in sorted(grid.switches())
            if control.attachments_at(s) >= 2
        ]
        if not crowded:
            return None
        crowded.sort(key=lambda s: (-control.attachments_at(s), s))
        switch = crowded[0]
        rects = grid.modules
        for module in sorted(arch.modules):
            if self._switch_of(module) != switch:
                continue
            rect = rects.get(module)
            if rect is None:
                continue
            site = self._insertion_site(grid, rect)
            if site is None:
                continue
            return self._plan_insertion(module, switch, site, rect)
        return None

    def _insertion_site(self, grid, rect: Rect):
        """A FREE tile adjacent to the module's rect that would link
        into the existing switch fabric."""
        from repro.fabric.tiles import TileType

        switches = set(grid.switches())
        for cx, cy in sorted(rect.cells()):
            for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
                tx, ty = cx + dx, cy + dy
                if not grid.in_bounds(tx, ty):
                    continue
                if grid.get(tx, ty) is not TileType.FREE:
                    continue
                joins = any(
                    (tx + ex, ty + ey) in switches
                    for ex, ey in ((0, -1), (0, 1), (-1, 0), (1, 0))
                )
                if joins:
                    return (tx, ty)
        return None

    def _plan_insertion(self, module: str, old_switch, site,
                        rect: Rect) -> Action:
        arch = self.arch

        def apply() -> None:
            arch.add_switch(site)
            arch.migrate_module(module, site, rect)

        def rollback() -> None:
            arch.migrate_module(module, old_switch, rect)
            # the spare switch stays in the grid: remove_switch
            # refuses while table updates are pending, and an unused
            # switch is harmless capacity
        return Action(
            kind="insert-switch",
            target=f"switch{site}",
            detail=f"{module} off crowded {old_switch}",
            apply=apply,
            rollback=rollback,
        )


# ----------------------------------------------------------------------
class DyNoCActionPolicy(ActionPolicy):
    """Module re-placement around saturated routers (S-XY masking)."""

    ARCH = "dynoc"
    RULES = ("detour-storm", "link-saturation", "flow-latency-p99")

    def plan(self, alert, tel, now: int) -> Optional[Action]:
        arch = self.arch
        flows = [
            f for f in tel.flows.values()
            if f.latency.count
            and f.src in arch.modules and f.dst in arch.modules
        ]
        if not flows:
            return None
        flows.sort(key=lambda f: (-f.latency.percentile(99),
                                  f.src, f.dst))
        for flow in flows:
            action = self._plan_relocation(flow.src, flow.dst)
            if action is not None:
                return action
        return None

    def _held_cells(self) -> set:
        """PEs a queued or running reconfiguration will attach a module
        into (a swap's vacated region during its rewrite, an install's
        target, a rollback's restore): not free until that attach."""
        manager = self.arch.reconfig
        if manager is None:
            return set()
        return {cell for placement in manager.attach_targets()
                if "rect" in placement
                for cell in placement["rect"].cells()}

    def _plan_relocation(self, src: str, dst: str) -> Optional[Action]:
        arch = self.arch
        try:
            src_pl = arch.placement_of(src)
            dst_pl = arch.placement_of(dst)
        except KeyError:
            return None
        if dst_pl.rect.w != 1 or dst_pl.rect.h != 1:
            return None
        ax, ay = src_pl.access
        old_rect = dst_pl.rect
        old_access = dst_pl.access
        cur_dist = abs(old_rect.x - ax) + abs(old_rect.y - ay)
        used = self._held_cells()
        for name in arch.modules:
            try:
                used.update(arch.placement_of(name).rect.cells())
            except KeyError:
                continue
        best = None
        for x in range(arch.cfg.mesh_cols):
            for y in range(arch.cfg.mesh_rows):
                if (x, y) in used or not arch.is_active((x, y)):
                    continue
                dist = abs(x - ax) + abs(y - ay)
                if dist < 1 or dist >= cur_dist:
                    continue
                key = (dist, y, x)
                if best is None or key < best[0]:
                    best = (key, (x, y))
        if best is None:
            return None
        nx, ny = best[1]
        new_rect = Rect(nx, ny, 1, 1)

        def move(rect: Rect, access) -> None:
            here = arch.placement_of(dst)
            if not self._held_cells().isdisjoint(rect.cells()):
                raise ValueError(f"{rect} is held by a reconfiguration")
            arch.remove_module(dst)
            try:
                arch.place_module(dst, rect, access)
            except Exception:
                # keep the fabric consistent: put the module back where
                # this move found it (for a rollback, the new site: its
                # old one may have been taken since) before re-raising
                arch.place_module(dst, here.rect, here.access)
                raise

        return Action(
            kind="replace-module",
            target=dst,
            detail=f"{old_rect.x},{old_rect.y} -> {nx},{ny} "
                   f"(near {src})",
            apply=lambda: move(new_rect, (nx, ny)),
            rollback=lambda: move(old_rect, old_access),
        )


class StaticMeshActionPolicy(DyNoCActionPolicy):
    """Same plan as DyNoC; apply always fails on the welded-shut
    baseline, leaving an honest "infeasible" trail in the action log."""

    ARCH = "staticmesh"
    # the static mesh can't mask routers either, so congestion shows
    # up as router-queue pressure rather than detours — cover it and
    # let the (always-infeasible) relocation plan document why the
    # static baseline cannot adapt
    RULES = DyNoCActionPolicy.RULES + ("fabric-pressure",)


# ----------------------------------------------------------------------
class RMBoCActionPolicy(ActionPolicy):
    """Lane re-allocation under backoff storms."""

    ARCH = "rmboc"
    # lane famine surfaces two ways: senders backing off after lane
    # rejections (blocked counter storms) and messages piling up at a
    # network interface whose channel budget is exhausted (NI queue
    # pressure) — the same knob relieves both
    RULES = ("backoff-storm", "fabric-pressure")

    def plan(self, alert, tel, now: int) -> Optional[Action]:
        arch = self.arch
        cap = arch.channel_cap
        if cap >= arch.cfg.num_buses:
            return None
        return Action(
            kind="raise-channel-cap",
            target="fabric",
            detail=f"cap {cap} -> {cap + 1}",
            apply=lambda: arch.set_channel_cap(cap + 1),
            rollback=lambda: arch.set_channel_cap(cap),
        )


# ----------------------------------------------------------------------
class SharedBusActionPolicy(ActionPolicy):
    """Arbiter priority rebalancing on the static baseline bus."""

    ARCH = "sharedbus"
    RULES = ("fabric-pressure",)

    def plan(self, alert, tel, now: int) -> Optional[Action]:
        arch = self.arch
        backlogs = arch.backlogs()
        if not backlogs:
            return None
        head = min(sorted(backlogs),
                   key=lambda m: (-backlogs[m], m))
        if backlogs[head] <= 0:
            return None
        order = arch.arbitration_order()
        if not order or order[0] == head:
            return None
        i = order.index(head)
        new_order = order[i:] + order[:i]

        def rollback() -> None:
            arch.set_arbitration_order(order)

        return Action(
            kind="rebalance-arbiter",
            target=head,
            detail=f"scan head {order[0]} -> {head}",
            apply=lambda: arch.set_arbitration_order(new_order),
            rollback=rollback,
        )


# ----------------------------------------------------------------------
_POLICIES: Dict[str, Type[ActionPolicy]] = {
    "buscom": BusComActionPolicy,
    "conochi": CoNoChiActionPolicy,
    "dynoc": DyNoCActionPolicy,
    "staticmesh": StaticMeshActionPolicy,
    "rmboc": RMBoCActionPolicy,
    "sharedbus": SharedBusActionPolicy,
}


def register_action_policy(key: str,
                           policy: Type[ActionPolicy]) -> None:
    """Out-of-tree architectures plug their action policy in here."""
    _POLICIES[key] = policy


def make_action_policy(arch) -> ActionPolicy:
    """The action policy for an architecture instance (KeyError when
    the architecture has none registered)."""
    try:
        cls = _POLICIES[arch.KEY]
    except KeyError:
        raise KeyError(
            f"no action policy registered for architecture "
            f"{arch.KEY!r} (known: {', '.join(sorted(_POLICIES))})"
        ) from None
    return cls(arch)
