"""High-level facade: a complete reconfigurable system on one device.

:class:`ReconfigurableSystem` assembles what the paper's systems always
pair: a physical device, a floorplan (column slots for the bus
architectures, a scaled 2D area for the NoCs), the interconnect, and a
reconfiguration manager. It resolves module names to physical regions,
so a swap is one call::

    system = ReconfigurableSystem("rmboc", device="XC2V6000")
    system.swap("m1", ModuleSpec("filter_v2"))
    system.sim.run_until(lambda s: system.manager.records[-1].done)

The facade also answers the floor-level questions the paper's §4.1
raises: interconnect area as a fraction of the device, and whether a
module fits its slot.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.arch import build_architecture
from repro.arch.base import CommArchitecture
from repro.fabric.device import Device, get_device
from repro.fabric.geometry import Rect
from repro.fabric.slots import SlotFloorplan
from repro.reconfig.manager import ReconfigurationManager, SwapRecord
from repro.reconfig.module import ModuleSpec
from repro.sim import Simulator

#: CLBs per NoC PE/tile edge in the default region mapping
CLBS_PER_TILE = 4


class ReconfigurableSystem:
    """Device + floorplan + interconnect + reconfiguration manager."""

    def __init__(self, arch_name: str, device: str = "XC2V6000",
                 num_modules: int = 4, width: int = 32,
                 reserved_cols: int = 4, **arch_kwargs: object):
        self.device: Device = get_device(device)
        self.arch: CommArchitecture = build_architecture(
            arch_name, num_modules=num_modules, width=width, **arch_kwargs
        )
        self.manager = ReconfigurationManager(self.arch, self.device)
        self._is_slot_based = self.arch.KEY in ("rmboc", "buscom")
        if self._is_slot_based:
            self.floorplan: Optional[SlotFloorplan] = SlotFloorplan(
                self.device, num_slots=num_modules,
                reserved_cols=reserved_cols,
            )
            for i, module in enumerate(self.arch.modules):
                self.floorplan.place(module, slot_index=i)
        else:
            self.floorplan = None

    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        return self.arch.sim

    def region_of(self, module: str) -> Rect:
        """The configuration region a module occupies on the device."""
        if self.floorplan is not None:
            return self.floorplan.slot_of(module).rect
        placement = self.arch.placement(module)
        pe_rect = placement.get("rect")
        if pe_rect is None:  # a CoNoChi module homed on its switch alone
            sx, sy = placement["switch"]
            pe_rect = Rect(sx, sy, 1, 1)
        scaled = Rect(
            pe_rect.x * CLBS_PER_TILE,
            pe_rect.y * CLBS_PER_TILE,
            pe_rect.w * CLBS_PER_TILE,
            pe_rect.h * CLBS_PER_TILE,
        )
        if not scaled.fits_in(self.device):
            raise ValueError(
                f"module {module!r} region {scaled} exceeds "
                f"{self.device.name}"
            )
        return scaled

    # ------------------------------------------------------------------
    def swap(self, module_out: str, module_in: ModuleSpec,
             on_done: Optional[Callable[[SwapRecord], None]] = None,
             **attach_kwargs: object) -> SwapRecord:
        """Exchange a module; the region is resolved from the floorplan.

        A slot-based floorplan freezes the slot for the operation and
        relabels it only if ``module_in`` attached: after a rollback or
        an abort the slot still holds ``module_out``.
        """
        region = self.region_of(module_out)
        if self.floorplan is None:
            return self.manager.swap(module_out, module_in, region,
                                     on_done=on_done, **attach_kwargs)
        slot = self.floorplan.slot_of(module_out)

        def settle(record: SwapRecord) -> None:
            if record.done and not record.rolled_back:
                slot.occupant = record.module_in
            slot.frozen = False
            if on_done is not None:
                on_done(record)

        record = self.manager.swap(module_out, module_in, region,
                                   on_done=settle, **attach_kwargs)
        slot.frozen = True
        return record

    # ------------------------------------------------------------------
    def module_fits(self, spec: ModuleSpec, module_slot_of: str) -> bool:
        """Whether a module's logic demand fits the slot it would take."""
        region = self.region_of(module_slot_of)
        return spec.fits_in_slices(region.area_slices)

    def interconnect_utilization(self) -> float:
        """Interconnect slices as a fraction of the device (§4.1)."""
        return self.device.utilization(self.arch.area_slices())

    def report(self, floorplan: bool = True) -> str:
        from repro.fabric.floorplan_render import render_floorplan

        lines = [
            f"system: {self.arch.KEY} on {self.device.name} "
            f"({self.device.total_slices} slices)",
            f"interconnect: {self.arch.area_slices()} slices "
            f"({self.interconnect_utilization():.1%} of device) @ "
            f"{self.arch.fmax_hz() / 1e6:.0f} MHz",
        ]
        regions = {m: self.region_of(m) for m in self.arch.modules}
        for module, region in regions.items():
            lines.append(
                f"  {module:10s} region {region} "
                f"({region.area_slices} slices)"
            )
        if floorplan:
            lines.append("")
            lines.append(render_floorplan(self.device, regions))
        return "\n".join(lines)
