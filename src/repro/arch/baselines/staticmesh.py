"""A static mesh NoC baseline: DyNoC's transport without its
reconfigurability.

Same virtual cut-through router pipeline and plain XY routing (there
are never obstacles — the module set is fixed at design time, one
module per PE), but no router removal, no placement machinery, no
surround modes. The router is correspondingly smaller and faster
(``AreaModel.staticmesh_router``), which is exactly the area/clock
price DyNoC pays for supporting dynamic module exchange — measured by
experiment E10.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.dynoc.arch import DyNoC
from repro.arch.dynoc.config import DyNoCConfig
from repro.core.parameters import (
    DesignParameters,
    ModuleShape,
    Switching,
    Topology,
)
from repro.fabric.geometry import Rect
from repro.sim import Simulator

STATICMESH_DESCRIPTOR = DesignParameters(
    name="StaticMesh",
    arch_type="NoC",
    topology=Topology.ARRAY_2D,
    module_size=ModuleShape.FIXED,   # fixed at design time
    switching=Switching.PACKET,
    bit_width=(8, 64),
    overhead=">= 4 bit",
    overhead_bits=4,
    max_payload_bytes=None,
    protocol_layers=1,
)


class StaticMesh(DyNoC):
    """DyNoC transport with the reconfiguration machinery welded shut."""

    KEY = "staticmesh"

    # ------------------------------------------------------------------
    def place_module(self, name: str, rect: Rect,
                     access: Optional[Tuple[int, int]] = None):
        if self.sim.cycle != 0:
            raise RuntimeError(
                "StaticMesh is a static design: modules are fixed at "
                "design time (cycle 0)"
            )
        if rect.w != 1 or rect.h != 1:
            raise ValueError(
                "StaticMesh hosts one design-time module per PE; "
                "multi-PE placement needs DyNoC"
            )
        return super().place_module(name, rect, access)

    def remove_module(self, name: str) -> Rect:
        raise RuntimeError(
            "StaticMesh is a static design: modules cannot be removed"
        )

    def _detach_impl(self, module: str) -> None:
        self.remove_module(module)

    # ------------------------------------------------------------------
    def descriptor(self) -> DesignParameters:
        return STATICMESH_DESCRIPTOR

    def area_slices(self) -> int:
        return self.area_model.staticmesh_total(
            self.active_routers(), self.cfg.width
        )

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("staticmesh", self.cfg.width)


def build_staticmesh(
    num_modules: int = 4,
    width: int = 32,
    seed: int = 1,
    mesh: Optional[Tuple[int, int]] = None,
    sim: Optional[Simulator] = None,
    **cfg_overrides: object,
) -> StaticMesh:
    """Smallest square mesh of design-time 1x1 modules."""
    if num_modules < 0:
        raise ValueError(f"num_modules must be >= 0, got {num_modules}")
    if mesh is not None:
        cfg = DyNoCConfig(mesh_cols=mesh[0], mesh_rows=mesh[1],
                          width=width, **cfg_overrides)  # type: ignore[arg-type]
    else:
        cfg = DyNoCConfig.for_modules(num_modules, width=width,
                                      **cfg_overrides)  # type: ignore[arg-type]
    if num_modules > cfg.num_routers:
        raise ValueError(
            f"{num_modules} modules exceed {cfg.num_routers} mesh PEs"
        )
    sim = sim or Simulator(name=f"staticmesh[{cfg.mesh_cols}x{cfg.mesh_rows}]")
    arch = StaticMesh(sim, cfg)
    sim.add(arch)
    for i in range(num_modules):
        arch.attach(f"m{i}")
    return arch
