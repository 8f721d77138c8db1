"""ASCII renderings of the paper's Figures 1-4.

The figures in the paper are architecture block diagrams; these
renderers draw the *live state* of a built system in the same layout,
so a rendered figure doubles as a structural assertion (tests check
that the drawn elements match the model's actual topology).
"""

from __future__ import annotations

from typing import List

from repro.arch.buscom.arch import BusCom
from repro.arch.buscom.schedule import SlotKind
from repro.arch.conochi.arch import CoNoChi
from repro.arch.dynoc.arch import DyNoC
from repro.arch.rmboc.fabric import RMBoC


def render_rmboc_figure(arch: RMBoC) -> str:
    """Figure 1: module slots over cross-points over k segmented buses."""
    cfg = arch.cfg
    cell = 9
    lines: List[str] = []
    mods = []
    for xp in range(cfg.num_modules):
        name = arch.module_at(xp) or "(free)"
        mods.append(f"[{name:^{cell - 2}}]")
    lines.append(" ".join(mods))
    lines.append(" ".join(f"{'|':^{cell}}" for _ in range(cfg.num_modules)))
    xps = " ".join(f"[{'XP' + str(i):^{cell - 2}}]" for i in range(cfg.num_modules))
    lines.append(xps)
    held = arch.held_lanes()
    for bus in range(cfg.num_buses):
        segs = []
        for seg in range(cfg.num_segments):
            segs.append("#" * cell if held[seg][bus] else "=" * cell)
        lines.append(
            f"bus{bus}: " + "+".join(segs) + "   (= free segment, # reserved)"
        )
    return "\n".join(lines)


def render_buscom_figure(arch: BusCom) -> str:
    """Figure 2: BUS-COM interface modules over k buses + arbiter."""
    cfg = arch.cfg
    cell = 11
    modules = list(arch.modules)
    lines: List[str] = []
    lines.append(" ".join(f"[{m:^{cell - 2}}]" for m in modules))
    lines.append(" ".join(f"[{'BUS-COM':^{cell - 2}}]" for _ in modules))
    for b in range(cfg.num_buses):
        owners = sum(
            1 for s in range(cfg.slots_per_bus)
            if arch.table.entry(b, s).kind is SlotKind.STATIC
        )
        lines.append(
            f"bus{b}: " + "=" * (cell * len(modules))
            + f"  ({owners} static / "
            f"{cfg.slots_per_bus - owners} dynamic slots)"
        )
    lines.append(f"{'Arbiter':^{cell * len(modules)}}")
    return "\n".join(lines)


def render_dynoc_figure(arch: DyNoC) -> str:
    """Figure 3: the PE/router array with placed modules.

    ``R`` = active router, module letters = PEs covered by that module
    (lower-case where the router was removed).
    """
    cfg = arch.cfg
    owner = {}
    for name, pl in arch._placements.items():
        for cell in pl.rect.cells():
            owner[cell] = (name, pl.is_single_pe)
    lines: List[str] = []
    for y in range(cfg.mesh_rows - 1, -1, -1):
        row = []
        for x in range(cfg.mesh_cols):
            if (x, y) in owner:
                name, single = owner[(x, y)]
                label = name[-1] if name else "?"
                row.append(f"{label.upper() if single else label.lower()}R"
                           if arch.is_active((x, y)) else f"{label.lower()} ")
            else:
                row.append("·R" if arch.is_active((x, y)) else "  ")
        lines.append(" ".join(row))
    lines.append("(R = active router; letters = module PEs)")
    return "\n".join(lines)


def render_conochi_figure(arch: CoNoChi) -> str:
    """Figure 4: the tile grid (S/H/V switches and lines, M modules)."""
    legend = (
        "(S switch, H/V line tiles, M module tiles, 0 free)\n"
        f"modules: "
        + ", ".join(
            f"{m}@{arch._module_switch[m]}" for m in sorted(arch.modules)
        )
    )
    return arch.grid.render() + "\n" + legend
