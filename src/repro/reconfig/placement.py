"""Online 2D placement for rectangular modules.

The NoC architectures allow arbitrary rectangular modules anywhere on
the array; this module provides the online placer the survey's §1 calls
one of the open problems of DPR design. Implemented as a scanline
first-fit / best-fit over an occupancy grid — adequate for the system
sizes the paper discusses and fully deterministic, so experiments are
reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.fabric.geometry import Rect


class PlacementError(RuntimeError):
    """No feasible position for a placement request."""


class FreeRectPlacer:
    """Occupancy-grid placer for rectangular modules.

    Parameters
    ----------
    cols, rows:
        Placement area in cells (PEs or tiles).
    margin:
        Cells to keep free between any module and the area border
        (DyNoC's "completely surrounded by routers" rule uses 1).
    gap:
        Cells to keep free between modules (1 guarantees router
        corridors between obstacles for S-XY).
    forbidden:
        Cells never available (CoNoChi infrastructure tiles).
    """

    def __init__(self, cols: int, rows: int, margin: int = 0, gap: int = 0,
                 forbidden: Iterable[Tuple[int, int]] = ()):
        if cols < 1 or rows < 1:
            raise ValueError("degenerate placement area")
        if margin < 0 or gap < 0:
            raise ValueError("margin and gap must be >= 0")
        self.cols = cols
        self.rows = rows
        self.margin = margin
        self.gap = gap
        self._occupied = np.zeros((rows, cols), dtype=bool)
        self._blocked = np.zeros((rows, cols), dtype=bool)
        for (x, y) in forbidden:
            self._blocked[y, x] = True
        self._placements: Dict[str, Rect] = {}

    # ------------------------------------------------------------------
    def _candidate_ok(self, rect: Rect) -> bool:
        m = self.margin
        if rect.x < m or rect.y < m:
            return False
        if rect.x2 > self.cols - m or rect.y2 > self.rows - m:
            return False
        # blocked cells may not intersect the rect itself
        if self._blocked[rect.y:rect.y2, rect.x:rect.x2].any():
            return False
        # occupied cells may not intersect the rect grown by `gap`
        g = self.gap
        y0, y1 = max(0, rect.y - g), min(self.rows, rect.y2 + g)
        x0, x1 = max(0, rect.x - g), min(self.cols, rect.x2 + g)
        return not self._occupied[y0:y1, x0:x1].any()

    def find(self, w: int, h: int, strategy: str = "first") -> Optional[Rect]:
        """Find a position for a ``w x h`` module.

        ``first``: bottom-left scan order. ``best``: position minimizing
        distance to the area's lower-left corner (keeps free space
        contiguous, a classic online heuristic).
        """
        if w < 1 or h < 1:
            raise ValueError("degenerate module footprint")
        best: Optional[Rect] = None
        best_score = None
        for y in range(self.rows - h + 1):
            for x in range(self.cols - w + 1):
                rect = Rect(x, y, w, h)
                if not self._candidate_ok(rect):
                    continue
                if strategy == "first":
                    return rect
                score = x * x + y * y
                if best_score is None or score < best_score:
                    best, best_score = rect, score
        if strategy not in ("first", "best"):
            raise ValueError(f"unknown strategy {strategy!r}")
        return best

    def place(self, name: str, w: int, h: int,
              strategy: str = "first") -> Rect:
        """Find a position and commit it."""
        if name in self._placements:
            raise PlacementError(f"module {name!r} already placed")
        rect = self.find(w, h, strategy)
        if rect is None:
            raise PlacementError(
                f"no {w}x{h} position free (margin={self.margin}, "
                f"gap={self.gap})"
            )
        self.commit(name, rect)
        return rect

    def commit(self, name: str, rect: Rect, force: bool = False) -> None:
        """Commit an externally chosen position.

        ``force=True`` skips the margin/gap rules and only rejects
        out-of-bounds or overlapping positions — used to seed a placer
        with pre-existing placements that follow different rules (e.g.
        DyNoC 1x1 modules, which keep their router and need no margin).
        """
        if name in self._placements:
            raise PlacementError(f"module {name!r} already placed")
        if force:
            if rect.x2 > self.cols or rect.y2 > self.rows:
                raise PlacementError(f"{rect} outside the placement area")
            region = self._occupied[rect.y:rect.y2, rect.x:rect.x2]
            blocked = self._blocked[rect.y:rect.y2, rect.x:rect.x2]
            if region.any() or blocked.any():
                raise PlacementError(f"{rect} overlaps existing content")
        elif not self._candidate_ok(rect):
            raise PlacementError(f"position {rect} infeasible for {name!r}")
        self._occupied[rect.y:rect.y2, rect.x:rect.x2] = True
        self._placements[name] = rect

    def remove(self, name: str) -> Rect:
        rect = self._placements.pop(name, None)
        if rect is None:
            raise PlacementError(f"module {name!r} is not placed")
        self._occupied[rect.y:rect.y2, rect.x:rect.x2] = False
        return rect

    # ------------------------------------------------------------------
    @property
    def placements(self) -> Dict[str, Rect]:
        return dict(self._placements)

    @property
    def free_cells(self) -> int:
        return int((~(self._occupied | self._blocked)).sum())

    def utilization(self) -> float:
        usable = (~self._blocked).sum()
        return float(self._occupied.sum() / usable) if usable else 0.0
