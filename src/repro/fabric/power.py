"""Interconnect energy model — quantifying the paper's §2.2 claims.

The survey argues qualitatively that buses suffer from "long
communication lines [which] are costly to route, and in general lead to
huge power consumption", while segmented NoCs "only use local wires,
resulting in less power consumption". This model makes the claim
measurable: energy is charged per bit for

* wire traversal, proportional to geometric length (CLB pitch x CLBs);
* switch/cross-point traversal (buffers + crossbar + arbitration);
* bus broadcast driving (tri-state drivers see the whole line).

The coefficients are synthetic but physically shaped (order of
magnitude of 150 nm-era published figures) and identical across
architectures, so *ratios* between architectures are meaningful even
though absolute joules are not calibrated to silicon. Flagged as an
extension (not in the paper) in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit energy coefficients and device geometry."""

    clb_pitch_mm: float = 0.35        # physical pitch of one CLB
    wire_pj_per_bit_mm: float = 0.40  # repeated wire, per bit per mm
    switch_pj_per_bit: float = 1.20   # NoC switch traversal (buffer+xbar)
    crosspoint_pj_per_bit: float = 0.60  # RMBoC cross-point (no buffering)
    bus_driver_pj_per_bit: float = 1.80  # tri-state broadcast drivers

    def __post_init__(self) -> None:
        for f in ("clb_pitch_mm", "wire_pj_per_bit_mm",
                  "switch_pj_per_bit", "crosspoint_pj_per_bit",
                  "bus_driver_pj_per_bit"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")

    # ------------------------------------------------------------------
    def wire_pj(self, bits: float, length_clbs: float) -> float:
        """Energy to move ``bits`` over ``length_clbs`` of wire."""
        return bits * length_clbs * self.clb_pitch_mm * self.wire_pj_per_bit_mm

    def bus_broadcast_pj(self, bits: float, bus_length_clbs: float) -> float:
        """One frame driven onto an unsegmented bus: the whole line
        toggles regardless of the receiver's position."""
        return (
            bits * self.bus_driver_pj_per_bit
            + self.wire_pj(bits, bus_length_clbs)
        )

    def noc_hop_pj(self, bits: float, link_clbs: float) -> float:
        """One NoC hop: short link + full switch traversal."""
        return self.wire_pj(bits, link_clbs) + bits * self.switch_pj_per_bit
