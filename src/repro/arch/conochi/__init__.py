"""CoNoChi — Configurable Network on Chip (Pionteck et al.).

A grid of tiles {0, S, H, V}: switches (S), horizontal/vertical line
tiles (H/V) and free tiles (0) holding modules and their network
interfaces. Virtual cut-through switches with four full-duplex links
route on *physical* addresses via local tables; a three-layer protocol
adds *logical* addresses resolved at the interfaces, so modules can be
moved or merged without touching their peers. A global control unit
adds or removes switches at runtime — rewriting routing tables and
redirecting packets — without stalling the rest of the NoC; this is the
architecture the survey ranks best on structural parameters.
"""

from repro.arch.conochi.arch import CoNoChi, build_conochi
from repro.arch.conochi.config import CoNoChiConfig
from repro.arch.conochi.control import GlobalControl, compute_tables

__all__ = [
    "CoNoChi",
    "CoNoChiConfig",
    "GlobalControl",
    "build_conochi",
    "compute_tables",
]
