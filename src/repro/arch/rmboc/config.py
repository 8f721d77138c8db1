"""RMBoC configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RMBoCConfig:
    """Structural and timing parameters of an RMBoC instance.

    The timing constants reproduce the survey's Table 2 figures: with
    ``xp_proc_cycles = 2``, ``accept_cycles = 2`` and
    ``reply_cycles = 2`` the contention-free setup latency is
    ``2*d + 6`` for a distance of ``d`` segments — minimum 8 cycles for
    neighbouring modules, upper bound ``2*m + 4`` over an ``m``-slot
    system — and data then moves one word per cycle.
    """

    num_modules: int = 4
    num_buses: int = 4          # k parallel segmented buses
    width: int = 32             # link width in bits

    xp_proc_cycles: int = 2     # control-message processing per cross-point
    accept_cycles: int = 2      # destination module handshake
    reply_cycles: int = 2       # REPLY transit over the reserved circuit
    cancel_proc_cycles: int = 1  # CANCEL/DESTROY processing per cross-point
    retry_backoff: int = 8      # NI wait before re-requesting after CANCEL
    #: ceiling of the exponential backoff applied to re-requests whose
    #: CANCEL was caused by a dead cross-point (fault recovery)
    fault_backoff_cap: int = 4096
    channel_linger: int = 0     # cycles an idle channel is kept before DESTROY
    max_channels_per_module: int = 0  # 0 -> defaults to num_buses

    def __post_init__(self) -> None:
        if self.num_modules < 2:
            raise ValueError("RMBoC needs at least 2 modules")
        if self.num_buses < 1:
            raise ValueError("RMBoC needs at least 1 bus")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        for f in ("xp_proc_cycles", "accept_cycles", "reply_cycles",
                  "cancel_proc_cycles", "retry_backoff"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        if self.channel_linger < 0:
            raise ValueError("channel_linger must be >= 0")
        # the NI budget and set_channel_cap need a cap in 1..num_buses
        if not 0 <= self.max_channels_per_module <= self.num_buses:
            raise ValueError(
                f"max_channels_per_module must be in 0..{self.num_buses} "
                f"(0 means num_buses)")
        if self.fault_backoff_cap < 1:
            raise ValueError("fault_backoff_cap must be >= 1")

    @property
    def num_segments(self) -> int:
        """Segments s per bus in the linear array (m-1)."""
        return self.num_modules - 1

    @property
    def channels_per_module(self) -> int:
        return self.max_channels_per_module or self.num_buses

    def setup_latency(self, distance: int) -> int:
        """Contention-free channel-setup latency over ``distance`` segments."""
        if not 1 <= distance <= self.num_segments:
            raise ValueError(f"distance {distance} outside 1..{self.num_segments}")
        return self.xp_proc_cycles * (distance + 1) + self.accept_cycles + self.reply_cycles

    @property
    def min_setup_latency(self) -> int:
        return self.setup_latency(1)

    @property
    def max_setup_latency(self) -> int:
        return self.setup_latency(self.num_segments)

    @property
    def theoretical_dmax(self) -> int:
        """d_max = s * k: one transfer per segment-lane."""
        return self.num_segments * self.num_buses

    def words(self, payload_bytes: int) -> int:
        """Payload words at the configured link width."""
        return -(-payload_bytes * 8 // self.width)
