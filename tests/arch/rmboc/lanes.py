"""The RMBoC lane law, checked after every stepped tick.

Each (segment, bus) lane is owned by at most one circuit, every owner
is a live channel whose ``lanes`` map that segment to that bus, and
every lane a live channel maps is owned by it: circuits hold lanes hop
by hop, from the REQUEST that reserves one until the CANCEL or DESTROY
that releases it reaches that cross-point (Ahmadinia et al., arXiv
cs/0503066).
"""

from repro.sim import Component


def check_lanes(arch) -> None:
    channels = arch._channels
    for seg, row in enumerate(arch._lanes):
        for bus, cid in enumerate(row):
            if cid is None:
                continue
            ch = channels.get(cid)
            assert ch is not None, f"lane s{seg}b{bus} owned by dead cid {cid}"
            assert ch.lanes.get(seg) == bus, (
                f"lane s{seg}b{bus} owned by cid {cid}, whose lanes are "
                f"{ch.lanes}")
    for ch in channels.values():
        for seg, bus in ch.lanes.items():
            assert arch._lanes[seg][bus] == ch.cid, (
                f"cid {ch.cid} maps s{seg}b{bus}, owned by "
                f"{arch._lanes[seg][bus]}")
    for seg, row in enumerate(arch._lanes):
        assert arch._free[seg] == row.count(None), f"free count of s{seg}"


class LaneLaw(Component):
    """Checks the lane law after the fabric's tick, every cycle; add it
    after the fabric to a stepped simulator."""

    def __init__(self, arch):
        super().__init__("lane-law")
        self.arch = arch
        self.checks = 0

    def tick(self, sim):
        check_lanes(self.arch)
        self.checks += 1
