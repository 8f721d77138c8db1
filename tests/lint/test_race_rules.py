"""Graph-rule tests (QL007–QL009, QL011): each rule gets a buggy/fixed twin.

The twins are deliberately minimal — the same topology with only the
contract-relevant detail changed — so a rule that starts matching on
the wrong feature fails one of the two.
"""

import textwrap

from repro.lint import build_graph_sources
from repro.lint.race import run_graph_rules


def findings_for(sources, rule):
    if isinstance(sources, str):
        sources = {"pkg/mod.py": sources}
    graph, errors = build_graph_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()})
    assert not errors
    return [f for f in run_graph_rules(graph) if f.rule == rule]


# ----------------------------------------------------------------------
# QL007 — write-write wire race
# ----------------------------------------------------------------------
class TestQL007:
    BUGGY = """
        from repro.sim import Component, Wire

        class DriverA(Component):
            def __init__(self, name, bus):
                super().__init__(name)
                self._bus = bus

            def tick(self, sim):
                self._bus.drive("A")
                return None

        class DriverB(Component):
            def __init__(self, name, bus):
                super().__init__(name)
                self._bus = bus

            def tick(self, sim):
                self._bus.drive("B")
                return None

        class Net:
            def __init__(self, sim):
                self.bus = Wire(sim, "bus")
                self.a = DriverA("a", self.bus)
                self.b = DriverB("b", self.bus)
    """

    def test_two_tick_drivers_flagged(self):
        findings = findings_for(self.BUGGY, "QL007")
        assert len(findings) == 1
        assert findings[0].symbol == "Net.bus"

    def test_single_driver_clean(self):
        fixed = self.BUGGY.replace('self._bus.drive("B")', "pass")
        assert findings_for(fixed, "QL007") == []

    def test_non_tick_second_writer_clean(self):
        # DriverB only writes from an explicit reset path, never tick
        fixed = self.BUGGY.replace(
            """def tick(self, sim):
                self._bus.drive("B")
                return None""",
            """def reset(self):
                self._bus.drive("B")

            def tick(self, sim):
                return None""")
        assert findings_for(fixed, "QL007") == []

    def test_cross_module_aliasing_detected(self):
        # same topology split over two files: the graph is whole-program
        sources = {
            "pkg/drivers.py": """
                from repro.sim import Component

                class DriverA(Component):
                    def __init__(self, name, bus):
                        super().__init__(name)
                        self._bus = bus

                    def tick(self, sim):
                        self._bus.drive("A")
                        return None

                class DriverB(Component):
                    def __init__(self, name, bus):
                        super().__init__(name)
                        self._bus = bus

                    def tick(self, sim):
                        self._bus.drive("B")
                        return None
            """,
            "pkg/net.py": """
                from repro.sim import Wire
                from pkg.drivers import DriverA, DriverB

                class Net:
                    def __init__(self, sim):
                        self.bus = Wire(sim, "bus")
                        self.a = DriverA("a", self.bus)
                        self.b = DriverB("b", self.bus)
            """,
        }
        assert len(findings_for(sources, "QL007")) == 1


# ----------------------------------------------------------------------
# QL008 — FIFO topology
# ----------------------------------------------------------------------
class TestQL008:
    def build(self, pusher_b_op, popper_b_op):
        return f"""
            from repro.sim import Component, FIFO

            class PusherA(Component):
                def __init__(self, name, q):
                    super().__init__(name)
                    self._q = q

                def tick(self, sim):
                    self._q.push(1)
                    return None

            class PusherB(Component):
                def __init__(self, name, q):
                    super().__init__(name)
                    self._q = q

                def tick(self, sim):
                    {pusher_b_op}
                    return None

            class PopperA(Component):
                def __init__(self, name, q):
                    super().__init__(name)
                    self._q = q

                def tick(self, sim):
                    self._q.try_pop()
                    return None

            class PopperB(Component):
                def __init__(self, name, q):
                    super().__init__(name)
                    self._q = q

                def tick(self, sim):
                    {popper_b_op}
                    return None

            class Net:
                def __init__(self, sim):
                    self.q = FIFO(sim, "q")
                    self.members = [
                        PusherA("pa", self.q), PusherB("pb", self.q),
                        PopperA("ca", self.q), PopperB("cb", self.q),
                    ]
        """

    def test_multi_producer_and_consumer_flagged(self):
        findings = findings_for(
            self.build("self._q.push(2)", "self._q.try_pop()"), "QL008")
        assert len(findings) == 2

    def test_single_producer_single_consumer_clean(self):
        findings = findings_for(self.build("pass", "pass"), "QL008")
        assert findings == []

    def test_second_party_only_reading_length_clean(self):
        findings = findings_for(
            self.build("len(self._q)", "bool(self._q)"), "QL008")
        assert findings == []


# ----------------------------------------------------------------------
# QL009 — unordered iteration
# ----------------------------------------------------------------------
class TestQL009:
    def build(self, iterable):
        return f"""
            from repro.sim import Component, Wire

            class Hub(Component):
                def __init__(self, name, sim, peers):
                    super().__init__(name)
                    self._peers = set(peers)
                    self.out = Wire(sim, "o")

                def tick(self, sim):
                    for peer in {iterable}:
                        self.out.drive(peer)
                    return None
        """

    def test_set_iteration_reaching_staged_state_flagged(self):
        findings = findings_for(self.build("self._peers"), "QL009")
        assert len(findings) == 1
        assert findings[0].symbol == "Hub.tick"

    def test_sorted_wrapper_clean(self):
        assert findings_for(self.build("sorted(self._peers)"), "QL009") == []

    def test_list_of_set_still_flagged(self):
        # list() freezes the hash order; it does not define one
        assert len(findings_for(self.build("list(self._peers)"),
                                "QL009")) == 1

    def test_loop_without_state_effects_clean(self):
        src = self.build("self._peers").replace(
            "self.out.drive(peer)", "print(peer)")
        assert findings_for(src, "QL009") == []

    def test_rng_in_set_loop_flagged(self):
        src = self.build("self._peers").replace(
            "self.out.drive(peer)", "self.rng.randint(0, peer)")
        assert len(findings_for(src, "QL009")) == 1


# ----------------------------------------------------------------------
# QL011 — fault-policy hook completeness
# ----------------------------------------------------------------------
class TestQL011:
    def build(self, arch_extra=""):
        return f"""
            class MeshArch:
                KEY = "mesh"

                def fail_router(self, coord):
                    return True
                {arch_extra}

            class MeshPolicy:
                KEY = "mesh"

                def on_fault(self, coord):
                    self.arch.fail_router(coord)

                def on_repair(self, coord):
                    self.arch.repair_router(coord)

            _POLICIES = {{
                "mesh": MeshPolicy,
            }}
        """

    def test_missing_hook_flagged(self):
        findings = findings_for(self.build(), "QL011")
        assert len(findings) == 1
        assert "repair_router" in findings[0].message
        assert findings[0].symbol == "MeshPolicy.on_repair"

    def test_complete_hooks_clean(self):
        fixed = self.build("""
                def repair_router(self, coord):
                    pass""")
        assert findings_for(fixed, "QL011") == []

    def test_inherited_hook_clean(self):
        src = """
            class RouterBase:
                def repair_router(self, coord):
                    pass

            class MeshArch(RouterBase):
                KEY = "mesh"

                def fail_router(self, coord):
                    return True

            class MeshPolicy:
                def on_repair(self, coord):
                    self.arch.repair_router(coord)

            _POLICIES = {"mesh": MeshPolicy}
        """
        assert findings_for(src, "QL011") == []

    def test_hasattr_guard_exempts(self):
        src = """
            class MeshArch:
                KEY = "mesh"

            class MeshPolicy:
                def on_fault(self, coord):
                    if hasattr(self.arch, "route_around"):
                        self.arch.route_around(coord)

            _POLICIES = {"mesh": MeshPolicy}
        """
        assert findings_for(src, "QL011") == []

    def test_repo_policies_are_complete(self):
        # the real faults/policies.py must stay hook-complete for all
        # six registered architectures
        from repro.lint import build_graph
        graph, errors = build_graph(["src/repro"])
        assert not errors
        assert "_POLICIES" in graph.registries
        assert len(graph.registries["_POLICIES"]) == 6
        findings = [f for f in run_graph_rules(graph) if f.rule == "QL011"]
        assert findings == []
