"""Graph-rule tests (QL009, QL011): each rule gets a buggy/fixed twin.

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
# QL009 — unordered iteration
# ----------------------------------------------------------------------
class TestQL009:
    def build(self, iterable):
        return f"""
            from repro.sim import Component

            class Hub(Component):
                def __init__(self, name, rng, peers):
                    super().__init__(name)
                    self._peers = set(peers)
                    self.rng = rng

                def tick(self, sim):
                    for peer in {iterable}:
                        self.rng.randint(0, peer)
                    return None
        """

    def test_sorted_wrapper_clean(self):
        assert findings_for(self.build("sorted(self._peers)"), "QL009") == []

    def test_list_of_set_still_flagged(self):
        # list() freezes the hash order; it does not define one
        assert len(findings_for(self.build("list(self._peers)"),
                                "QL009")) == 1

    def test_loop_without_state_effects_clean(self):
        src = self.build("self._peers").replace(
            "self.rng.randint(0, peer)", "print(peer)")
        assert findings_for(src, "QL009") == []

    def test_rng_in_set_loop_flagged(self):
        findings = findings_for(self.build("self._peers"), "QL009")
        assert len(findings) == 1
        assert findings[0].symbol == "Hub.tick"


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
