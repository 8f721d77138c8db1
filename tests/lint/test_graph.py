"""Class-graph builder tests (repro.lint.graph): the resolution the
graph rules read — effective method tables through diamond bases,
architecture keys, and registries merged across files."""

import textwrap

from repro.lint import build_graph_sources


def graph_of(sources):
    graph, errors = build_graph_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()})
    assert not errors
    return graph


class TestResolution:
    def test_diamond_bases_resolve_methods_and_key_once(self):
        graph = graph_of({"pkg/mod.py": """
            class CommBase:
                KEY = "base"

                def report(self):
                    pass

                def repair(self):
                    pass

            class TelemetryMixin(CommBase):
                def report(self):
                    pass

            class FaultMixin(CommBase):
                KEY = "fault"

            class Fabric(TelemetryMixin, FaultMixin):
                def tick(self, sim):
                    return None
        """})
        fabric = graph.classes["Fabric"]
        # own first, then bases breadth-first: the nearer override wins
        assert fabric.methods["tick"][0] == "Fabric"
        assert fabric.methods["report"][0] == "TelemetryMixin"
        assert fabric.methods["repair"][0] == "CommBase"
        assert fabric.arch_key == "fault"

    def test_registries_merge_across_files(self):
        graph = graph_of({
            "pkg/a.py": '_POLICIES = {"mesh": MeshPolicy}\n',
            "pkg/b.py": '_POLICIES = {"bus": BusPolicy}\n'
                        'NOT_A_REGISTRY = {"x": 1}\n',
        })
        assert graph.registries == {
            "_POLICIES": {"mesh": "MeshPolicy", "bus": "BusPolicy"}}
