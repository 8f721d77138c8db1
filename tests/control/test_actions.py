"""Action-policy tests: registry wiring, the adaptive rule set, and a
policy's plan/apply/rollback round trip on a live architecture."""

import pytest

from repro.arch import build_architecture
from repro.control import adaptive_rules, make_action_policy
from repro.control.actions import (ActionPolicy, SharedBusActionPolicy,
                                   StaticMeshActionPolicy,
                                   register_action_policy)
from repro.obs.alerts import Alert, default_rules


def _alert(rule="fabric-pressure", subject=""):
    return Alert(rule=rule, metric="queue_current", cycle=100,
                 value=12.0, threshold=8.0, severity="critical",
                 kind="sustained", since=90, subject=subject)


class TestRegistry:
    @pytest.mark.parametrize("key", ["buscom", "conochi", "dynoc",
                                     "staticmesh", "rmboc", "sharedbus"])
    def test_every_architecture_has_a_policy(self, key):
        arch = (build_architecture(key, num_modules=4)
                if key not in ("conochi", "dynoc")
                else build_architecture(key, num_modules=2))
        policy = make_action_policy(arch)
        assert policy.ARCH == key
        assert policy.RULES, "a policy must cover at least one rule"

    def test_unknown_architecture_raises(self):
        class Fake:
            KEY = "nonesuch"

        with pytest.raises(KeyError, match="nonesuch"):
            make_action_policy(Fake())

    def test_out_of_tree_registration(self):
        class MyPolicy(ActionPolicy):
            ARCH = "custom-arch"
            RULES = ("flow-latency-p99",)

        class Fake:
            KEY = "custom-arch"

        register_action_policy("custom-arch", MyPolicy)
        try:
            assert isinstance(make_action_policy(Fake()), MyPolicy)
        finally:
            from repro.control.actions import _POLICIES

            del _POLICIES["custom-arch"]


class TestAdaptiveRules:
    def test_extends_defaults(self):
        names = {r.name for r in adaptive_rules()}
        assert {r.name for r in default_rules()} <= names
        assert {"fabric-pressure", "backoff-storm"} <= names

    def test_staticmesh_covers_fabric_pressure(self):
        # the welded-shut baseline must still *react* (and honestly
        # fail) when router queues stay deep
        assert "fabric-pressure" in StaticMeshActionPolicy.RULES

    def test_rmboc_covers_both_famine_signals(self):
        arch = build_architecture("rmboc", num_modules=4)
        policy = make_action_policy(arch)
        assert policy.covers("backoff-storm")
        assert policy.covers("fabric-pressure")
        assert not policy.covers("tdma-slot-overrun")


class TestSharedBusRoundTrip:
    """plan/apply/rollback against a real arbiter, no control loop."""

    def _loaded_bus(self):
        arch = build_architecture("sharedbus", num_modules=4)
        ports = arch.ports
        for _ in range(6):
            ports["m2"].send("m0", 64, tag="t")
        return arch

    def test_plan_targets_most_backlogged_module(self):
        arch = self._loaded_bus()
        action = make_action_policy(arch).plan(_alert(), None, 100)
        assert action is not None
        assert action.kind == "rebalance-arbiter"
        assert action.target == "m2"

    def test_apply_then_rollback_restores_scan_order(self):
        arch = self._loaded_bus()
        before = arch.arbitration_order()
        action = make_action_policy(arch).plan(_alert(), None, 100)
        action.apply()
        assert arch.arbitration_order()[0] == "m2"
        action.rollback()
        assert arch.arbitration_order() == before

    def test_no_backlog_means_no_action(self):
        arch = build_architecture("sharedbus", num_modules=4)
        assert make_action_policy(arch).plan(_alert(), None, 100) is None


class TestRMBoCRoundTrip:
    def test_cap_raise_and_restore(self):
        arch = build_architecture("rmboc", num_modules=4,
                                  max_channels_per_module=1)
        action = make_action_policy(arch).plan(
            _alert(rule="backoff-storm"), None, 100)
        assert action is not None and action.kind == "raise-channel-cap"
        action.apply()
        assert arch.channel_cap == 2
        action.rollback()
        assert arch.channel_cap == 1

    def test_cap_at_bus_count_is_infeasible(self):
        arch = build_architecture("rmboc", num_modules=4)
        arch.set_channel_cap(arch.cfg.num_buses)
        policy = make_action_policy(arch)
        assert policy.plan(_alert(rule="backoff-storm"), None, 100) is None


class TestDyNoCRoundTrip:
    def test_rollback_onto_a_taken_site_keeps_the_module_placed(self):
        from repro.fabric.geometry import Rect
        from repro.obs.flows import FlowTelemetry

        arch = build_architecture("dynoc", num_modules=6)  # 3x3 mesh
        tel = FlowTelemetry()
        tel.record_flow(0, "m3", "m2", 500)
        action = make_action_policy(arch).plan(
            _alert(rule="flow-latency-p99"), tel, 100)
        assert action is not None and action.kind == "replace-module"
        action.apply()
        moved = arch.placement_of("m2").rect
        assert moved != Rect(2, 0, 1, 1)
        # another module takes m2's old site before the rollback
        arch.remove_module("m5")
        arch.place_module("m5", Rect(2, 0, 1, 1))
        with pytest.raises(ValueError, match="already used"):
            action.rollback()
        assert arch.placement_of("m2").rect == moved
        arch.ports["m2"].send("m0", 16)
        arch.run_to_completion()
        assert arch.log.all_delivered()

    def test_relocation_leaves_the_region_a_swap_attaches_into(self):
        """During a swap's rewrite the outgoing module's PE is empty
        but held for the incoming one: a relocation must pick another
        PE, and the swap's attach must find its region free."""
        from repro.fabric.device import get_device
        from repro.fabric.geometry import Rect
        from repro.obs.flows import FlowTelemetry
        from repro.reconfig import ModuleSpec, ReconfigurationManager

        arch = build_architecture("dynoc", num_modules=6)  # 3x3 mesh
        manager = ReconfigurationManager(arch, get_device("XC2V1000"))
        region = Rect(0, 0, 1, 40)
        record = manager.swap("m4", ModuleSpec("n4"), region)
        arch.sim.run(2)
        assert "m4" not in arch.modules and not record.done
        # m4's empty PE (1, 1) is the closest site to m3's router
        tel = FlowTelemetry()
        tel.record_flow(0, "m3", "m2", 500)
        action = make_action_policy(arch).plan(
            _alert(rule="flow-latency-p99"), tel, arch.sim.cycle)
        assert action is not None
        action.apply()
        assert arch.placement_of("m2").rect == Rect(0, 2, 1, 1)
        arch.sim.run(manager.reconfig_cycles(region))
        assert record.done
        assert arch.placement_of("n4").rect == Rect(1, 1, 1, 1)


class TestSharedBusBacklogs:
    def test_backlogs_reflect_queued_sends(self):
        arch = build_architecture("sharedbus", num_modules=3)
        arch.ports["m1"].send("m0", 64, tag="t")
        arch.ports["m1"].send("m2", 64, tag="t")
        depths = arch.backlogs()
        assert depths["m1"] == 2 and depths["m0"] == 0
        assert list(depths) == sorted(depths)
