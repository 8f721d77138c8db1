"""Closed-loop behaviour: determinism, rollback, saturation, and the
guarantee that a controller-free run is unaffected by the machinery."""

import json

import pytest

from repro.arch import build_architecture
from repro.control import ControlLoop, GuardConfig, run_adaptive_pair
from repro.control.evaluate import (ADAPT_GUARD, ADAPT_HORIZON,
                                    _scenario_buscom, _scenario_sharedbus)
from repro.control.loop import FINAL_STATUSES
from repro.obs.alerts import AlertEngine
from repro.obs.flows import FlowTelemetry
from repro.control.actions import adaptive_rules
from repro.sim import Simulator


def _wired(scenario, seed=7, guard=None, name="loop-test", fast_path=None):
    """Scenario + telemetry + adaptive alert engine + control loop."""
    sim = Simulator(name=name, fast_path=fast_path)
    tel = FlowTelemetry()
    tel.engine = AlertEngine(rules=adaptive_rules())
    tel.attach(sim)
    arch = scenario(sim, seed)
    loop = ControlLoop(arch, tel=tel, guard=guard or ADAPT_GUARD)
    return sim, arch, loop


class TestDeterminism:
    def test_same_seed_byte_identical_pair(self):
        a = run_adaptive_pair("buscom", seed=7)
        b = run_adaptive_pair("buscom", seed=7)
        assert (json.dumps(a, sort_keys=True)
                == json.dumps(b, sort_keys=True))

    def test_action_log_identical_across_engines(self):
        """The simulation engine acts the same with its fast path on
        and with it off (every cycle ticked)."""
        runs = []
        for fast_path in (True, False):
            sim, _arch, loop = _wired(_scenario_buscom, fast_path=fast_path)
            sim.run(ADAPT_HORIZON)
            assert loop.actions
            runs.append(json.dumps([loop.action_log(sim.cycle),
                                    sim.stats.snapshot()],
                                   sort_keys=True, default=str))
        assert runs[0] == runs[1]

    def test_records_settle_to_final_statuses(self):
        sim, _arch, loop = _wired(_scenario_buscom)
        sim.run(ADAPT_HORIZON)
        assert loop.actions, "the starved-slot scenario must actuate"
        assert all(r.status in FINAL_STATUSES for r in loop.actions)


class TestControllerOffIsInert:
    """Telemetry + alert rules with no subscriber must not perturb the
    run — the loop's only hook is the engine's listener list."""

    def _run(self, with_noop_listener):
        sim = Simulator(name="inert")
        tel = FlowTelemetry()
        tel.engine = AlertEngine(rules=adaptive_rules())
        tel.attach(sim)
        arch = _scenario_buscom(sim, 7)
        if with_noop_listener:
            tel.engine.subscribe(lambda event, alert: None)
        sim.run(ADAPT_HORIZON)
        tel.evaluate_now(sim.cycle)
        return sim, arch, tel.engine

    def test_noop_listener_is_bit_identical(self):
        sim_a, arch_a, eng_a = self._run(False)
        sim_b, arch_b, eng_b = self._run(True)
        assert sim_a.cycle == sim_b.cycle
        assert arch_a.log.total == arch_b.log.total
        assert (len(arch_a.log.delivered())
                == len(arch_b.log.delivered()))
        assert eng_a.snapshot(sim_a.cycle) == eng_b.snapshot(sim_b.cycle)

    def test_no_loop_means_no_control_hook(self):
        sim, _arch, _eng = self._run(False)
        assert sim.control is None


class TestRollback:
    def test_unhelpful_action_is_rolled_back_and_order_restored(self):
        sim, arch, loop = _wired(_scenario_sharedbus)
        before = arch.arbitration_order()
        sim.run(ADAPT_HORIZON)
        rolled = [r for r in loop.actions if r.status == "rolled_back"]
        assert rolled, "rebalancing a fair bus must fail its check"
        assert rolled[0].reason == "no improvement in observation window"
        # rollback reinstalls the scan order captured at plan time —
        # the same service rotation the arbiter was using
        after = arch.arbitration_order()
        rotations = [before[i:] + before[:i] for i in range(len(before))]
        assert after in rotations

    def test_confirmed_action_persists(self):
        from repro.control.evaluate import _scenario_rmboc

        sim, arch, loop = _wired(_scenario_rmboc)
        assert arch.channel_cap == 1
        sim.run(ADAPT_HORIZON)
        confirmed = [r for r in loop.actions
                     if r.status == "confirmed"]
        assert confirmed and confirmed[0].kind == "raise-channel-cap"
        assert arch.channel_cap == 2  # the fix stays in


class TestSaturation:
    TINY = GuardConfig(observe_window=4_096, cooldown=0,
                       max_actions_per_window=1,
                       budget_window=1_000_000)

    def test_budget_trips_to_observe_only(self):
        sim, _arch, loop = _wired(_scenario_buscom, guard=self.TINY)
        sim.run(ADAPT_HORIZON)
        assert loop.observe_only
        suppressed = [r for r in loop.actions
                      if r.status == "suppressed"]
        assert suppressed
        assert all(r.reason == "saturated" for r in suppressed)
        # at most one apply ever happened under a budget of one
        applied = [r for r in loop.actions
                   if r.status in ("confirmed", "rolled_back")]
        assert len(applied) == 1

    def test_saturation_raises_its_own_alert_once(self):
        sim, _arch, loop = _wired(_scenario_buscom, guard=self.TINY)
        sim.run(ADAPT_HORIZON)
        saturation = [a for a in loop.engine.alerts
                      if a.rule == "controller-saturated"]
        assert len(saturation) == 1
        assert "observe-only" in saturation[0].message

    def test_action_log_snapshot_reflects_saturation(self):
        sim, _arch, loop = _wired(_scenario_buscom, guard=self.TINY)
        sim.run(ADAPT_HORIZON)
        doc = loop.action_log(sim.cycle)
        assert doc["observe_only"] is True
        assert doc["guard"]["saturated"] is True


class TestWiring:
    def test_loop_requires_telemetry(self):
        sim = Simulator(name="bare")
        arch = build_architecture("sharedbus", num_modules=4, sim=sim)
        with pytest.raises(ValueError, match="telemetry"):
            ControlLoop(arch)

    def test_loop_builds_default_engine(self):
        sim = Simulator(name="deftel")
        tel = FlowTelemetry()
        tel.attach(sim)
        arch = build_architecture("sharedbus", num_modules=4, sim=sim)
        loop = ControlLoop(arch, tel=tel)
        assert loop.engine is tel.engine
        assert {"fabric-pressure", "backoff-storm"} <= {
            r.name for r in loop.engine.rules}

    def test_loop_registers_discovery_hook(self):
        sim, _arch, loop = _wired(_scenario_sharedbus)
        assert sim.control is loop
