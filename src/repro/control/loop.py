"""The closed loop: alert stream in, guarded actuation out.

:class:`ControlLoop` subscribes to an :class:`~repro.obs.alerts.
AlertEngine` (``engine.subscribe``) and reacts to **edges** — a rule
firing or clearing — never to a per-cycle poll, so an idle fabric
costs nothing and the kernel's quiescence fast-forward survives.  A
run with no controller attached executes byte-identically to one
before this module existed: the only hook is the listener list on the
alert engine, which is empty by default.

On a fire edge the loop asks the architecture's
:class:`~repro.control.actions.ActionPolicy` for an action, runs it
through the :class:`~repro.control.guards.ActuationGuard` (cooldown,
concurrency, safety budget), applies it, and schedules an improvement
check one observation window later.  If the breach has not cleared
and the re-read metric has not improved past the guard's bar, the
action is rolled back and the (rule, target) pair is put on an
extended cooldown.  Momentarily infeasible plans retry with bounded
exponential backoff and deterministic jitter; a tripped safety budget
degrades the loop to observe-only and raises a
``controller-saturated`` alert.

Everything the loop does is observable: trace emits + span events
(source ``"control"``), the ``repro.control/1`` action-log document
(:meth:`ControlLoop.action_log`), ``repro_control_*`` Prometheus
series, an "actions" pane in ``repro watch``, and ledger records via
the chaos/adapt harnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.control.actions import (ActionPolicy, adaptive_rules,
                                   make_action_policy)
from repro.control.guards import ActuationGuard, GuardConfig

__all__ = ["ControlLoop", "ActionRecord", "CONTROL_SCHEMA",
           "attach_control"]

#: schema tag of the action-log document
CONTROL_SCHEMA = "repro.control/1"

#: statuses an action record can end in
FINAL_STATUSES = ("confirmed", "rolled_back", "failed", "suppressed")


@dataclass
class ActionRecord:
    """One controller decision, applied or not."""

    aid: str
    rule: str
    kind: str
    target: str
    detail: str
    cycle: int          # decision cycle (the alert edge)
    status: str         # applied | confirmed | rolled_back | failed
                        # | suppressed
    reason: str = ""    # suppression/failure reason
    attempts: int = 0
    applied_cycle: int = -1
    checked_cycle: int = -1
    fire_value: float = 0.0
    check_value: Optional[float] = None
    subject: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "aid": self.aid,
            "rule": self.rule,
            "kind": self.kind,
            "target": self.target,
            "detail": self.detail,
            "cycle": self.cycle,
            "status": self.status,
            "reason": self.reason,
            "attempts": self.attempts,
            "applied_cycle": self.applied_cycle,
            "checked_cycle": self.checked_cycle,
            "fire_value": self.fire_value,
            "check_value": self.check_value,
            "subject": self.subject,
        }


@dataclass
class _Pending:
    record: ActionRecord
    action: Any
    alert: Any


class ControlLoop:
    """SLO-driven control plane for one architecture instance."""

    def __init__(self, arch, tel=None,
                 policy: Optional[ActionPolicy] = None,
                 guard: Optional[GuardConfig] = None):
        self.arch = arch
        self.sim = arch.sim
        self.tel = tel if tel is not None else self.sim.telemetry
        if self.tel is None:
            raise ValueError(
                "ControlLoop needs telemetry attached to the simulator "
                "(FlowTelemetry().attach(sim)) — the loop is driven by "
                "the alert stream, never a per-cycle poll"
            )
        engine = self.tel.engine
        if engine is None:
            from repro.obs.alerts import AlertEngine

            engine = self.tel.engine = AlertEngine(
                rules=adaptive_rules()
            )
        self.engine = engine
        self.policy = policy or make_action_policy(arch)
        self.guard = ActuationGuard(guard)
        self.actions: List[ActionRecord] = []
        self.observe_only = False
        self._aid_seq = itertools.count()
        self._saturation_alerted = False
        engine.subscribe(self._on_alert)
        # discovery hook for watch/prom exporters (one loop per sim)
        self.sim.control = self

    # ------------------------------------------------------------------
    # alert edges
    # ------------------------------------------------------------------
    def _on_alert(self, event: str, alert) -> None:
        if event != "fire":
            return  # clears settle via the scheduled checks
        if not self.policy.covers(alert.rule):
            return
        now = self.sim.cycle
        if self.guard.saturated(now):
            self._note_saturation(now)
            self._suppress(alert, now, "saturated")
            return
        self._resume_if_drained(now)
        reason = self.guard.admit(alert.rule, alert.subject or "arch",
                                  now)
        if reason is not None:
            if reason == "saturated":
                self._note_saturation(now)
            self._suppress(alert, now, reason)
            return
        self._attempt(alert, now, attempt=1)

    def _resume_if_drained(self, now: int) -> None:
        if self.observe_only and not self.guard.saturated(now):
            self.observe_only = False
            self._saturation_alerted = False
            if self.sim.tracing:
                self.sim.emit("control", "resumed", cycle=now)

    def _note_saturation(self, now: int) -> None:
        self.observe_only = True
        if self._saturation_alerted:
            return
        self._saturation_alerted = True
        self.engine.inject(
            "controller-saturated", cycle=now,
            value=float(self.guard.cfg.max_actions_per_window),
            threshold=float(self.guard.cfg.max_actions_per_window),
            message=(
                f"safety budget hit: "
                f"{self.guard.cfg.max_actions_per_window} actions in "
                f"{self.guard.cfg.budget_window} cycles — controller "
                f"degraded to observe-only"),
            tel=self.tel,
        )

    def _suppress(self, alert, now: int, reason: str) -> None:
        record = ActionRecord(
            aid=f"a{next(self._aid_seq)}",
            rule=alert.rule, kind="none",
            target=alert.subject or "arch", detail="",
            cycle=now, status="suppressed", reason=reason,
            fire_value=alert.value, subject=alert.subject,
        )
        self.actions.append(record)
        self._emit(record)

    # ------------------------------------------------------------------
    # actuation
    # ------------------------------------------------------------------
    def _attempt(self, alert, now: int, attempt: int) -> None:
        record: Optional[ActionRecord] = None
        try:
            action = self.policy.plan(alert, self.tel, now)
            if action is not None:
                record = ActionRecord(
                    aid=f"a{next(self._aid_seq)}",
                    rule=alert.rule, kind=action.kind,
                    target=action.target, detail=action.detail,
                    cycle=now, status="applied", attempts=attempt,
                    applied_cycle=self.sim.cycle,
                    fire_value=alert.value, subject=alert.subject,
                )
                action.apply()
        except Exception as exc:  # infeasible right now
            action = None
            failure = f"{type(exc).__name__}: {exc}"
        else:
            failure = "no feasible action"
        if action is None or record is None:
            self._retry_or_fail(alert, now, attempt, failure)
            return
        self.actions.append(record)
        self.guard.note_applied(record.aid, record.rule, record.target,
                                self.sim.cycle)
        self._emit(record)
        pending = _Pending(record=record, action=action, alert=alert)
        self.sim.after(self.guard.cfg.observe_window,
                       lambda _s: self._check(pending))

    def _retry_or_fail(self, alert, now: int, attempt: int,
                       failure: str) -> None:
        cfg = self.guard.cfg
        if attempt <= cfg.max_retries:
            delay = self.guard.retry_delay(
                attempt, alert.rule, alert.subject or "arch")
            self.sim.after(
                delay,
                lambda s: self._attempt(alert, s.cycle,
                                        attempt + 1))
            return
        record = ActionRecord(
            aid=f"a{next(self._aid_seq)}",
            rule=alert.rule, kind="none",
            target=alert.subject or "arch", detail="",
            cycle=now, status="failed", reason=failure,
            attempts=attempt, fire_value=alert.value,
            subject=alert.subject,
        )
        self.actions.append(record)
        self._emit(record)

    # ------------------------------------------------------------------
    # post-action improvement check
    # ------------------------------------------------------------------
    def _check(self, pending: _Pending) -> None:
        record = pending.record
        now = self.sim.cycle
        record.checked_cycle = now
        # force a fresh evaluation so the episode state reflects this
        # cycle, not the last grid evaluation
        self.tel.evaluate_now(now)
        still_burning = record.rule in self.engine.active(now)
        improved = not still_burning
        if still_burning and record.rule in {
                r.name for r in self.engine.rules}:
            value = self.engine.current_value(record.rule, self.tel,
                                              now)
            record.check_value = value
            rule = self.engine.rule_named(record.rule)
            if (rule.kind != "burn_rate" and value is not None
                    and value <= max(
                        rule.threshold,
                        self.guard.cfg.improve_frac
                        * record.fire_value)):
                improved = True
        if improved:
            record.status = "confirmed"
            self.guard.note_settled(record.aid, record.rule,
                                    record.target, now,
                                    rolled_back=False)
        else:
            record.status = "rolled_back"
            record.reason = "no improvement in observation window"
            try:
                pending.action.rollback()
            except Exception as exc:
                record.reason = (
                    f"rollback failed: {type(exc).__name__}: {exc}")
            self.guard.note_settled(record.aid, record.rule,
                                    record.target, now,
                                    rolled_back=True)
        self._emit(record)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _emit(self, record: ActionRecord) -> None:
        sim = self.sim
        if sim.tracing:
            sim.emit("control", record.status, aid=record.aid,
                     rule=record.rule, kind=record.kind,
                     target=record.target, reason=record.reason)
        if sim.tracer is not None:
            begin = (record.applied_cycle
                     if record.applied_cycle >= 0 else record.cycle)
            end = (record.checked_cycle
                   if record.checked_cycle >= 0 else sim.cycle)
            sim.span_event(
                "control", f"{record.kind}:{record.status}",
                begin=begin, end=max(end, begin),
                aid=record.aid, rule=record.rule,
                target=record.target, detail=record.detail,
                reason=record.reason,
            )

    def status_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.actions:
            out[record.status] = out.get(record.status, 0) + 1
        return dict(sorted(out.items()))

    def action_log(self, now: Optional[int] = None) -> Dict[str, Any]:
        """The ``repro.control/1`` document for this loop."""
        at = now if now is not None else self.sim.cycle
        return {
            "schema": CONTROL_SCHEMA,
            "arch": self.arch.KEY,
            "cycle": at,
            "actions": [r.to_dict() for r in self.actions],
            "counts": self.status_counts(),
            "observe_only": self.observe_only,
            "guard": self.guard.snapshot(at),
            "burn_cycles": self.engine.burn_cycles(at),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ControlLoop(arch={self.arch.KEY!r}, "
                f"actions={len(self.actions)}, "
                f"observe_only={self.observe_only})")


def attach_control(arch, tel=None,
                   guard: Optional[GuardConfig] = None) -> ControlLoop:
    """Convenience: build the default policy + loop for ``arch``."""
    return ControlLoop(arch, tel=tel, guard=guard)
