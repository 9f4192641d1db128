"""Intent-driven closed-loop control of the analog AQM.

The cognitive network controller's run-time half: an operator states
an *intent* — a latency bound and an acceptable loss budget — and the
loop keeps retargeting the pCAM-AQM to satisfy both.  When losses
exceed the budget while latency has slack, the loop trades latency
for loss by raising the AQM's delay target (within the intent bound);
when latency approaches the bound it tightens back.

This is the former ``repro.dataplane.control_loop``, ported onto the
shared :class:`~repro.control.loop.ControlLoop` abstraction:
:class:`IntentPolicy` is the decision rule, a
:class:`~repro.control.loop.CounterSensor` is the observation window,
and an :class:`~repro.control.loop.AQMActuator` is the ``update_pCAM``
path.  :class:`IntentController` keeps the original facade —
``observe()``/``for_port()``/``observed_drop_rate`` — byte-identical
(pinned by ``tests/test_control_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.control.loop import (
    Action,
    AQMActuator,
    ControlLoop,
    CounterSensor,
)
from repro.netfunc.aqm.pcam_aqm import PCAMAQM

__all__ = ["Intent", "IntentController", "IntentPolicy"]


@dataclass(frozen=True)
class Intent:
    """An operator-level objective for one managed queue."""

    #: Hard upper bound on the delay target the loop may set [s].
    max_delay_s: float
    #: Acceptable AQM loss rate before latency is traded away.
    max_drop_rate: float
    #: Lowest delay target worth pursuing [s].
    min_delay_s: float = 0.005

    def __post_init__(self) -> None:
        if not 0.0 < self.min_delay_s < self.max_delay_s:
            raise ValueError(
                f"need 0 < min_delay < max_delay: "
                f"{self.min_delay_s}, {self.max_delay_s}")
        if not 0.0 < self.max_drop_rate < 1.0:
            raise ValueError(
                f"drop-rate budget must be in (0, 1): "
                f"{self.max_drop_rate!r}")


class IntentPolicy:
    """The intent decision rule: trade latency for loss, bounded.

    Reads the managed AQM's current target and emits at most one
    ``retarget`` action per decision.  The rule is unchanged from the
    pre-refactor ``IntentController._decide``.
    """

    #: Multiplicative step applied to the delay target per decision.
    STEP = 1.3

    def __init__(self, aqm: PCAMAQM, intent: Intent) -> None:
        self.aqm = aqm
        self.intent = intent

    def decide(self, now: float,
               observation: dict) -> Iterable[Action]:
        drop_rate = observation["drop_rate"]
        target = self.aqm.target_delay_s
        if (drop_rate > self.intent.max_drop_rate
                and target < self.intent.max_delay_s):
            # Too lossy, latency has slack: relax the delay target.
            new_target = min(self.intent.max_delay_s,
                             target * self.STEP)
        elif (drop_rate < 0.5 * self.intent.max_drop_rate
                and target > self.intent.min_delay_s):
            # Loss budget underused: chase lower latency.
            new_target = max(self.intent.min_delay_s,
                             target / self.STEP)
        else:
            new_target = target
        if new_target != target:
            return (Action("retarget", (new_target,)),)
        return ()


class IntentController:
    """Periodic retargeting of one PCAMAQM against an intent.

    Feed it observations with :meth:`observe` (typically once per
    telemetry poll); it retargets the AQM when the intent is violated
    in either direction.  Internally this is a
    :class:`~repro.control.loop.ControlLoop`; the facade preserves
    the historical surface exactly.
    """

    #: Multiplicative step applied to the delay target per decision.
    STEP = IntentPolicy.STEP

    def __init__(self, aqm: PCAMAQM, intent: Intent,
                 min_interval_s: float = 1.0) -> None:
        self.aqm = aqm
        self.intent = intent
        self._sensor = CounterSensor()
        self.loop = ControlLoop(self._sensor, IntentPolicy(aqm, intent),
                                AQMActuator(aqm),
                                min_interval_s=min_interval_s)

    @classmethod
    def for_port(cls, processor, port: int, intent: Intent,
                 min_interval_s: float = 1.0) -> "IntentController":
        """Manage one egress port of an assembled switch.

        ``processor`` is an
        :class:`~repro.dataplane.pipeline.AnalogPacketProcessor`
        (e.g. from :func:`~repro.dataplane.switch.build_switch`); a
        degradation wrapper around the port's AQM is unwrapped so the
        loop retargets the analog table itself.
        """
        return cls(processor.traffic_manager.aqm(port).analog, intent,
                   min_interval_s)

    @property
    def min_interval_s(self) -> float:
        return self.loop.min_interval_s

    @property
    def retargets(self) -> int:
        """Retarget actuations applied so far."""
        return self.loop.applied

    @property
    def observed_drop_rate(self) -> float:
        """Drop fraction over the current observation window."""
        return self._sensor.drop_rate

    def observe(self, now: float, packets: int, drops: int) -> None:
        """Feed cumulative-interval counters and maybe retarget.

        ``packets``/``drops`` are the counts since the previous call
        (the caller diffs its counters).
        """
        self._sensor.feed(packets, drops)
        self.loop.step(now)
