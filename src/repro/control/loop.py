"""The shared sense -> decide -> actuate control-loop abstraction.

Before this module the repo had four control loops, each with its own
polling, pacing and reprogram conventions: the intent retarget loop,
the cognitive controller's supervision tick, the fabric controller's
two-phase commit, and the degradation wrapper's retry backoff.
:class:`ControlLoop` factors the shared shape out:

* a :class:`Sensor` turns some ``poll_metrics()`` surface — a single
  switch, a sharded fabric, or externally fed counters — into one
  observation dict per decision, *consuming* the observation window
  as it does (sense returns the window and resets it);
* a :class:`Policy` maps ``(now, observation)`` to a sequence of
  :class:`Action` s, each named after a fabric programming op
  (``retarget``, ``reprogram_intended``, ...) so the same decision
  can drive one AQM or a whole fabric;
* an :class:`Actuator` applies one action and reports whether it was
  actually committed — a gated actuator (see
  :class:`repro.control.learning.EnvelopeGate`) may refuse.

Pacing is deterministic on the *simulation* clock: a loop decides at
most once per ``min_interval_s`` of sim time, never on wall time, so
replaying a trace replays the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

__all__ = [
    "AQMActuator",
    "Action",
    "Actuator",
    "ControlLoop",
    "CounterSensor",
    "Policy",
    "Sensor",
    "SwitchSensor",
]


@dataclass(frozen=True)
class Action:
    """One named actuation, in the fabric programming-op vocabulary.

    ``kind`` matches the transactional op names understood by
    :class:`repro.fabric.controller.FabricController` (``retarget``,
    ``reprogram_intended``, ...), so a policy's output can be applied
    to one switch *or* staged fleet-wide without translation.
    """

    kind: str
    args: tuple = ()


@runtime_checkable
class Sensor(Protocol):
    """Turns a metrics surface into one observation per decision."""

    def sense(self, now: float) -> dict:
        """Return the observation window ending at ``now`` and reset it."""
        ...


@runtime_checkable
class Policy(Protocol):
    """Maps one observation to zero or more actions."""

    def decide(self, now: float, observation: dict) -> Iterable[Action]:
        ...


@runtime_checkable
class Actuator(Protocol):
    """Applies one action; False means it was refused (e.g. gated)."""

    def apply(self, action: Action) -> bool:
        ...


class ControlLoop:
    """One paced sense -> decide -> actuate loop on the sim clock.

    :meth:`step` is cheap when paced: until ``min_interval_s`` of sim
    time has passed since the previous decision the loop returns
    without sensing, so it can be driven from a per-chunk supervision
    hook.  Every decision consumes the sensor's observation window
    (even when the policy holds), reproducing the windowed-statistics
    behaviour of the original intent loop byte for byte.
    """

    def __init__(self, sensor: Sensor, policy: Policy,
                 actuator: Actuator, min_interval_s: float = 1.0) -> None:
        if min_interval_s <= 0:
            raise ValueError(
                f"interval must be positive: {min_interval_s!r}")
        self.sensor = sensor
        self.policy = policy
        self.actuator = actuator
        self.min_interval_s = min_interval_s
        self._last_decision_s: float | None = None
        self.decisions = 0
        self.applied = 0
        self.rejected = 0

    @property
    def last_decision_s(self) -> float | None:
        """Sim time of the previous decision (None before the first)."""
        return self._last_decision_s

    def step(self, now: float) -> tuple[Action, ...]:
        """Run one paced iteration; returns the actions applied."""
        if self._last_decision_s is not None and \
                now - self._last_decision_s < self.min_interval_s:
            return ()
        self._last_decision_s = now
        observation = self.sensor.sense(now)
        applied = []
        for action in self.policy.decide(now, observation):
            if self.actuator.apply(action):
                self.applied += 1
                applied.append(action)
            else:
                self.rejected += 1
        self.decisions += 1
        return tuple(applied)


class CounterSensor:
    """An externally fed packet/drop window (the intent-loop feed).

    The caller diffs its own counters and calls :meth:`feed`; the
    loop's next decision consumes whatever accumulated since the
    previous one.
    """

    def __init__(self) -> None:
        self.packets = 0
        self.drops = 0

    def feed(self, packets: int, drops: int) -> None:
        if packets < 0 or drops < 0 or drops > packets:
            raise ValueError(
                f"inconsistent counters: packets={packets}, "
                f"drops={drops}")
        self.packets += packets
        self.drops += drops

    @property
    def drop_rate(self) -> float:
        """Drop fraction over the window accumulated so far."""
        if self.packets == 0:
            return 0.0
        return self.drops / self.packets

    def sense(self, now: float) -> dict:
        observation = {"packets": self.packets, "drops": self.drops,
                       "drop_rate": self.drop_rate}
        self.packets = 0
        self.drops = 0
        return observation


class SwitchSensor:
    """Windows one switch's verdict counters and delay telemetry.

    Wraps an assembled
    :class:`~repro.dataplane.pipeline.AnalogPacketProcessor`: each
    ``sense`` diffs the cumulative verdict counters against the
    previous decision and reads the per-port queue state, so a policy
    sees ``{packets, drops, drop_rate, delay_s, implied_delay_s,
    backlog}`` for the window just ended.

    Two delay signals are always reported; ``delay_source`` picks
    which one lands in ``delay_s``:

    * ``"ewma"`` — the worst per-port sojourn EWMA of *dequeued*
      packets: the ground truth the paper's 20ms +/- 10ms objective
      constrains, but it lags a reprogram by a full queue-drain time
      (packets served now were admitted under the old band);
    * ``"backlog"`` — the worst per-port ``backlog_bytes * 8 /
      service_rate_bps``: the delay a packet admitted *now* will
      suffer.  It responds to an actuation within the same window,
      which is what a learning policy must score on — with the
      lagging EWMA a lower-target candidate is punished instantly
      (drops) but rewarded a window late, biasing a gradient
      estimate against ever tightening the programming.
    """

    def __init__(self, processor, delay_source: str = "ewma") -> None:
        if delay_source not in ("ewma", "backlog"):
            raise ValueError(
                f"unknown delay source: {delay_source!r}")
        self._processor = processor
        self._delay_source = delay_source
        self._last_total = 0
        self._last_drops = 0

    #: Queue-loss verdicts: what congestion costs traffic.  Both count
    #: — an AQM drop and a tail-overflow drop are the same lost packet,
    #: and a policy scored only on AQM drops would learn to prefer
    #: programmings loose enough to shift loss into (unpenalised)
    #: overflow.
    _LOSS_VERDICTS = ("dropped_aqm", "dropped_overflow")

    @staticmethod
    def _queue_drops(counts: dict) -> int:
        # Verdict enums are matched by value so this module never
        # imports the dataplane (layering: control sits above it).
        return sum(count for verdict, count in counts.items()
                   if getattr(verdict, "value", verdict)
                   in SwitchSensor._LOSS_VERDICTS)

    def sense(self, now: float) -> dict:
        counts = self._processor.verdict_counts
        total = sum(counts.values())
        drops = self._queue_drops(counts)
        window_total = total - self._last_total
        window_drops = drops - self._last_drops
        self._last_total = total
        self._last_drops = drops
        manager = self._processor.traffic_manager
        delays = []
        implied = []
        backlog = 0
        for port in range(manager.n_ports):
            aqm = manager.aqm(port)
            analog = getattr(aqm, "analog", aqm)
            delays.append(getattr(analog, "delay_ewma_s", 0.0))
            view = manager.queue_view(port)
            implied.append(view.backlog_bytes * 8.0
                           / view.service_rate_bps)
            backlog += manager.backlog(port)
        ewma = max(delays) if delays else 0.0
        implied_delay = max(implied) if implied else 0.0
        return {
            "packets": window_total,
            "drops": window_drops,
            "drop_rate": (window_drops / window_total
                          if window_total else 0.0),
            "delay_s": (implied_delay if self._delay_source == "backlog"
                        else ewma),
            "delay_ewma_s": ewma,
            "implied_delay_s": implied_delay,
            "backlog": backlog,
        }


class AQMActuator:
    """Applies actions to one or more analog AQMs (single-switch path).

    The action vocabulary mirrors the fabric ops so the same policy
    drives a lone switch here or a whole fabric through
    :class:`repro.control.fleet.FleetActuator`.  With several AQMs
    (one per egress port) an action is applied to all of them, so a
    switch — like a fabric — never runs mixed programmings.
    Degradation wrappers are unwrapped: actuation always reaches the
    analog table itself.
    """

    def __init__(self, *aqms) -> None:
        if not aqms:
            raise ValueError("need at least one AQM to actuate")
        self.aqms = tuple(aqm.analog for aqm in aqms)

    @property
    def aqm(self):
        """The first managed AQM (the whole set shares a programming)."""
        return self.aqms[0]

    def apply(self, action: Action) -> bool:
        if action.kind == "retarget":
            for aqm in self.aqms:
                aqm.retarget(*action.args)
            return True
        if action.kind == "reprogram_intended":
            for aqm in self.aqms:
                aqm.reprogram_intended(*action.args)
            return True
        raise ValueError(f"unknown action kind: {action.kind!r}")
