"""Mode-switching workflow driving the other modules over a scenario
timeline.

Key distribution runs until the windowed error rate breaches its threshold;
the system then switches to perception, grades the disturbance, localizes a
significant one, files the report and waits for a reset before resuming.
Key windows and sensing see the loop phase of every event over the time
they cover, and a localization sweeps the running drive swept least
recently; with no drive running it fails.  Quasi-static
loads never breach (they are reciprocal) and are instead picked up by a
scheduled weak-measurement poll while keys keep flowing.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import perception, qkd, wm
from .disturbance import (DisturbanceEvent, PressureParams, PztParams,
                          pressure_delay)
from .errors import (Checked, HarmonicAmbiguityError, InsufficientDataError,
                     OutOfLoopError, UndefinedResolutionError, non_negative,
                     positive)
from .optics import LoopChannel, SpectralPacket
from .perception import MAX_SEED, PerceptionSettings
from .qkd import DetectorModel, QkdSettings, SourceModel
from .wm import WmSettings


#: Most key windows, :func:`qkd.window_count`, a run may hold.
MAX_KEY_WINDOWS = 100_000


class SystemMode(enum.Enum):
    KEY_DISTRIBUTION = "key_distribution"
    PERCEPTION_SENSING = "perception_sensing"
    LOCALIZING = "localizing"
    REPORTING = "reporting"
    AWAIT_RESET = "await_reset"


class EventKind(enum.Enum):
    QBER_WINDOW = "qber_window"
    BREACH_DETECTED = "breach_detected"
    DISTURBANCE_SIGNIFICANT = "disturbance_significant"
    DISTURBANCE_MINOR = "disturbance_minor"
    LOCALIZATION_DONE = "localization_done"
    LOCALIZATION_FAILED = "localization_failed"
    RESET_ISSUED = "reset_issued"


@dataclass(frozen=True)
class ScenarioScript(Checked):
    """Everything needed to replay a full scenario deterministically."""

    channel: LoopChannel
    source: SourceModel
    detector: DetectorModel
    packet: SpectralPacket
    events: tuple[DisturbanceEvent, ...]
    duration_s: float = positive()
    seed: int = non_negative()
    qkd: QkdSettings = field(default_factory=QkdSettings)
    perception: PerceptionSettings = field(default_factory=PerceptionSettings)
    wm: WmSettings = field(default_factory=WmSettings)

    def problems(self) -> list[str]:
        problems = []
        for i, ev in enumerate(self.events):
            if ev.start_s > self.duration_s:
                problems.append(
                    f"disturbances[{i}].start_s: {ev.start_s} beyond the "
                    f"scenario duration {self.duration_s}")
            if ev.position_m > self.channel.length_m:
                problems.append(
                    f"disturbances[{i}].position_m: {ev.position_m} beyond "
                    f"the loop length {self.channel.length_m}")
            if ev.is_dynamic:
                problems += [f"disturbances[{i}].{p}"
                             for p in self.perception.event_problems(ev)]
        delay = 0.0
        for i, ev in enumerate(self.events):
            if isinstance(ev.params, PressureParams):
                delay += pressure_delay(ev.params)
                problem = wm.branch_top_problem(delay, self.wm, self.packet)
                if problem:
                    problems.append(
                        f"disturbances[{i}].mass_kg: {ev.params.mass_kg} "
                        f"brings the standing weights' delay shift to "
                        f"{problem}")
                    break
        windows = qkd.window_count(self.duration_s, self.qkd.window_s)
        if windows > MAX_KEY_WINDOWS:
            problems.append(
                f"qkd.window_s: {self.qkd.window_s} splits duration_s "
                f"{self.duration_s} into {windows} key windows, more than "
                f"{MAX_KEY_WINDOWS}")
        return problems


@dataclass
class LogRecord:
    """One workflow event: when it happened, the mode it happened in, what
    it was and its data."""

    time_s: float
    mode: SystemMode
    kind: EventKind
    payload: dict


@dataclass
class ScenarioResult:
    log: list[LogRecord]
    key_records: list[qkd.SiftedKeyRecord]
    wm_readings: list[dict]
    localization_reports: list[perception.LocalizationReport]
    final_mode: SystemMode


def _active_pressure_delay(events, t: float) -> float:
    total = 0.0
    for ev in events:
        if isinstance(ev.params, PressureParams) and ev.start_s <= t:
            total += pressure_delay(ev.params)
    return total


#: Stage kinds of a run: key window, sense or acquire window and dead time.
_KEY, _SENSE, _DEAD = range(3)


class _ScenarioRunner:
    def __init__(self, script: ScenarioScript):
        self.script = script
        self.rng = np.random.default_rng(script.seed)
        self.mode = SystemMode.KEY_DISTRIBUTION
        # Duration and count of each stage kind; see _advance.
        self.durations = (script.qkd.window_s,
                          script.perception.sense_duration_s,
                          script.perception.switch_dead_time_s)
        self.stages = [0, 0, 0]
        self.t = 0.0
        # WM polls taken; poll k falls due at k * poll_interval_s.
        self.polls = 0
        self.log: list[LogRecord] = []
        self.key_records: list[qkd.SiftedKeyRecord] = []
        self.wm_readings: list[dict] = []
        self.reports: list[perception.LocalizationReport] = []
        # When each drive was last swept.
        self.swept_at: dict[DisturbanceEvent, float] = {}
        self.wm_cal = wm.calibrate(script.channel, script.packet, script.wm)

    def emit(self, kind: EventKind, payload: dict, then: SystemMode) -> None:
        """Log ``kind`` in the current mode, then switch to ``then``."""
        self.log.append(LogRecord(self.t, self.mode, kind, payload))
        self.mode = then

    def _advance(self, stage: int) -> None:
        """Pass one stage of kind ``stage`` (_KEY, _SENSE or _DEAD).  The
        time is the correctly rounded sum of each kind's count times its
        duration, so rounding does not build up over the stages."""
        self.stages[stage] += 1
        self.t = math.fsum(n * d for n, d in zip(self.stages, self.durations))

    def _live(self) -> bool:
        return self.t < self.script.duration_s - qkd.START_SLACK_S

    def run(self) -> ScenarioResult:
        """Key windows until one breaches; then sense, localize a
        significant disturbance and close the report.  Each stage starts
        only while the run lasts."""
        while self._live():
            if self._key_window() and self._live() and self._sense() \
                    and self._live():
                self._localize()
                if self._live():
                    self._reset()
        return ScenarioResult(
            log=self.log,
            key_records=self.key_records,
            wm_readings=self.wm_readings,
            localization_reports=self.reports,
            final_mode=self.mode,
        )

    def _key_window(self) -> bool:
        """One key window and the WM poll it falls due in; whether the
        window breached."""
        script = self.script
        t0, dt = self.t, script.qkd.window_s
        active = perception.events_reaching(script.events, t0, t0 + dt,
                                            script.channel)
        means = functools.partial(
            perception.window_phase_means, active, script.channel, t0, dt,
            script.qkd.pulses_per_window) if active else None
        record, _ = qkd.simulate_window(
            self.rng, script.qkd.pulses_per_window, t0, script.source,
            script.channel, script.detector, script.packet,
            script.qkd.phase_noise_rad, means)
        self.key_records.append(record)
        self._advance(_KEY)
        self.emit(EventKind.QBER_WINDOW, {
            "qber": record.qber_estimate,
            "raw_rate_bps": record.raw_rate_bps,
            "sifted_bits": record.sifted_bits,
        }, SystemMode.KEY_DISTRIBUTION)

        if self.t >= (self.polls + 1) * script.wm.poll_interval_s:
            self._wm_poll()
            self.polls += 1

        try:
            breach = qkd.qber_threshold_check(record,
                                              script.qkd.qber_threshold)
        except InsufficientDataError:
            return False
        if breach:
            self.emit(EventKind.BREACH_DETECTED, {
                "qber": record.qber_estimate,
                "threshold": script.qkd.qber_threshold,
            }, SystemMode.PERCEPTION_SENSING)
            self._advance(_DEAD)
        return breach

    def _wm_poll(self) -> None:
        script = self.script
        delay = _active_pressure_delay(script.events, self.t)
        reading = wm.read(self.wm_cal, script.wm, delay, script.packet,
                          script.channel, self.rng)
        self.wm_readings.append({"time_s": self.t, **vars(reading),
                                 "true_delay_s": delay})

    def _sense(self) -> bool:
        """Grade the disturbance; whether it is significant."""
        script = self.script
        cfg = script.perception
        _, graded = perception.sense(
            script.events, script.channel, cfg,
            int(self.rng.integers(0, MAX_SEED)), self.t)
        self._advance(_SENSE)
        if graded["peak_to_floor"] > cfg.significance_threshold:
            self.emit(EventKind.DISTURBANCE_SIGNIFICANT, graded,
                      SystemMode.LOCALIZING)
            return True
        self.emit(EventKind.DISTURBANCE_MINOR, graded,
                  SystemMode.KEY_DISTRIBUTION)
        self._advance(_DEAD)
        return False

    def _localize(self) -> None:
        script = self.script
        cfg = script.perception
        # The running drive swept least recently: one never swept before
        # all, ties in list order (min keeps the first).
        drives = [ev for ev in script.events
                  if isinstance(ev.params, PztParams) and ev.start_s <= self.t]
        if not drives:
            self.emit(EventKind.LOCALIZATION_FAILED,
                      {"reason": "no dynamic disturbance is active"},
                      SystemMode.REPORTING)
            return
        event = min(drives, key=lambda ev: self.swept_at.get(ev, -math.inf))
        self.swept_at[event] = self.t
        data = perception.acquire(event, script.channel, cfg,
                                  int(self.rng.integers(0, MAX_SEED)))
        self._advance(_SENSE)
        try:
            report = perception.locate(data, script.channel, cfg)
            reason = "no null frequency reached the depth threshold"
        except (HarmonicAmbiguityError, OutOfLoopError,
                UndefinedResolutionError) as exc:
            report, reason = None, str(exc)
        if report is None:
            self.emit(EventKind.LOCALIZATION_FAILED, {"reason": reason},
                      SystemMode.REPORTING)
            return
        self.reports.append(report)
        self.emit(EventKind.LOCALIZATION_DONE, {
            "position_m": report.position_m,
            "resolution_m": report.resolution_m,
            "nulls_hz": [nf.frequency_hz for nf in report.nulls],
        }, SystemMode.REPORTING)

    def _reset(self) -> None:
        """Close the filed report and re-arm one dead time later, unless
        the run ends first.  Manual intervention and a system reset both
        collapse to this reset request."""
        self.emit(EventKind.RESET_ISSUED, {"stage": "report_closed"},
                  SystemMode.AWAIT_RESET)
        self._advance(_DEAD)
        if self._live():
            self.emit(EventKind.RESET_ISSUED, {"stage": "rearmed"},
                      SystemMode.KEY_DISTRIBUTION)


def run_scenario(script: ScenarioScript) -> ScenarioResult:
    """Execute a scripted timeline and return the full log and results."""
    return _ScenarioRunner(script).run()
