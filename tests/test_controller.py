import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from sagnacsim import perception, qkd
from sagnacsim.config import parse_config_dict
from sagnacsim.controller import (EventKind, ScenarioScript, SystemMode,
                                  _ScenarioRunner)
from sagnacsim.controller import run_scenario as _run_scenario
from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams,
                                   PressureParams, PztParams)
from sagnacsim.errors import (HarmonicAmbiguityError, OutOfLoopError,
                              UndefinedResolutionError)
from sagnacsim.optics import LoopChannel, SpectralPacket
from sagnacsim.perception import PerceptionSettings, frequency_sweep
from sagnacsim.qkd import DetectorModel, QkdSettings, SourceModel
from sagnacsim.wm import WmSettings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_digests import CONFIGS  # noqa: E402

LEGAL = {
    (SystemMode.KEY_DISTRIBUTION, EventKind.QBER_WINDOW):
        SystemMode.KEY_DISTRIBUTION,
    (SystemMode.KEY_DISTRIBUTION, EventKind.BREACH_DETECTED):
        SystemMode.PERCEPTION_SENSING,
    (SystemMode.PERCEPTION_SENSING, EventKind.DISTURBANCE_SIGNIFICANT):
        SystemMode.LOCALIZING,
    (SystemMode.PERCEPTION_SENSING, EventKind.DISTURBANCE_MINOR):
        SystemMode.KEY_DISTRIBUTION,
    (SystemMode.LOCALIZING, EventKind.LOCALIZATION_DONE):
        SystemMode.REPORTING,
    (SystemMode.LOCALIZING, EventKind.LOCALIZATION_FAILED):
        SystemMode.REPORTING,
    (SystemMode.REPORTING, EventKind.RESET_ISSUED):
        SystemMode.AWAIT_RESET,
    (SystemMode.AWAIT_RESET, EventKind.RESET_ISSUED):
        SystemMode.KEY_DISTRIBUTION,
}


def assert_legal(result):
    """Each record is logged in the mode its predecessor led to, a report
    is only ever closed by a reset, and the run ends where its last record
    leads."""
    mode = SystemMode.KEY_DISTRIBUTION
    for rec in result.log:
        assert rec.mode is mode
        if rec.mode is SystemMode.REPORTING:
            assert rec.kind is EventKind.RESET_ISSUED
        assert (rec.mode, rec.kind) in LEGAL
        mode = LEGAL[(rec.mode, rec.kind)]
    assert result.final_mode is mode


def run_scenario(script):
    """Every run of this file, checked against ``LEGAL``."""
    result = _run_scenario(script)
    assert_legal(result)
    return result


def base_script(events=(), duration=6.0, seed=7, pulses=200_000,
                poll_s=60.0, wm_noise=0.0, window_s=1.0, dead_time_s=1.0):
    return ScenarioScript(
        channel=LoopChannel(length_m=30000.0, loss_db=16.5,
                            intrinsic_delay_s=3e-13),
        source=SourceModel(),
        detector=DetectorModel(),
        packet=SpectralPacket.from_wavelength(),
        events=tuple(events),
        duration_s=duration,
        seed=seed,
        qkd=QkdSettings(window_s=window_s, pulses_per_window=pulses),
        perception=PerceptionSettings(switch_dead_time_s=dead_time_s),
        wm=WmSettings(poll_interval_s=poll_s, noise_sigma=wm_noise),
    )


def strong_pzt(position_m=5000.0, start_s=2.0, f_hz=3000.0):
    return DisturbanceEvent(
        PztParams(drive_amplitude_v=1.2,
                  frequency_hz=f_hz,
                  phase_gain_rad_per_v=0.5),
        position_m=position_m, start_s=start_s)


class TestRunScenario:
    def test_quiet_scenario_stays_in_key_mode(self):
        result = run_scenario(base_script(duration=4.0))
        kinds = {rec.kind for rec in result.log}
        assert kinds == {EventKind.QBER_WINDOW}
        assert all(rec.mode is SystemMode.KEY_DISTRIBUTION
                   for rec in result.log)
        assert result.final_mode is SystemMode.KEY_DISTRIBUTION
        assert result.localization_reports == []

    def test_pzt_breach_runs_full_sequence(self):
        result = run_scenario(base_script(events=[strong_pzt()],
                                          duration=6.0))
        kinds = [rec.kind for rec in result.log]
        assert EventKind.BREACH_DETECTED in kinds
        i = kinds.index(EventKind.BREACH_DETECTED)
        tail = kinds[i:]
        assert EventKind.DISTURBANCE_SIGNIFICANT in tail
        assert EventKind.LOCALIZATION_DONE in tail
        assert EventKind.RESET_ISSUED in tail
        modes = [rec.mode for rec in result.log]
        for m in (SystemMode.KEY_DISTRIBUTION, SystemMode.PERCEPTION_SENSING,
                  SystemMode.LOCALIZING, SystemMode.REPORTING,
                  SystemMode.AWAIT_RESET):
            assert m in modes
        assert len(result.localization_reports) >= 1
        report = result.localization_reports[0]
        assert report.position_m == pytest.approx(5000.0, abs=200.0)

    @pytest.mark.parametrize("error", [
        HarmonicAmbiguityError("two nulls map to harmonic index 1"),
        OutOfLoopError("null at 377.0 Hz (k=1) lies below the in-loop "
                       "floor 6807.0 Hz"),
        UndefinedResolutionError("null frequency 10211.2 Hz is not above "
                                 "the frequency resolution 20000.0 Hz")],
        ids=lambda error: type(error).__name__)
    def test_locate_errors_are_reported_not_raised(self, monkeypatch, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(perception, "locate", failing)
        result = run_scenario(base_script(events=[strong_pzt()],
                                          duration=6.0))
        failed = [rec for rec in result.log
                  if rec.kind is EventKind.LOCALIZATION_FAILED]
        assert failed
        assert failed[0].mode is SystemMode.LOCALIZING
        assert failed[0].payload == {"reason": str(error)}
        kinds = [rec.kind for rec in result.log]
        assert EventKind.LOCALIZATION_DONE not in kinds
        i = result.log.index(failed[0])
        assert result.log[i + 1].mode is SystemMode.REPORTING
        assert result.localization_reports == []

    def test_liveness_reaches_reporting(self):
        result = run_scenario(base_script(events=[strong_pzt(start_s=1.0)],
                                          duration=6.0))
        assert any(rec.mode is SystemMode.REPORTING for rec in result.log)

    def test_determinism_byte_identical_logs(self):
        def render(result):
            return json.dumps([
                {"t": rec.time_s, "mode": rec.mode.value,
                 "kind": rec.kind.value, "payload": rec.payload}
                for rec in result.log], sort_keys=True)

        script = base_script(events=[strong_pzt()], duration=6.0)
        assert render(run_scenario(script)) == render(run_scenario(script))

    def test_no_key_generation_outside_key_mode(self):
        result = run_scenario(base_script(events=[strong_pzt()],
                                          duration=8.0))
        windows = [rec for rec in result.log
                   if rec.kind is EventKind.QBER_WINDOW]
        assert len(windows) == len(result.key_records)
        assert all(rec.mode is SystemMode.KEY_DISTRIBUTION
                   for rec in windows)

    def test_quasi_static_event_never_breaches(self):
        pressed = base_script(
            events=[DisturbanceEvent(PressureParams(mass_kg=0.1),
                                     position_m=12000.0, start_s=1.0)],
            duration=6.0, pulses=2_000_000, poll_s=2.0)
        result = run_scenario(pressed)
        assert result.final_mode is SystemMode.KEY_DISTRIBUTION
        assert all(rec.kind in (EventKind.QBER_WINDOW,)
                   for rec in result.log)
        assert result.wm_readings
        for reading in result.wm_readings:
            assert reading["inferred_delay_s"] == pytest.approx(9.81e-18,
                                                                abs=1e-20)
            assert reading["inferred_mass_kg"] == pytest.approx(0.1,
                                                                rel=1e-6)

    def test_noisy_wm_poll_tracks_mass(self):
        pressed = base_script(
            events=[DisturbanceEvent(PressureParams(mass_kg=0.2),
                                     position_m=9000.0, start_s=1.0)],
            duration=6.0, poll_s=1.5, wm_noise=WmSettings().noise_sigma)
        result = run_scenario(pressed)
        readings = result.wm_readings
        assert len(readings) >= 3
        for reading in readings:
            assert reading["true_delay_s"] == pytest.approx(1.962e-17)
            # 16-sample averages of 0.19 % noise: sigma about 0.0015 kg
            assert reading["inferred_mass_kg"] == pytest.approx(0.2, abs=0.01)
            # the noise really enters: not the noise-free inversion
            assert abs(reading["inferred_mass_kg"] - 0.2) > 1e-9

        def render(result):
            return json.dumps({
                "log": [{"t": rec.time_s, "kind": rec.kind.value,
                         "payload": rec.payload} for rec in result.log],
                "wm": result.wm_readings}, sort_keys=True)

        assert render(run_scenario(pressed)) == render(result)

    def test_script_validation(self):
        with pytest.raises(ValueError):
            base_script(events=[strong_pzt(start_s=99.0)], duration=6.0)
        with pytest.raises(ValueError):
            base_script(events=[strong_pzt(position_m=50000.0)])
        with pytest.raises(ValueError):
            QkdSettings(qber_threshold=1.5)
        with pytest.raises(ValueError):
            PerceptionSettings(significance_threshold=0.0)


def impact_at(position_m, start_s=1.0):
    return DisturbanceEvent(
        ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=1e-5),
        position_m=position_m, start_s=start_s)


class TestImpactReach:
    """Which events a key window sees: perception.events_reaching."""

    CHANNEL = base_script().channel

    def reaching(self, events, t0, t1):
        return perception.events_reaching(events, t0, t1, self.CHANNEL)

    def test_key_window_sees_an_impact_exactly_within_its_reach(self):
        impact = impact_at(5000.0)
        # The counterclockwise copy ends one path-difference lag later.
        lag = perception._delay_lag_s(impact, self.CHANNEL)
        lo = 1.0 - impact.params.reach_s
        hi = 1.0 + impact.params.reach_s + lag
        assert self.reaching([impact], 0.0, lo) == (impact,)
        assert self.reaching([impact], 0.0, np.nextafter(lo, 0.0)) == ()
        assert self.reaching([impact], hi, 2.0) == (impact,)
        assert self.reaching([impact], np.nextafter(hi, 2.0), 2.0) == ()

    @pytest.mark.parametrize("position_m", [100.0, 5000.0, 25000.0, 29900.0])
    def test_impact_reach_spans_both_copies(self, position_m):
        # Near branch: lag > 0 moves the upper edge; far branch: lag < 0
        # moves the lower one.  The phase is nonzero up to both edges.
        impact = impact_at(position_m)
        lag = perception._delay_lag_s(impact, self.CHANNEL)
        assert (lag > 0) == (position_m < 15000.0)
        lo = 1.0 - impact.params.reach_s + min(0.0, lag)
        hi = 1.0 + impact.params.reach_s + max(0.0, lag)
        assert self.reaching([impact], 0.0, lo) == (impact,)
        assert self.reaching([impact], 0.0, np.nextafter(lo, 0.0)) == ()
        assert self.reaching([impact], hi, 2.0) == (impact,)
        assert self.reaching([impact], np.nextafter(hi, 2.0), 2.0) == ()
        t = np.linspace(lo - 2e-5, hi + 2e-5, 100_001)
        nonzero = t[perception.nonreciprocal_phase(t, impact,
                                                   self.CHANNEL) != 0.0]
        assert lo <= nonzero[0] < lo + 1e-8
        assert hi - 1e-8 < nonzero[-1] <= hi

    @pytest.mark.parametrize("position_m", [5000.0, 25000.0])
    def test_drive_reaches_from_its_first_copy(self, position_m):
        drive = strong_pzt(position_m=position_m, start_s=1.0)
        lag = perception._delay_lag_s(drive, self.CHANNEL)
        lo = 1.0 + min(0.0, lag)
        assert self.reaching([drive], 0.0, lo) == (drive,)
        assert self.reaching([drive], 0.0, np.nextafter(lo, 0.0)) == ()
        assert self.reaching([drive], 1e6, 2e6) == (drive,)
        assert perception.nonreciprocal_phase(
            np.nextafter(lo, 0.0), drive, self.CHANNEL) == 0.0
        assert perception.nonreciprocal_phase(
            lo + 1e-5, drive, self.CHANNEL) != 0.0

    def test_window_after_an_impact_sees_its_late_copy(self, monkeypatch):
        # A 10 us impact at 100 m, centred 0.1 ms before the window [1, 2):
        # its counterclockwise copy arrives 145.9 us later, in the window.
        offsets = []
        simulate = qkd.simulate_window

        def recording(*args):
            offsets.append(args[-1])
            return simulate(*args)

        monkeypatch.setattr(qkd, "simulate_window", recording)
        impact = impact_at(100.0, 0.9999)
        runner = _ScenarioRunner(base_script(events=[impact]))
        runner.t = 1.0
        runner._key_window()
        # The window's means are taken over the impact, at the phase
        # samples of the window [1, 2).
        assert offsets[0].func is perception.window_phase_means
        events, chan, t0, window_s, _ = offsets[0].args
        assert events == (impact,) and (t0, window_s) == (1.0, 1.0)
        n = perception._PHASE_SAMPLES
        times = 1.0 + (np.arange(n) + 0.5) * (1.0 / n)
        assert np.max(np.abs(perception.loop_phase(times, events,
                                                   chan))) > 1.0
        assert np.all(offsets[0](3) != 1.0)


class TestClock:
    """The workflow time is the correctly rounded sum of each stage kind's
    count times its duration, with no rounding carried from stage to
    stage."""

    def test_quiet_windows_start_at_multiples_of_the_window(self):
        script = base_script(duration=2.0, window_s=0.1)
        script = replace(script, qkd=replace(script.qkd, qber_threshold=0.5))
        result = run_scenario(script)
        starts = [k * 0.1 for k in range(20)]
        assert [r.window_start_s for r in result.key_records] == starts
        session = qkd.run_session(2.0, 7, script.source, script.channel,
                                  script.detector, script.packet, script.qkd)
        assert [r.window_start_s for r in session] == starts

    def test_stamps_after_breaches_are_sums_of_stage_counts(self):
        # Every window with an error breaches and every sense grades minor,
        # so the run cycles through key window, dead time, sense window and
        # dead time, of 0.1, 0.3 and 0.05 s.
        script = base_script(duration=6.0, window_s=0.1, dead_time_s=0.3)
        script = replace(
            script, qkd=replace(script.qkd, qber_threshold=1e-9),
            perception=replace(script.perception,
                               significance_threshold=1e300))
        result = run_scenario(script)
        keys = senses = deads = 0
        for rec in result.log:
            if rec.kind is EventKind.QBER_WINDOW:
                keys += 1
            elif rec.kind is EventKind.DISTURBANCE_MINOR:
                senses += 1
            assert rec.time_s == math.fsum((keys * 0.1, senses * 0.05,
                                            deads * 0.3))
            if rec.kind in (EventKind.BREACH_DETECTED,
                            EventKind.DISTURBANCE_MINOR):
                deads += 1
        assert senses >= 5


def localized_after(result, t):
    """Positions, to the km, of the localizations done after ``t``."""
    done = [rec.time_s for rec in result.log
            if rec.kind is EventKind.LOCALIZATION_DONE]
    assert len(done) == len(result.localization_reports)
    return {round(r.position_m, -3)
            for when, r in zip(done, result.localization_reports) if when > t}


# The README PZT scenario: three breaches, each sensed and localized.
README_PZT = {"duration_s": 12.0, "seed": 7, "disturbances": [
    {"kind": "pzt", "position_m": 5000.0, "start_s": 3.0,
     "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
     "phase_gain_rad_per_v": 0.5}]}


class TestSweepResponseCache:
    """The noise-free sweep response of a drive is computed once and shared
    by every later sweep of it in the process, across localizations and
    runs alike."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Each sweep taken, as ``(args, kwargs, sweep, computed)`` in
        order, ``computed`` the number of responses the cache computed for
        it; the cache starts empty."""
        perception._sweep_response.cache_clear()
        info = perception._sweep_response.cache_info
        taken = []

        def recording(*args, **kwargs):
            before = info().misses
            got = frequency_sweep(*args, **kwargs)
            taken.append((args, kwargs, got, info().misses - before))
            return got

        monkeypatch.setattr(perception, "frequency_sweep", recording)
        return taken

    def test_three_localizations_compute_one_response(self, sweeps):
        script = parse_config_dict(README_PZT).scenario
        result = run_scenario(script)
        assert len(result.localization_reports) == 3
        assert [computed for *_, computed in sweeps] == [1, 0, 0]
        assert {args[0] for args, *_ in sweeps} == {script.events[0]}
        # Each sweep equals one of its seed whose response is computed
        # afresh, the later two taken from the cache after noisy sweeps
        # used it.
        for args, kwargs, got, _ in sweeps:
            perception._sweep_response.cache_clear()
            want = frequency_sweep(*args, **kwargs)
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert got.noise_floor_amplitude == want.noise_floor_amplitude

    def test_repeat_runs_compute_once_and_file_equal_reports(self, sweeps):
        script = parse_config_dict(README_PZT).scenario
        first, second = run_scenario(script), run_scenario(script)
        assert sum(computed for *_, computed in sweeps) == 1
        assert len(sweeps) == 6
        assert second.localization_reports == first.localization_reports

    def test_two_drives_compute_one_response_each(self, sweeps):
        # The far drive is localized until the near one starts; from then
        # on each localization sweeps the running drive swept least
        # recently, in either list order.
        near = strong_pzt(position_m=4000.0, start_s=3.5)
        far = strong_pzt(position_m=9000.0, start_s=0.0)
        for events in ([near, far], [far, near]):
            perception._sweep_response.cache_clear()
            sweeps.clear()
            result = run_scenario(base_script(events=events, duration=12.0))
            assert [args[0] for args, _, _, computed in sweeps
                    if computed] == [far, near]
            assert perception._sweep_response.cache_info().currsize == 2
            positions = sorted({round(r.position_m, -3)
                                for r in result.localization_reports})
            assert positions == [4000.0, 9000.0]
            assert localized_after(result, 3.5) == {4000.0, 9000.0}


class TestTwoDrives:
    """Both of two running drives keep being localized, whichever is
    listed first."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_both_localized_after_both_started(self, seed):
        drive = README_PZT["disturbances"][0]
        near = dict(drive, position_m=4000.0, start_s=3.5)
        far = dict(drive, position_m=9000.0, start_s=0.0)
        for events in ([near, far], [far, near]):
            result = run_scenario(parse_config_dict(dict(
                README_PZT, seed=seed, disturbances=events)).scenario)
            assert localized_after(result, 3.5) == {4000.0, 9000.0}


_EVENTS = {
    "none": [],
    "pzt": [strong_pzt(start_s=1.0)],
    "impact": [DisturbanceEvent(
        ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=1e-5,
                     impact_gain=2.0),
        position_m=12000.0, start_s=1.0)],
    "pressure": [DisturbanceEvent(PressureParams(mass_kg=0.1),
                                  position_m=9000.0, start_s=1.0)],
}


class TestCausality:
    """Perception records only what happens after it is asked to."""

    def test_no_trace_starts_before_its_call(self, monkeypatch):
        # Seeds 1-40 of the reference impact scenario breach 21 times, on
        # false alarms before and after the impact.
        starts = []
        synthesize = perception.synthesize_trace

        def recording(events, *args, start_s=0.0, **kwargs):
            if events:
                starts.append((start_s, runner.t))
            return synthesize(events, *args, start_s=start_s, **kwargs)

        monkeypatch.setattr(perception, "synthesize_trace", recording)
        for seed in range(1, 41):
            runner = _ScenarioRunner(parse_config_dict(
                dict(CONFIGS["impact"], seed=seed)).scenario)
            runner.run()
        assert starts
        assert [(start, t) for start, t in starts if start < t] == []


class TestWorkflow:
    # Short, thin key windows breach often, so runs end in every mode.
    @given(kind=st.sampled_from(sorted(_EVENTS)),
           duration=st.floats(1.0, 8.0), dead_time=st.floats(0.0, 2.5),
           seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_every_run_follows_the_legal_table(self, kind, duration,
                                               dead_time, seed):
        run_scenario(base_script(events=_EVENTS[kind], duration=duration,
                                 seed=seed, pulses=20_000, window_s=0.5,
                                 dead_time_s=dead_time, poll_s=1.5))
