import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sagnacsim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


_README_PZT = {"kind": "pzt", "position_m": 5000.0, "start_s": 3.0,
               "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
               "phase_gain_rad_per_v": 0.5}


@pytest.fixture
def pzt_config(tmp_path):
    return write_json(tmp_path / "pzt.json", {
        "duration_s": 6.0,
        "seed": 7,
        "qkd": {"pulses_per_window": 200000},
        "disturbances": [
            {"kind": "pzt", "position_m": 5000.0, "start_s": 2.0,
             "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
             "phase_gain_rad_per_v": 0.5},
        ],
    })


@pytest.fixture
def impact_config(tmp_path):
    return write_json(tmp_path / "impact.json", {
        "duration_s": 6.0,
        "seed": 5,
        "perception": {"noise_sigma": 0.0008, "sense_duration_s": 0.0256},
        "disturbances": [
            {"kind": "impact", "position_m": 5000.0, "start_s": 1.0,
             "mass_kg": 0.1, "drop_height_m": 0.1, "width_s": 1e-5,
             "impact_gain": 2.0},
        ],
    })


class TestIntegrated:
    def test_qkd_and_integrated_share_the_window_clock(self, tmp_path):
        # 0.1 s windows: i * 0.1 and a running sum of 0.1 differ in the
        # last digit for most i.
        cfg = write_json(tmp_path / "clock.json", {
            "duration_s": 2.0,
            "qkd": {"window_s": 0.1, "pulses_per_window": 20000,
                    "qber_threshold": 0.99}})
        starts = {}
        for command in ("qkd", "integrated"):
            out = tmp_path / command
            assert run_cli(command, "--config", cfg, "--out-dir", str(out),
                           "--quiet") == 0
            report = json.loads((out / "report.json").read_text())
            starts[command] = [w["window_start_s"]
                               for w in report["qkd_windows"]]
        assert len(starts["qkd"]) == 20
        assert starts["qkd"] == starts["integrated"]

    def test_deterministic_output_bytes(self, tmp_path, pzt_config):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli("integrated", "--config", pzt_config,
                       "--out-dir", str(out1), "--quiet") == 0
        assert run_cli("integrated", "--config", pzt_config,
                       "--out-dir", str(out2), "--quiet") == 0
        for name in ("report.json", "event_log.jsonl", "qber_vs_time.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_full_sequence_recorded(self, tmp_path, pzt_config):
        out = tmp_path / "run"
        assert run_cli("integrated", "--config", pzt_config,
                       "--out-dir", str(out), "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        events = [e["event"] for e in report["event_log"]]
        assert "breach_detected" in events
        assert "localization_done" in events
        assert report["localization_reports"]
        position = report["localization_reports"][0]["position_m"]
        assert abs(position - 5000.0) < 200.0
        # report is self-contained: the echoed config re-parses
        from sagnacsim.config import parse_config_dict
        assert parse_config_dict(report["config"]).resolved == \
            report["config"]

    def test_seed_override_changes_output(self, tmp_path, pzt_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("integrated", "--config", pzt_config, "--out-dir", str(out1),
                "--quiet")
        run_cli("integrated", "--config", pzt_config, "--seed", "8",
                "--out-dir", str(out2), "--quiet")
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["seed"] == 7 and r2["seed"] == 8
        assert r1["qkd_windows"] != r2["qkd_windows"]

    @pytest.mark.parametrize("seed", ["4", "6", "10"])
    def test_unlocalizable_drive_keeps_the_run(self, tmp_path, seed):
        # A drive that breaches, graded significant, whose scan band stops
        # below its first null at 10.2 kHz.
        config = write_json(tmp_path / "narrow.json", {
            "duration_s": 8.0,
            "qkd": {"pulses_per_window": 2_000_000},
            "perception": {"scan_max_hz": 8000.0},
            "disturbances": [_README_PZT]})
        out = tmp_path / "run"
        assert run_cli("integrated", "--config", config, "--seed", seed,
                       "--out-dir", str(out), "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        events = [e["event"] for e in report["event_log"]]
        failed = events.index("localization_failed")
        assert events[failed - 1] == "disturbance_significant"
        assert events[failed + 1] == "reset_issued"
        assert report["event_log"][failed]["payload"] == {
            "reason": "no null frequency reached the depth threshold"}
        assert report["localization_reports"] == []
        assert len(report["qkd_windows"]) >= 4
        assert (out / "event_log.jsonl").exists()

    def test_significant_false_alarm_keeps_the_run(self, tmp_path):
        # Quiet sensing traces grade about 2.7 at the median, so this
        # threshold calls a false alarm significant with nothing to locate.
        config = write_json(tmp_path / "low.json", {
            "perception": {"significance_threshold": 2.0}})
        out = tmp_path / "run"
        assert run_cli("integrated", "--config", config,
                       "--out-dir", str(out), "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        failed = [e for e in report["event_log"]
                  if e["event"] == "localization_failed"]
        assert [e["payload"] for e in failed] == [
            {"reason": "no dynamic disturbance is active"}]
        assert (out / "event_log.jsonl").exists()

    def test_powerless_sensing_trace_is_minor_and_valid_json(self, tmp_path):
        # A noiseless dark port senses exact zeros; the 0.01 threshold
        # breaches on dark counts alone.
        config = write_json(tmp_path / "dark.json", {
            "duration_s": 3, "seed": 1,
            "perception": {"noise_sigma": 0.0,
                           "bias_phase_rad": 3.141592653589793},
            "qkd": {"qber_threshold": 0.01}})
        out = tmp_path / "run"
        assert run_cli("integrated", "--config", config,
                       "--out-dir", str(out), "--quiet") == 0

        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=not_json)
        lines = (out / "event_log.jsonl").read_text().splitlines()
        assert [json.loads(line, parse_constant=not_json)
                for line in lines] == report["event_log"]
        graded = [e for e in report["event_log"]
                  if e["event"].startswith("disturbance_")]
        assert graded
        for entry in graded:
            assert entry["event"] == "disturbance_minor"
            assert entry["payload"]["peak_to_floor"] == 0.0

    def test_undefined_resolution_keeps_the_run(self, tmp_path):
        # The drive's first null, 10.2 kHz, lies below this resolution.
        config = write_json(tmp_path / "coarse.json", {
            "duration_s": 12.0, "seed": 7,
            "perception": {"freq_resolution_hz": 20000.0},
            "disturbances": [_README_PZT]})
        out = tmp_path / "run"
        assert run_cli("integrated", "--config", config,
                       "--out-dir", str(out), "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        reasons = [e["payload"]["reason"] for e in report["event_log"]
                   if e["event"] == "localization_failed"]
        assert reasons
        assert all("frequency resolution 20000.0 Hz" in r for r in reasons)
        assert report["localization_reports"] == []


class TestPerceiveAndLocalize:
    def test_impact_trace_localizes(self, tmp_path, impact_config):
        out = tmp_path / "perc"
        assert run_cli("perceive", "--config", impact_config,
                       "--out-dir", str(out), "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["localization"] is not None
        assert abs(report["localization"]["position_m"] - 5000.0) < \
            report["localization"]["resolution_m"]
        assert (out / "trace.txt").exists()

        out2 = tmp_path / "loc"
        assert run_cli("localize", "--config", impact_config,
                       "--trace", str(out / "trace.txt"),
                       "--out-dir", str(out2), "--quiet") == 0
        report2 = json.loads((out2 / "report.json").read_text())
        assert report2["localization"]["position_m"] == pytest.approx(
            report["localization"]["position_m"], rel=1e-12)

    def test_pzt_sweep_written(self, tmp_path, pzt_config):
        out = tmp_path / "sweep"
        assert run_cli("perceive", "--config", pzt_config,
                       "--out-dir", str(out), "--quiet") == 0
        table = (out / "amplitude_vs_frequency.csv").read_text().splitlines()
        assert table[0] == "frequency_hz,amplitude_w"
        assert len(table) > 100

    def test_flat_trace_fails_analysis(self, tmp_path):
        cfg = write_json(tmp_path / "quiet.json", {"seed": 3})
        from sagnacsim.fileio import write_trace
        from sagnacsim.perception import synthesize_trace
        from sagnacsim.optics import LoopChannel
        trace = synthesize_trace(
            (), LoopChannel(length_m=30000.0, bias_phase_rad=0.5 * math.pi),
            0.05, 200e3, 0.0019, seed=4)
        path = tmp_path / "flat.txt"
        write_trace(path, trace)
        code = run_cli("localize", "--config", cfg, "--trace", str(path),
                       "--out-dir", str(tmp_path / "out"), "--quiet")
        assert code == 3

    def test_quasi_static_perceive_reports_no_signature(self, tmp_path):
        cfg = write_json(tmp_path / "press.json", {
            "disturbances": [{"kind": "pressure", "position_m": 9000.0,
                              "mass_kg": 0.2}],
        })
        out = tmp_path / "out"
        assert run_cli("perceive", "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["localization"] is None
        assert report["significance"]["peak_to_floor"] < 10.0


class TestWm:
    def test_staircase_masses(self, tmp_path):
        cfg = write_json(tmp_path / "wm.json", {"seed": 2,
                                                "wm": {"noise_sigma": 0.0}})
        out = tmp_path / "out"
        assert run_cli("wm", "--config", cfg, "--masses", "0.1,0.2,0.3",
                       "--out-dir", str(out), "--quiet") == 0
        rows = (out / "icr_vs_mass.csv").read_text().splitlines()
        assert rows[0] == "mass_kg,i_d_w,icr,delta_tau_s,inferred_mass_kg"
        delays = [float(r.split(",")[3]) for r in rows[1:]]
        for delay, expected in zip(delays, (9.81e-18, 1.962e-17, 2.943e-17)):
            assert abs(delay - expected) < 5e-20

    @staticmethod
    def staircase(tmp_path, name, config):
        out = tmp_path / name
        cfg = write_json(tmp_path / f"{name}.json", config)
        assert run_cli("wm", "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 0
        return (out / "icr_vs_mass.csv").read_text()

    def test_wm_bias_phase_is_used(self, tmp_path):
        # The bias scales every intensity by (1 + cos d)/2 and cancels in
        # the contrast ratio, so the inferred delays stay put.
        base = self.staircase(tmp_path, "base", {})
        biased = self.staircase(tmp_path, "biased",
                                {"wm": {"delta_bias_rad": 1.0}})
        rows = zip(base.splitlines()[1:], biased.splitlines()[1:])
        for row0, row1 in rows:
            r0 = [float(v) for v in row0.split(",")]
            r1 = [float(v) for v in row1.split(",")]
            assert r1[1] == pytest.approx(0.5 * (1.0 + math.cos(1.0)) * r0[1],
                                          rel=1e-9)
            assert r1[3] == pytest.approx(r0[3], rel=1e-6)

    def test_key_bias_does_not_reach_wm(self, tmp_path):
        base = self.staircase(tmp_path, "base", {})
        keyed = self.staircase(tmp_path, "keyed",
                               {"channel": {"bias_phase_rad": math.pi}})
        assert keyed == base

    def test_bad_masses_rejected(self, tmp_path):
        assert run_cli("wm", "--masses", "0.1,-0.2",
                       "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("masses", ["inf", "nan", "0.1,inf"])
    def test_non_finite_masses_rejected(self, tmp_path, capsys, masses):
        assert run_cli("wm", "--masses", masses, "--out-dir", str(tmp_path),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert record["problems"][0].startswith("--masses:")


class TestSweep:
    def test_loss_sweep_monotone_and_ordered(self, tmp_path):
        cfg = write_json(tmp_path / "base.json", {
            "duration_s": 2.0, "seed": 11,
            "qkd": {"pulses_per_window": 300000},
        })
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--key", "channel.loss_db",
                       "--values", "10,16.5,25", "--out-dir", str(out),
                       "--quiet") == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[0]) for r in rows]
        rates = [float(r.split(",")[2]) for r in rows]
        assert values == [10.0, 16.5, 25.0]
        assert rates[0] > rates[1] > rates[2]

    def test_unknown_key_rejected(self, tmp_path):
        assert run_cli("sweep", "--key", "channel.nope", "--values", "1",
                       "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("key, values", [
        ("qkd.pulses_per_window", "10000,20000"),
        ("seed", "3,4"),
        ("perception.max_harmonics", "2"),
        ("wm.samples_per_reading", "8"),
    ])
    def test_integer_keys_sweep(self, tmp_path, key, values):
        cfg = write_json(tmp_path / "base.json", {
            "duration_s": 1.0, "qkd": {"pulses_per_window": 10000}})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--key", key,
                       "--values", values, "--out-dir", str(out),
                       "--quiet") == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == values.split(",")

    @pytest.mark.parametrize("values", ["2.5", "1e5", "nan"])
    def test_integer_key_rejects_other_tokens(self, tmp_path, capsys,
                                              values):
        assert run_cli("sweep", "--key", "qkd.pulses_per_window",
                       "--values", values, "--out-dir", str(tmp_path),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["problems"][0].startswith("--values:")


class TestNyquistDrive:
    # Validation fails before anything is written, so every example may
    # reuse the test's directory.
    @pytest.mark.parametrize("command", ["integrated", "perceive"])
    @given(f=st.floats(1.0, 1e5))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drive_at_half_the_sample_rate_exits_2(self, tmp_path, capsys,
                                                   command, f):
        # A scan grid and sample counts that are valid at 2 f.
        cfg = write_json(tmp_path / "nyquist.json", {
            "duration_s": 2.0,
            "perception": {"sample_rate_hz": 2.0 * f,
                           "scan_min_hz": f / 10, "scan_max_hz": f / 5,
                           "scan_step_hz": f / 100,
                           "sweep_duration_s": 100.0 / f,
                           "sense_duration_s": 100.0 / f},
            "disturbances": [{"kind": "pzt", "position_m": 5000.0,
                              "start_s": 1.0, "frequency_hz": f}]})
        assert run_cli(command, "--config", cfg, "--out-dir",
                       str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert [p.split(":")[0] for p in record["problems"]] == \
            ["disturbances[0].frequency_hz"]
        assert not (tmp_path / "out").exists()


class TestErrors:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json",
                         {"channel": {"length_m": -1.0}})
        assert run_cli("qkd", "--config", cfg,
                       "--out-dir", str(tmp_path)) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "validation"
        assert any("length_m" in p for p in record["problems"])

    def test_missing_trace_exits_2(self, tmp_path):
        assert run_cli("localize", "--trace", "/does/not/exist",
                       "--out-dir", str(tmp_path)) == 2

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAGNACSIM_OUT_DIR", str(tmp_path / "envout"))
        cfg = write_json(tmp_path / "mini.json",
                         {"duration_s": 1.0, "seed": 1,
                          "qkd": {"pulses_per_window": 10000}})
        assert run_cli("qkd", "--config", cfg, "--quiet") == 0
        assert (tmp_path / "envout" / "report.json").exists()


# Each config the simulator once accepted or crashed on, and the key its
# problem must name.
_BAD_CONFIGS = [
    ("qkd.qber_threshold", '{"qkd": {"qber_threshold": 1.0}}'),
    ("qkd.pulses_per_window", '{"qkd": {"pulses_per_window": 2.5}}'),
    ("seed", '{"seed": -3}'),
    ("channel.refractive_index", '{"channel": {"refractive_index": 0.5}}'),
    ("wm.delta_epsilon_rad", '{"wm": {"delta_epsilon_rad": 2.0}}'),
    ("perception.max_harmonics", '{"perception": {"max_harmonics": 1.5}}'),
    ("wm.samples_per_reading", '{"wm": {"samples_per_reading": 0.5}}'),
    ("channel.delay_shift_s", '{"channel": {"delay_shift_s": [1]}}'),
    ("channel.bias_phase_rad", '{"channel": {"bias_phase_rad": "abc"}}'),
    ("channel.length_m", '{"channel": {"length_m": 1e400}}'),
    ("perception.sense_duration_s",
     '{"perception": {"sense_duration_s": 1e308}}'),
    # Finite fields whose peak phase overflows.
    ("disturbances[0].phase_gain_rad_per_v",
     '{"disturbances": [{"kind": "pzt", "position_m": 5000.0, '
     '"drive_amplitude_v": 1e200, "phase_gain_rad_per_v": 1e200}]}'),
    ("disturbances[0].impact_gain",
     '{"disturbances": [{"kind": "impact", "position_m": 5000.0, '
     '"mass_kg": 1e200, "impact_gain": 1e200}]}'),
    # Finite peak phases past the bound: the drive's net phase overflowed.
    ("disturbances[0].phase_gain_rad_per_v",
     '{"disturbances": [{"kind": "pzt", "position_m": 5000.0, '
     '"drive_amplitude_v": 1e154, "phase_gain_rad_per_v": 1e154}]}'),
    ("disturbances[0].impact_gain",
     '{"disturbances": [{"kind": "impact", "position_m": 5000.0, '
     '"mass_kg": 1e154, "impact_gain": 1e154}]}'),
]

_HEADER = b"# sample_rate_hz=1000.0 i0_w=1.0\n"

# (subcommand, option, file content); None makes the path a directory.
_BAD_FILES = {
    "config-directory": ("qkd", "--config", None),
    "config-not-utf8": ("qkd", "--config", b'\xff\xfe{"seed": 1}'),
    "trace-directory": ("localize", "--trace", None),
    "trace-not-utf8": ("localize", "--trace", _HEADER + b"0 \xff\n"),
    "trace-bad-rate": ("localize", "--trace",
                       b"# sample_rate_hz=abc i0_w=1.0\n0 1\n"),
    "trace-bad-sample": ("localize", "--trace", _HEADER + b"0 x\n"),
    "trace-one-column": ("localize", "--trace", _HEADER + b"0\n"),
    "trace-infinite-sample": ("localize", "--trace", _HEADER + b"0 inf\n"),
    "trace-negative-rate": ("localize", "--trace",
                            b"# sample_rate_hz=-5 i0_w=1.0\n0 1\n"),
    "trace-nan-rate": ("localize", "--trace",
                       b"# sample_rate_hz=nan i0_w=1.0\n0 1\n0 2\n"),
}


class TestBadInput:
    @pytest.mark.parametrize("command", ["qkd", "integrated", "wm",
                                         "perceive"])
    @pytest.mark.parametrize("key, text", _BAD_CONFIGS)
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, command,
                                          key, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run_cli(command, "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert any(p.startswith(f"{key}:") for p in record["problems"])

    @pytest.mark.parametrize("command, option, content",
                             list(_BAD_FILES.values()), ids=list(_BAD_FILES))
    def test_malformed_file_exits_2_naming_it(self, tmp_path, capsys,
                                              command, option, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run_cli(command, option, str(path),
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert any(str(path) in p for p in record["problems"])


class TestRealPulseCounts:
    @pytest.mark.parametrize("command, events", [
        ("qkd", []),
        ("integrated", [{**_README_PZT, "start_s": 0.2}]),
    ])
    def test_1e14_pulses_per_window_finish(self, tmp_path, command, events):
        cfg = write_json(tmp_path / "big.json", {
            "duration_s": 1.0, "qkd": {"pulses_per_window": 10**14},
            "disturbances": events})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 0
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert summary["windows"] == 1
        assert summary["pulses_sent"] == 10**14

    def test_bright_noiseless_drive_windows_finish(self, tmp_path):
        # 1e4 photons a pulse and no phase noise keep about 270 harmonics
        # of the click model, each with its own Bessel coefficients.
        cfg = write_json(tmp_path / "bright.json", {
            "duration_s": 5, "seed": 1,
            "source": {"mean_photon_number": 1e4},
            "channel": {"loss_db": 0}, "qkd": {"phase_noise_rad": 0},
            "disturbances": [_README_PZT]})
        assert run_cli("integrated", "--config", cfg, "--out-dir",
                       str(tmp_path / "out"), "--quiet") == 0

    def test_pulse_count_beyond_64_bits_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "huge.json",
                         {"qkd": {"pulses_per_window": 2**63}})
        assert run_cli("qkd", "--config", cfg, "--out-dir", str(tmp_path),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert [p.split(":")[0] for p in record["problems"]] == \
            ["qkd.pulses_per_window"]


# Perception windows shorter than one sample at the default 200 kHz, and a
# sensing window of 2 samples, short of one 64-sample Welch segment.
_SHORT_WINDOWS = {
    "sense": ("perception.sense_duration_s", {
        "perception": {"sense_duration_s": 1e-9},
        "disturbances": [{"kind": "pressure", "position_m": 5000.0}]}),
    "two-sample-sense": ("perception.sense_duration_s", {
        "perception": {"sense_duration_s": 1e-5},
        "disturbances": [{"kind": "pressure", "position_m": 5000.0}]}),
    "sweep": ("perception.sweep_duration_s", {
        "duration_s": 12.0, "seed": 7,
        "perception": {"sweep_duration_s": 1e-9},
        "disturbances": [_README_PZT]}),
}


class TestShortPerceptionWindows:
    @pytest.mark.parametrize("command", ["perceive", "integrated"])
    @pytest.mark.parametrize("key, config", list(_SHORT_WINDOWS.values()),
                             ids=list(_SHORT_WINDOWS))
    def test_window_without_a_sample_exits_2(self, tmp_path, capsys,
                                             command, key, config):
        cfg = write_json(tmp_path / "short.json", config)
        assert run_cli(command, "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == [key]


class TestDroppedKeys:
    # Accepted and echoed once, but nothing read them: the pulse rate is
    # the detector's repetition_rate_hz.
    @pytest.mark.parametrize("section, key", [
        ("source", "pulse_rate_hz"), ("source", "pulse_width_s"),
        ("detector", "gate_width_s")])
    def test_unused_key_is_unknown(self, tmp_path, capsys, section, key):
        cfg = write_json(tmp_path / "old.json", {section: {key: 1.0}})
        assert run_cli("qkd", "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["problems"] == [f"{section}.{key}: unknown key"]



class TestDelayShift:
    # Any nonzero shift is a valid channel, but the WM analyzer calibrates
    # on the undisturbed loop.
    CONFIG = {"duration_s": 2.0, "channel": {"delay_shift_s": 1e-17}}

    @pytest.mark.parametrize("command", ["wm", "integrated"])
    def test_wm_paths_exit_2_naming_the_key(self, tmp_path, capsys,
                                            command):
        cfg = write_json(tmp_path / "shift.json", self.CONFIG)
        assert run_cli(command, "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == \
            ["channel.delay_shift_s"]

    def test_key_session_still_runs(self, tmp_path):
        cfg = write_json(tmp_path / "shift.json", self.CONFIG)
        out = tmp_path / "out"
        assert run_cli("qkd", "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["windows"] == 2


# Perception settings under which no frequency sweep can be made.
_UNSWEEPABLE = {
    "two-point-grid": ("perception.scan_step_hz", {
        "scan_min_hz": 2000.0, "scan_max_hz": 2100.0}),
    "two-sample-sweep": ("perception.sweep_duration_s", {
        "sweep_duration_s": 1e-5}),
    "730001-point-grid": ("perception.scan_step_hz", {"scan_step_hz": 0.1}),
    "overflowing-point-count": ("perception.scan_step_hz", {
        "scan_max_hz": 1e308, "scan_step_hz": 1e-300}),
    "grid-past-nyquist": ("perception.scan_max_hz", {
        "scan_max_hz": 120000.0}),
    "endless-sweep": ("perception.sweep_duration_s", {
        "sweep_duration_s": 1e308}),
}


class TestUnsweepableSettings:
    @pytest.mark.parametrize("command", ["perceive", "integrated"])
    @pytest.mark.parametrize("key, perception", list(_UNSWEEPABLE.values()),
                             ids=list(_UNSWEEPABLE))
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, key,
                                    perception):
        cfg = write_json(tmp_path / "sweep.json", {
            "duration_s": 12.0, "perception": perception,
            "disturbances": [_README_PZT]})
        assert run_cli(command, "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == [key]


# Dynamic events perception cannot sample at the default 200 kHz: a drive
# above the Nyquist frequency and a pulse too short for it.
_UNSAMPLED = {
    "pzt-past-nyquist": ("disturbances[0].frequency_hz", [], {
        "kind": "pzt", "position_m": 5000.0, "start_s": 1.0,
        "frequency_hz": 150000.0, "drive_amplitude_v": 1.2}),
    "impact-too-short": ("disturbances[0].width_s", ["--seed", "4"], {
        "kind": "impact", "position_m": 5000.0, "start_s": 1.0,
        "width_s": 1e-7}),
}


class TestUnsampledEvents:
    @pytest.mark.parametrize("command", ["integrated", "perceive", "qkd",
                                         "wm"])
    @pytest.mark.parametrize("key, extra, event", list(_UNSAMPLED.values()),
                             ids=list(_UNSAMPLED))
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, key,
                                    extra, event):
        cfg = write_json(tmp_path / "fast.json", {
            "duration_s": 6.0, "disturbances": [event]})
        assert run_cli(command, "--config", cfg, *extra,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == [key]


class TestKeyWindowCount:
    # 4.05 s holds eight whole 0.5 s windows and the start of a ninth; the
    # threshold keeps the integrated run from breaching.
    CONFIG = {"duration_s": 4.05, "qkd": {"window_s": 0.5,
                                          "pulses_per_window": 20000,
                                          "qber_threshold": 0.99}}

    def test_qkd_and_integrated_run_the_same_windows(self, tmp_path):
        cfg = write_json(tmp_path / "odd.json", self.CONFIG)
        starts = {}
        for command in ("qkd", "integrated"):
            out = tmp_path / command
            assert run_cli(command, "--config", cfg, "--out-dir", str(out),
                           "--quiet") == 0
            report = json.loads((out / "report.json").read_text())
            starts[command] = [w["window_start_s"]
                               for w in report["qkd_windows"]]
        assert starts["qkd"] == starts["integrated"] == \
            [0.5 * i for i in range(9)]


class TestWmPollWork:
    # 100 000 polls of 2**20 samples each: hours of noise draws.
    CONFIG = {"duration_s": 100000.0,
              "wm": {"poll_interval_s": 1.0, "samples_per_reading": 2**20}}

    @pytest.mark.parametrize("command", ["integrated", "wm", "qkd"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "polls.json", self.CONFIG)
        assert run_cli(command, "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == \
            ["wm.samples_per_reading"]


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_short_trace_ends_in_analysis_failure_without_warnings(
        tmp_path, capsys, samples):
    path = tmp_path / "short.txt"
    path.write_text("# sample_rate_hz=1000.0 i0_w=1.0\n" + "".join(
        f"{i} {1.0 + 0.1 * (i % 3)}\n" for i in range(samples)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("localize", "--trace", str(path),
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 3
    record = json.loads(capsys.readouterr().err)
    assert record["message"] == \
        "no null frequency found in the supplied trace"


class TestParserReuse:
    """main parses every call with one parser per process."""

    def test_calls_in_a_row_share_no_arguments(self, tmp_path, capsys,
                                               impact_config):
        perceived = tmp_path / "perceive"
        assert run_cli("perceive", "--config", impact_config,
                       "--out-dir", str(perceived), "--quiet") == 0
        trace = str(perceived / "trace.txt")
        out = {name: tmp_path / name for name in ("localize", "wm", "again")}
        assert run_cli("localize", "--config", impact_config, "--trace",
                       trace, "--seed", "9", "--out-dir",
                       str(out["localize"]), "--quiet") == 0
        assert run_cli("wm", "--config", impact_config,
                       "--out-dir", str(out["wm"])) == 0
        # Not quiet, so it prints its summary: one delay per default mass.
        assert len(capsys.readouterr().out.split()) == 5
        with pytest.raises(SystemExit) as bad:
            run_cli("wm", "--bogus", "--out-dir", str(tmp_path / "bad"))
        assert bad.value.code == 2
        capsys.readouterr()
        # --trace is required, so a value left from an earlier call would
        # let this run.
        with pytest.raises(SystemExit) as missing:
            run_cli("localize", "--config", impact_config,
                    "--out-dir", str(tmp_path / "missing"), "--quiet")
        assert missing.value.code == 2
        assert "--trace" in capsys.readouterr().err
        assert run_cli("localize", "--config", impact_config, "--trace",
                       trace, "--out-dir", str(out["again"]),
                       "--quiet") == 0

        localized, staircase, again = (
            json.loads((out[name] / "report.json").read_text())
            for name in ("localize", "wm", "again"))
        assert localized["seed"] == 9
        assert staircase["seed"] == again["seed"] == 5
        assert "trace_file" not in staircase
        assert [r["mass_kg"] for r in staircase["wm_readings"]] == \
            [0.1, 0.2, 0.3, 0.4, 0.5]
        assert again["localization"] == localized["localization"]
        assert not (tmp_path / "bad").exists()

    def test_built_on_first_call_only(self, tmp_path):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from sagnacsim import cli\n"
            "counts = [len(built)]\n"
            "for _ in range(3):\n"
            "    cli.main(['wm', '--masses', '0.1', '--quiet'])\n"
            "    counts.append(len(built))\n"
            "print(counts)\n")
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True)
        counts = json.loads(done.stdout)
        assert counts[0] == 0
        assert counts[1] > 0 and counts[1:] == [counts[1]] * 3
