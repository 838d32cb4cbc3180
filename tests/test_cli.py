import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sagnacsim import cli, controller, optics, qkd
from sagnacsim.cli import main
from sagnacsim.config import parse_config_dict
from sagnacsim.errors import ConfigError
from sagnacsim.fileio import read_trace

from oracles import two_column_write_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def parsed(parse, argv):
    """What ``parse(argv)`` gives: its namespace as a dict less
    ``command``, the problems of the :class:`ConfigError` it raises, or the
    code it exits with and what it prints."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = vars(parse(argv))
    except ConfigError as exc:
        return exc.problems
    except SystemExit as done:
        return done.code, printed.getvalue()
    args.pop("command", None)
    return args


def run_cli(*argv):
    """``main(argv)``, once a command line that names a subcommand is seen
    to parse alike through that subcommand's parser and the top-level
    one."""
    parser, commands = cli._parsers()
    if argv and argv[0] in commands:
        assert parsed(commands[argv[0]].parse_args, list(argv[1:])) == \
            parsed(parser.parse_args, list(argv))
    return main(list(argv))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def strict_json(text):
    """``json.loads`` that rejects the non-standard NaN and Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


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


_IMPACT_CONFIG = {
    "duration_s": 6.0,
    "seed": 5,
    "perception": {"noise_sigma": 0.0008, "sense_duration_s": 0.0256},
    "disturbances": [
        {"kind": "impact", "position_m": 5000.0, "start_s": 1.0,
         "mass_kg": 0.1, "drop_height_m": 0.1, "width_s": 1e-5,
         "impact_gain": 2.0},
    ],
}


@pytest.fixture
def impact_config(tmp_path):
    return write_json(tmp_path / "impact.json", _IMPACT_CONFIG)


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
        report = strict_json((out / "report.json").read_text())
        lines = (out / "event_log.jsonl").read_text().splitlines()
        assert [strict_json(line) for line in lines] == report["event_log"]
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

    def test_two_column_trace_localizes_the_same(self, tmp_path,
                                                 impact_config):
        # Format decision: a trace in the earlier two-column format (the
        # time of each sample, then the sample) still reads.
        perc = tmp_path / "perc"
        assert run_cli("perceive", "--config", impact_config,
                       "--out-dir", str(perc), "--quiet") == 0
        traces = {"one": perc / "trace.txt",
                  "two": two_column_write_trace(
                      tmp_path / "two.txt", read_trace(perc / "trace.txt"))}
        located = {}
        for name, trace in traces.items():
            assert run_cli("localize", "--config", impact_config,
                           "--trace", str(trace), "--out-dir",
                           str(tmp_path / name), "--quiet") == 0
            located[name] = json.loads(
                (tmp_path / name / "report.json").read_text())["localization"]
        assert located["one"] is not None
        assert located["two"] == located["one"]

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

    @pytest.mark.parametrize("command", ["perceive", "integrated"])
    def test_drive_past_the_old_order_cap_runs(self, tmp_path, capsys,
                                               command):
        # A 6100 rad drive, once refused because its sweep series would
        # have needed more than 2**15 Fourier orders, parses and runs;
        # whether the null picker then locates it is the picker's own
        # matter, exit 0 or 3.  Perceive sweeps the default grid to finite
        # amplitudes.
        cfg = write_json(tmp_path / "strong.json", {"disturbances": [
            dict(_README_PZT, drive_amplitude_v=1.0,
                 phase_gain_rad_per_v=6100.0)]})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out-dir", str(out),
                       "--quiet") in (0, 3)
        capsys.readouterr()
        if command == "integrated":
            assert strict_json((out / "report.json").read_text())
            return
        rows = (out / "amplitude_vs_frequency.csv").read_text().splitlines()
        amplitudes = [float(row.split(",")[1]) for row in rows[1:]]
        assert len(amplitudes) == 293
        assert all(math.isfinite(a) and a >= 0.0 for a in amplitudes)


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

    def test_channel_bias_is_unknown(self, tmp_path, capsys):
        # WM biases the loop by wm.delta_bias_rad alone.
        cfg = write_json(tmp_path / "keyed.json",
                         {"channel": {"bias_phase_rad": math.pi}})
        assert run_cli("wm", "--config", cfg, "--out-dir",
                       str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["problems"] == ["channel.bias_phase_rad: unknown key"]

    def test_bad_masses_rejected(self, tmp_path):
        assert run_cli("wm", "--masses", "0.1,-0.2",
                       "--out-dir", str(tmp_path)) == 2

    # 1e308 kg is finite, but its delay shift's phase was not.
    @pytest.mark.parametrize("masses", ["inf", "nan", "0.1,inf", "0.1,1e308"])
    def test_non_finite_masses_rejected(self, tmp_path, capsys, masses):
        assert run_cli("wm", "--masses", masses, "--out-dir", str(tmp_path),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert record["problems"][0].startswith("--masses:")


class TestWmBranchTop:
    """A load past the WM branch top, about 4.39 kg on the default
    geometry, is refused: its contrast ratio would fold back onto the
    branch and read a smaller mass."""

    @staticmethod
    def pressure(mass_kg):
        return {"kind": "pressure", "position_m": 9000.0, "start_s": 1.0,
                "mass_kg": mass_kg}

    @pytest.mark.parametrize("masses, key", [
        ([6.0], "disturbances[0].mass_kg"),
        # The running sum of the standing weights passes the top.
        ([0.1, 3.0, 3.0, 0.1], "disturbances[2].mass_kg")])
    def test_integrated_exits_2_naming_the_mass(self, tmp_path, capsys,
                                                 masses, key):
        cfg = write_json(tmp_path / "fold.json", {
            "duration_s": 70.0,
            "disturbances": [self.pressure(m) for m in masses]})
        out = tmp_path / "out"
        assert run_cli("integrated", "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == [key]
        assert not (out / "report.json").exists()

    def test_wm_masses_past_the_top_exit_2(self, tmp_path, capsys):
        assert run_cli("wm", "--masses", "0.1,6", "--out-dir", str(tmp_path),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["problems"] == [
            "--masses: 6.0 puts the delay shift at 5.888063401514924e-16 s, "
            "past the WM branch top 4.3085362296427973e-16 s"]

    def test_load_below_the_top_reads_back(self, tmp_path):
        cfg = write_json(tmp_path / "quiet.json", {"wm": {"noise_sigma": 0.0}})
        out = tmp_path / "out"
        assert run_cli("wm", "--config", cfg, "--masses", "4",
                       "--out-dir", str(out), "--quiet") == 0
        [reading] = json.loads(
            (out / "report.json").read_text())["wm_readings"]
        assert reading["inferred_mass_kg"] == pytest.approx(4.0, rel=0.01)


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

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run_cli("qkd", "--out-dir", str(taken), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert record["problems"][0].startswith(f"{taken}: ")
        assert taken.read_text() == "not a directory\n"

    def test_report_that_is_a_directory_exits_2(self, tmp_path, capsys,
                                                monkeypatch):
        self.test_output_that_is_a_directory_exits_2_before_the_work(
            tmp_path, capsys, monkeypatch, "qkd", "report.json",
            (qkd, "run_session"))

    @pytest.mark.parametrize("command, name, work", [
        ("qkd", "qber_windows.csv", (qkd, "run_session")),
        ("integrated", "event_log.jsonl", (controller, "run_scenario")),
    ])
    def test_output_that_is_a_directory_exits_2_before_the_work(
            self, tmp_path, capsys, monkeypatch, command, name, work):
        def no_work(*args, **kwargs):
            raise AssertionError("ran the work")

        monkeypatch.setattr(*work, no_work)
        cfg = write_json(tmp_path / "mini.json",
                         {"duration_s": 1.0, "seed": 1,
                          "qkd": {"pulses_per_window": 10000}})
        (tmp_path / "out" / name).mkdir(parents=True)
        assert run_cli(command, "--config", cfg, "--out-dir",
                       str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert record["problems"] == [
            f"{tmp_path / 'out' / name}: is a directory, not an output file"]

    def test_unwritable_out_dir_exits_2_before_the_work(
            self, tmp_path, capsys, monkeypatch):
        # Mode bits do not bind the superuser, so the access check reports
        # the directory unwritable here.
        def no_work(*args, **kwargs):
            raise AssertionError("ran the work")

        monkeypatch.setattr(qkd, "run_session", no_work)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert run_cli("qkd", "--out-dir", str(tmp_path), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["problems"] == [
            f"{tmp_path}: the output directory is not writable"]

    def test_existing_output_files_are_replaced(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("report.json", "qber_windows.csv"):
            (out / name).write_text("old\n")
        cfg = write_json(tmp_path / "mini.json",
                         {"duration_s": 1.0, "seed": 1,
                          "qkd": {"pulses_per_window": 10000}})
        assert run_cli("qkd", "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 1
        assert (out / "qber_windows.csv").read_text() != "old\n"

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
    ("channel.loss_db", '{"channel": {"loss_db": [1]}}'),
    ("channel.intrinsic_delay_s",
     '{"channel": {"intrinsic_delay_s": "abc"}}'),
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
    # Finite values whose arithmetic overflowed: perceive ended in a
    # traceback, integrated wrote NaN into its report, wm took the cosine
    # of an infinite phase and qkd warned.
    ("perception.input_power_w", '{"perception": {"input_power_w": 1e160}}'),
    ("perception.noise_sigma", '{"perception": {"noise_sigma": 1e300}}'),
    ("qkd.phase_noise_rad", '{"qkd": {"phase_noise_rad": 1e300}}'),
    ("wm.stress_optic_per_pa", '{"wm": {"stress_optic_per_pa": 1e300}}'),
    ("wm.contact_area_m2", '{"wm": {"contact_area_m2": 1e-300}}'),
    ("disturbances[0].mass_kg",
     '{"disturbances": [{"kind": "pressure", "position_m": 5000.0, '
     '"mass_kg": 1e300}]}'),
    # The sweep's noise moments turned negative: perceive warned.
    ("channel.length_m", '{"channel": {"length_m": 1e300}}'),
    # A path the operating system cannot take: mkdir raised ValueError.
    ("out_dir", '{"out_dir": "a\\u0000b"}'),
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
        assert not (tmp_path / "out" / "report.json").exists()

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


# Every line break str.splitlines honours, and last fields the reader
# rejects: not float literals, or not finite.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029"]
_BAD_SAMPLES = ["abc", "1,5", "0x1.g", "0x1p1024", "#", "1_0", "\u0661",
                "--1", "nan", "-inf", "1e400"]


@dataclass(frozen=True)
class _ReferenceTrace:
    """The work directory, config path, trace header line and sample lines
    of the impact reference's ``perceive`` trace, and the localization
    ``localize --trace`` reads from it."""

    work: Path
    config: str
    header: str
    body: list[str] = field(repr=False)
    localization: dict = field(repr=False)


@pytest.fixture(scope="class")
def impact_trace(tmp_path_factory) -> _ReferenceTrace:
    work = tmp_path_factory.mktemp("drawn-traces")
    cfg = write_json(work / "impact.json", _IMPACT_CONFIG)
    assert run_cli("perceive", "--config", cfg, "--out-dir", str(work),
                   "--quiet") == 0
    assert run_cli("localize", "--config", cfg, "--trace",
                   str(work / "trace.txt"), "--out-dir", str(work / "ref"),
                   "--quiet") == 0
    header, *body = (work / "trace.txt").read_text().splitlines()
    report = strict_json((work / "ref" / "report.json").read_text())
    assert report["localization"] is not None
    return _ReferenceTrace(work, cfg, header, body, report["localization"])


class TestLocalizeDrawnTraceFiles:
    """``localize --trace`` in process on drawn trace files: the impact
    reference's trace with drawn line breaks, a time column or not and a
    final break or not, which localizes as that trace does; the same with
    one bad sample, a byte that is not UTF-8, or no samples; and an empty
    file.  A run exits 0 or 2 and warns of nothing; exit 2 prints exactly
    one JSON diagnostic, naming the file; every report.json is standard
    JSON."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["good", "malformed", "not-utf8",
                                 "header-only", "empty"]),
           breaks=st.lists(st.sampled_from(_LINE_BREAKS), min_size=1,
                           max_size=3),
           time_column=st.booleans(), final=st.booleans(),
           bad=st.sampled_from(_BAD_SAMPLES), where=st.floats(0.0, 1.0))
    @example(kind="good", breaks=["\n"], time_column=False, final=True,
             bad="abc", where=0.0)
    def test_exit_0_or_2_with_one_diagnostic(self, impact_trace, kind,
                                             breaks, time_column, final,
                                             bad, where):
        ref = impact_trace
        lines = ([f"{k} {v}" for k, v in enumerate(ref.body)] if time_column
                 else list(ref.body))
        if kind == "malformed":
            lines[int(where * (len(lines) - 1))] += " " + bad
        elif kind == "header-only":
            lines = []
        lines = [ref.header, *lines]
        text = "".join(line + breaks[k % len(breaks)]
                       for k, line in enumerate(lines))
        if not final:
            text = text[:-len(breaks[(len(lines) - 1) % len(breaks)])]
        data = text.encode()
        if kind == "not-utf8":
            cut = len(ref.header) + int(where * (len(data)
                                                 - len(ref.header)))
            data = data[:cut] + b"\xff" + data[cut:]
        elif kind == "empty":
            data = b""
        path, out = ref.work / "drawn.txt", ref.work / "out"
        path.write_bytes(data)
        (out / "report.json").unlink(missing_ok=True)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_cli("localize", "--config", ref.config,
                           "--trace", str(path), "--out-dir", str(out),
                           "--quiet")
        assert [str(w.message) for w in caught] == []
        if kind == "good":
            assert (code, err.getvalue()) == (0, "")
            report = strict_json((out / "report.json").read_text())
            assert report["localization"] == ref.localization
            return
        assert code == 2
        [line] = err.getvalue().splitlines()
        record = strict_json(line)
        assert record["error"] == "validation"
        assert [p.startswith(f"{path}: ") for p in record["problems"]] == \
            [True]
        assert not (out / "report.json").exists()

    def test_underscored_header_value_exits_2(self, impact_trace, capsys):
        # float() reads 2_00000 as 200000; a header value follows the
        # samples' literal rule, which refuses digit-group underscores.
        ref = impact_trace
        header = " ".join("sample_rate_hz=2_00000"
                          if token.startswith("sample_rate_hz=") else token
                          for token in ref.header.split())
        path, out = ref.work / "underscored.txt", ref.work / "underscored"
        path.write_text("\n".join([header, *ref.body]) + "\n",
                        encoding="utf-8")
        assert run_cli("localize", "--config", ref.config, "--trace",
                       str(path), "--out-dir", str(out), "--quiet") == 2
        [line] = capsys.readouterr().err.splitlines()
        record = strict_json(line)
        assert record["error"] == "validation"
        [problem] = record["problems"]
        assert problem.startswith(f"{path}: ")
        assert "'sample_rate_hz=2_00000'" in problem
        assert not (out / "report.json").exists()


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
    # A standing weight is a pressure event; the loop's static delay is
    # channel.intrinsic_delay_s alone, so the retired shift is no key.
    CONFIG = {"duration_s": 2.0, "channel": {"delay_shift_s": 1e-17}}

    @pytest.mark.parametrize("command", ["qkd", "wm", "integrated"])
    def test_retired_key_exits_2_naming_it(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "shift.json", self.CONFIG)
        assert run_cli(command, "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert [p.split(":")[0] for p in record["problems"]] == \
            ["channel.delay_shift_s"]

    # The same static delay, set as the loop's own, as README says.
    def test_key_session_still_runs(self, tmp_path):
        cfg = write_json(tmp_path / "summed.json", {
            "duration_s": 2.0, "channel": {"intrinsic_delay_s": 1e-17}})
        out = tmp_path / "out"
        assert run_cli("qkd", "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["windows"] == 2

    # omega0 tau overflowed, and calibration exited 3 naming no key.
    @pytest.mark.parametrize("command", ["wm", "integrated"])
    def test_infinite_wm_phase_exits_2_naming_the_delay(self, tmp_path,
                                                         capsys, command):
        cfg = write_json(tmp_path / "delay.json", {
            "duration_s": 2.0, "channel": {"intrinsic_delay_s": 1e300}})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out-dir", str(out),
                       "--quiet") == 2
        record = json.loads(capsys.readouterr().err)
        assert [p.split(":")[0] for p in record["problems"]] == \
            ["channel.intrinsic_delay_s"]
        assert not (out / "report.json").exists()


# Perception settings under which no frequency sweep can be made.
_UNSWEEPABLE = {
    "two-point-grid": ("perception.scan_step_hz", {
        "scan_min_hz": 2000.0, "scan_max_hz": 2100.0}),
    "two-sample-sweep": ("perception.sweep_duration_s", {
        "sweep_duration_s": 1e-5}),
    "730001-point-grid": ("perception.scan_step_hz", {"scan_step_hz": 0.1}),
    # Before the scan-point bound it voted on notches for minutes.
    "730001-point-grid-of-short-sweeps": ("perception.scan_step_hz", {
        "scan_step_hz": 0.1, "sweep_duration_s": 1.5e-5}),
    "sweep-past-the-trace-bound": ("perception.sweep_duration_s", {
        "sweep_duration_s": (2**22 + 1) / 200e3}),
    "overflowing-point-count": ("perception.scan_step_hz", {
        "scan_max_hz": 1e308, "scan_step_hz": 1e-300}),
    "grid-past-nyquist": ("perception.scan_max_hz", {
        "scan_max_hz": 120000.0}),
    "endless-sweep": ("perception.sweep_duration_s", {
        "sweep_duration_s": 1e308}),
    # 10**(depth / 10) overflowed in the null search.
    "notch-past-the-float-range": ("perception.notch_depth_db", {
        "notch_depth_db": 1e6}),
    # The Welch scale fs sum(w**2) overflowed, and every sensing grade was
    # taken on a zeroed spectrum.
    "rate-past-the-welch-scale": ("perception.sample_rate_hz", {
        "sample_rate_hz": 1e306, "sense_duration_s": 1e-300,
        "sweep_duration_s": 1e-300}),
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


def test_wm_polls_of_most_samples_run_without_warnings(tmp_path):
    # A poll after each of the 1 s key windows, each reading averaging the
    # most samples a reading may: one draw per intensity whatever their count.
    cfg = write_json(tmp_path / "polls.json", {
        "duration_s": 33.0,
        "wm": {"poll_interval_s": 1.0, "samples_per_reading": 2**20}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("integrated", "--config", cfg,
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["wm_readings"]) == len(report["qkd_windows"]) > 0


def test_trace_past_the_sample_bound_exits_2_without_warnings(
        tmp_path, capsys):
    # Welch squares of 1e200 overflow; the trace is refused before them.
    samples = 1e200 * (1.0 + np.random.default_rng(0).standard_normal(5120))
    path = tmp_path / "huge.txt"
    path.write_text("# sample_rate_hz=200000.0 i0_w=1.0\n" + "".join(
        f"{v!r}\n" for v in samples.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("localize", "--trace", str(path),
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
    record = strict_json(capsys.readouterr().err)
    assert record["error"] == "validation"
    [problem] = record["problems"]
    assert problem.startswith(f"{path}: samples must all be finite")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("rate", ["1e308", "5e-324"])
def test_trace_rate_past_its_bound_exits_2_without_warnings(
        tmp_path, capsys, rate):
    # The Welch scale overflowed at 1e308 and the bin step at 5e-324; the
    # trace is refused before either.
    samples = 1e-3 * (1.0 + 0.01 * np.random.default_rng(0).standard_normal(
        5120))
    path = tmp_path / "rate.txt"
    path.write_text(f"# sample_rate_hz={rate} i0_w=1.0\n" + "".join(
        f"{v!r}\n" for v in samples.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("localize", "--trace", str(path),
                       "--out-dir", str(tmp_path / "out"), "--quiet") == 2
    record = strict_json(capsys.readouterr().err)
    assert record["error"] == "validation"
    assert record["problems"] == [
        f"{path}: sample_rate_hz: must be within [0.001, 1000000000000.0], "
        f"got {float(rate)}"]
    assert not (tmp_path / "out" / "report.json").exists()


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


_CHOICES = ("(choose from 'qkd', 'perceive', 'localize', 'wm', "
            "'integrated', 'sweep')")


class TestBadCommandLine:
    """A command line argparse refuses ends as one JSON diagnostic with
    exit 2 and no usage text; ``--help`` and ``--version`` still exit 0."""

    @pytest.mark.parametrize("argv, problem", [
        (["wm", "--bogus"], "unrecognized arguments: --bogus"),
        (["localize"], "the following arguments are required: --trace"),
        # A separate token with a leading minus reads as an option.
        (["sweep", "--key", "channel.loss_db", "--values", "-1e-3"],
         "argument --values: expected one argument"),
        (["qkd", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        # A first token that names no command, which the top-level parser
        # refuses.
        (["bogus"], f"argument command: invalid choice: 'bogus' {_CHOICES}"),
        (["--seed", "3", "qkd"],
         f"argument command: invalid choice: '3' {_CHOICES}"),
    ])
    def test_exits_2_with_one_diagnostic(self, tmp_path, capsys, argv,
                                         problem):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        record = strict_json(line)
        assert (record["error"], record["problems"]) == \
            ("validation", [problem])
        assert "usage:" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["wm", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            run_cli(*argv)
        assert done.value.code == 0
        assert capsys.readouterr().err == ""


class TestOverridesLeaveTheParsedConfig:
    """``--seed`` and ``sweep`` parse a new mapping built around the
    resolved one, and change none of its dicts and lists."""

    @pytest.mark.parametrize("argv", [
        ["qkd", "--seed", "9"],
        ["sweep", "--key", "channel.loss_db", "--values", "10,20"],
        ["sweep", "--key", "seed", "--values", "3,4"],
    ])
    def test_parsed_config_unchanged(self, tmp_path, monkeypatch, argv):
        cfg = parse_config_dict({
            "duration_s": 1.0, "qkd": {"pulses_per_window": 10000},
            "disturbances": [{"kind": "pressure", "position_m": 700.0}]})
        before = copy.deepcopy(cfg.resolved)
        monkeypatch.setattr(cli, "parse_config", lambda path: cfg)
        assert run_cli(*argv, "--config", "parsed.json", "--out-dir",
                       str(tmp_path), "--quiet") == 0
        assert cfg.resolved == before
        report = strict_json((tmp_path / "report.json").read_text())
        assert report["seed"] == (9 if "--seed" in argv else 1)


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
        assert run_cli("wm", "--bogus", "--out-dir",
                       str(tmp_path / "bad")) == 2
        capsys.readouterr()
        # --trace is required, so a value left from an earlier call would
        # let this run.
        assert run_cli("localize", "--config", impact_config,
                       "--out-dir", str(tmp_path / "missing"),
                       "--quiet") == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "--trace" in strict_json(line)["message"]
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



@pytest.mark.parametrize("command", ["perceive", "integrated"])
def test_longest_loop_runs_without_warnings(tmp_path, command):
    cfg = write_json(tmp_path / "long.json", {
        "duration_s": 4.0, "seed": 1,
        "channel": {"length_m": optics.MAX_LOOP_LENGTH_M},
        "disturbances": [{**_README_PZT, "start_s": 1.0}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, "--config", cfg, "--out-dir",
                       str(tmp_path / "out"), "--quiet") == 0
    strict_json((tmp_path / "out" / "report.json").read_text())


class TestBroadbandPacket:
    # exp(-(sigma tau)**2) raised OverflowError past sigma tau of about
    # 1.3e154; it now saturates to 0, where it underflowed long before.
    @pytest.mark.parametrize("command", ["qkd", "integrated"])
    @pytest.mark.parametrize("packet, channel", [
        ({"spectral_sigma_rad_per_s": 1e300}, {}),
        ({"spectral_sigma_rad_per_s": 1e15}, {"intrinsic_delay_s": 1e150})])
    def test_key_runs_keep_half_the_detected_rate(self, tmp_path, command,
                                                  packet, channel):
        config = {"duration_s": 4.0, "seed": 1, "packet": packet,
                  "channel": channel, "disturbances": [_README_PZT]}
        rates = []
        for name, cfg in (("broad", config), ("mono", {
                **config, "packet": {}, "channel": {}})):
            out = tmp_path / name
            assert run_cli(command, "--config",
                           write_json(tmp_path / f"{name}.json", cfg),
                           "--out-dir", str(out), "--quiet") == 0
            report = strict_json((out / "report.json").read_text())
            rates.append(report["summary"]["mean_raw_rate_bps"])
        assert rates[0] == pytest.approx(0.5 * rates[1], rel=0.05)

    def test_wm_finds_no_working_point(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "broad.json", {
            "packet": {"spectral_sigma_rad_per_s": 1e300},
            "wm": {"noise_sigma": 0.0}})
        assert run_cli("wm", "--config", cfg, "--out-dir",
                       str(tmp_path / "out"), "--quiet") == 3
        record = json.loads(capsys.readouterr().err)
        assert record["type"] == "ZeroWorkingPointError"


class TestNonFiniteOutput:
    CONFIG = {"duration_s": 2.0, "seed": 1}

    def test_report_value_exits_3_naming_its_key(self, tmp_path, capsys,
                                                 monkeypatch):
        base = cli._base_report
        monkeypatch.setattr(cli, "_base_report", lambda cfg: {
            **base(cfg), "extra": {"values": [1.0, math.nan]}})
        out = tmp_path / "out"
        assert run_cli("qkd", "--config",
                       write_json(tmp_path / "c.json", self.CONFIG),
                       "--out-dir", str(out), "--quiet") == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "analysis"
        assert "$.extra.values[1] is not a finite number" in \
            record["message"]
        assert not (out / "report.json").exists()

    def test_event_log_value_exits_3_naming_its_key(self, tmp_path, capsys,
                                                    monkeypatch):
        log_dicts = cli._log_dicts
        monkeypatch.setattr(cli, "_log_dicts", lambda log: [
            {**entry, "payload": {"qber": math.inf}} if i == 1 else entry
            for i, entry in enumerate(log_dicts(log))])
        out = tmp_path / "out"
        assert run_cli("integrated", "--config",
                       write_json(tmp_path / "c.json", self.CONFIG),
                       "--out-dir", str(out), "--quiet") == 3
        record = json.loads(capsys.readouterr().err)
        assert "event_log.jsonl: $[1].payload.qber is not a finite number" \
            in record["message"]
        assert not (out / "event_log.jsonl").exists()
        assert not (out / "report.json").exists()
