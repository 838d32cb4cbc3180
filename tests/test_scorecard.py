"""``tools/scorecard.py`` is deterministic: two runs print the same table
and write the same JSON."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import scorecard  # noqa: E402


def run(directory, monkeypatch, capsys):
    directory.mkdir()
    monkeypatch.chdir(directory)
    scorecard.main()
    return capsys.readouterr().out, (directory / scorecard.OUTPUT).read_text()


def test_two_runs_write_the_same_table(tmp_path, monkeypatch, capsys):
    first = run(tmp_path / "first", monkeypatch, capsys)
    assert run(tmp_path / "second", monkeypatch, capsys) == first
    printed, written = first
    card = json.loads(written)
    channel = scorecard.parse_config_dict({}).scenario.channel
    n, length = channel.refractive_index, channel.length_m
    dn = scorecard.INDEX_ERROR
    for path, runs in (("sweep_path", 128), ("strong_sweep_path", 128),
                       ("trace_path", 64)):
        rows = card[path]
        assert [row["position_m"] for row in rows] == \
            list(scorecard.POSITIONS_M)
        for row in rows:
            assert (row["located"] + sum(row["fails"].values())
                    == row["runs"] == runs)
            assert (row["rms_error_m"] is None) == (row["located"] == 0)
            assert (row["mean_se_m"] is None) == (row["located"] < 2)
            if row["located"] == 0:
                assert row["index_shift_m"] is None
                assert row["length_shift_m"] is None
                continue
            # The calibration budget of the mean located position.
            mean_x = row["position_m"] + row["mean_error_m"]
            assert row["index_shift_m"] == pytest.approx(
                (length - 2.0 * mean_x) * dn / (2.0 * (n + dn)), rel=1e-9)
            assert row["length_shift_m"] == pytest.approx(
                0.5 * scorecard.LENGTH_ERROR_M, abs=1e-9)
    quasi_static = card["quasi_static"]
    assert quasi_static["mass_kg"] == scorecard.WM_MASS_KG
    assert quasi_static["runs"] == 400
    assert quasi_static["sd_error_kg"] > 0.0
    assert quasi_static["mean_se_kg"] == pytest.approx(
        quasi_static["sd_error_kg"] / 400 ** 0.5)
    false_alarms = card["false_alarms"]
    assert false_alarms["runs"] == 40
    assert 0 < false_alarms["breaches"] < false_alarms["windows"]
    assert false_alarms["per_window"] == \
        false_alarms["breaches"] / false_alarms["windows"]
    assert false_alarms["oracle_per_window"] == pytest.approx(0.1530,
                                                              abs=5e-5)
    assert abs(false_alarms["per_window"]
               - false_alarms["oracle_per_window"]) \
        <= 4.0 * false_alarms["per_window_se"]
    # The README drive at 5 km breaches its window from 5 s more often
    # the higher its frequency, at 100 Hz barely more than a quiet one.
    breaches = card["breaches"]
    assert [row["frequency_hz"] for row in breaches] == \
        list(scorecard.BREACH_FREQUENCIES_HZ)
    per_window = [row["per_window"] for row in breaches]
    assert per_window == sorted(per_window)
    assert per_window == pytest.approx([0.1542, 0.1644, 0.2881, 0.8944],
                                       abs=5e-5)
    assert per_window[0] > false_alarms["oracle_per_window"]
    # The smallest peak phase breaching that window with probability 0.9
    # scales as 1 / |sin(pi f tau)|: one net amplitude for every row of a
    # window length, smaller the more pulses a window holds.
    detectable = card["detectable"]
    assert [(row["pulses_per_window"], row["frequency_hz"])
            for row in detectable] == [
        (pulses, f) for pulses in scorecard.DETECTION_PULSES
        for f in scorecard.BREACH_FREQUENCIES_HZ]
    assert scorecard.DETECTION_PULSES == (200_000, 10**8)
    rows = len(scorecard.BREACH_FREQUENCIES_HZ)
    for first in range(0, len(detectable), rows):
        for row in detectable[first:first + rows]:
            assert abs(row["per_window"] - scorecard.DETECTION) \
                <= scorecard.DETECTION_TOLERANCE
            assert row["net_amplitude_rad"] == \
                detectable[first]["net_amplitude_rad"]
    assert [row["peak_phase_rad"] for row in detectable] == \
        pytest.approx([15.7, 5.24, 1.60, 0.606, 9.1, 3.04, 0.924, 0.351],
                      rel=5e-3)
    # The sweep's position bound is flat along the loop, and the null
    # picker reaches a small share of it.
    sweep = card["sweep_path"]
    assert [row["bound_m"] for row in sweep] == pytest.approx(
        [3.265e-3, 3.266e-3, 3.268e-3, 3.296e-3, 3.623e-3, 3.527e-3,
         2.740e-3], rel=2e-4)
    # The 60 rad drive's rows have the same columns; what the null picker
    # makes of its sweep, failures included, is recorded as it is.
    strong = card["strong_sweep_path"]
    for row in sweep + strong:
        assert row["bound_m"] > 0.0
        assert row["efficiency"] == (
            None if row["located"] == 0
            else pytest.approx(row["bound_m"] / row["rms_error_m"]))
    assert [sorted(row) for row in strong] == [sorted(row) for row in sweep]
    assert [row["efficiency"] for row in sweep[:4]] == pytest.approx(
        [0.005347, 0.01725, 0.04256, 0.1321], rel=1e-3)
    # The default impact at 5 km does not show in its key window: the
    # engine's means and the sampled ones give the quiet probability to
    # 1.2e-4.
    impact = card["impact"]
    assert impact["peak_phase_rad"] == pytest.approx(1.4005, abs=5e-5)
    assert impact["per_window"] == pytest.approx(0.153106, abs=5e-7)
    assert impact["sampled_per_window"] == pytest.approx(
        impact["per_window"], abs=1e-7)
    assert 0.0 < impact["per_window"] - false_alarms["oracle_per_window"] \
        < 1.2e-4
    # The two-drive run localizes each drive in turn, each near its own.
    two_drives = card["two_drives"]
    assert two_drives["runs"] == 10
    assert two_drives["failed"] == 0
    assert two_drives["nearest"] == [{"position_m": 4000.0, "located": 17},
                                     {"position_m": 9000.0, "located": 19}]
    assert two_drives["located"] == 36
    assert two_drives["max_error_m"] <= 0.52
    assert printed.count("\n") == (len(sweep) + len(strong)
                                   + len(card["trace_path"]) + len(breaches)
                                   + len(detectable) + 22)
