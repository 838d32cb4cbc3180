"""``tools/scorecard.py`` is deterministic: two runs print the same table
and write the same JSON."""
import json
import sys
from pathlib import Path

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
    rows = json.loads(written)["sweep_path"]
    assert [row["position_m"] for row in rows] == list(scorecard.POSITIONS_M)
    for row in rows:
        assert (row["located"] + sum(row["fails"].values()) == row["runs"]
                == 128)
        assert (row["rms_error_m"] is None) == (row["located"] == 0)
        assert (row["mean_se_m"] is None) == (row["located"] < 2)
    assert printed.count("\n") == len(rows) + 2
