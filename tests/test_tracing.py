"""The benchmark's tracer still fits the library: every function it wraps
exists, and the arguments and results it counts from keep their places."""
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import TRACED, Tracer  # noqa: E402

from sagnacsim import cli, qkd  # noqa: E402


def test_every_traced_name_resolves():
    for module, name in TRACED:
        assert callable(getattr(
            importlib.import_module(f"sagnacsim.{module}"), name)), \
            f"{module}.{name}"


def test_tracer_counts_the_pulses_of_a_short_key_session(tmp_path):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"duration_s": 2.0,
                                  "qkd": {"pulses_per_window": 50_000}}))
    original = qkd.simulate_window
    with Tracer() as tracer:
        assert qkd.simulate_window is not original
        assert cli.main(["qkd", "--config", str(config), "--out-dir",
                         str(tmp_path), "--quiet"]) == 0
    assert qkd.simulate_window is original
    report = json.loads((tmp_path / "report.json").read_text())
    assert tracer.counts["qkd.pulses"] == 100_000
    assert tracer.counts["qkd.sifted"] == report["summary"]["sifted_bits"]
    table = tracer.self_times()
    assert table["qkd.simulate_window"][0] == 2
    assert table["cli.main"][0] == 1
    assert table["fileio.write_report"][0] == 1
