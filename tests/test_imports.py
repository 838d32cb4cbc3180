"""The command-line tool runs on numpy alone: scipy stamps its version in
each report and is otherwise a test-only oracle.  The package exports a
pinned list of names, so that growth shows in a diff."""
import json
import os
import subprocess
import sys
from pathlib import Path

import sagnacsim

SRC = Path(__file__).resolve().parents[1] / "src"

# Loaded by the commands below, the heavy scipy subpackages cost over a
# second of start-up for every process.  The sweep's 2x2 noise factor and
# any statistics stay numpy code too.
_HEAVY = ("scipy.signal", "scipy.optimize", "scipy.special",
          "scipy.constants", "scipy.linalg", "scipy.stats")

_SCRIPT = """
import json, sys
from pathlib import Path
from sagnacsim.cli import main

pzt = {"kind": "pzt", "position_m": 5000.0, "start_s": 3.0,
       "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
       "phase_gain_rad_per_v": 0.5}
impact = {"kind": "impact", "position_m": 5000.0, "start_s": 1.0,
          "mass_kg": 0.1, "drop_height_m": 0.1, "width_s": 1e-5,
          "impact_gain": 2.0}
Path("pzt.json").write_text(json.dumps(
    {"duration_s": 12.0, "seed": 7, "disturbances": [pzt]}))
Path("impact.json").write_text(json.dumps(
    {"duration_s": 6.0, "seed": 5, "disturbances": [impact],
     "perception": {"noise_sigma": 0.0008, "sense_duration_s": 0.0256}}))
codes = [main(argv + ["--quiet"]) for argv in (
    ["qkd", "--out-dir", "qkd"],
    ["integrated", "--config", "pzt.json", "--out-dir", "integrated"],
    ["perceive", "--config", "impact.json", "--out-dir", "perceive"],
    ["localize", "--config", "impact.json", "--trace",
     "perceive/trace.txt", "--out-dir", "localize"],
    ["wm", "--masses", "0.1,0.3", "--out-dir", "wm"],
)]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_commands_load_no_heavy_scipy_subpackage(tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _SCRIPT],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 5
    loaded = set(result["modules"])
    assert "scipy" in loaded
    assert [name for name in _HEAVY if name in loaded] == []


# Every name ``from sagnacsim import *`` binds, sorted; no submodule.
EXPORTED = [
    "C_VACUUM", "DetectorModel", "DisturbanceEvent", "EventKind",
    "FrequencySweep", "ImpactParams", "InterferenceTrace",
    "LocalizationReport", "LoopChannel", "NullFrequency",
    "PortProbabilities", "PostSelection", "PressureParams", "PztParams",
    "ScenarioScript", "SiftedKeyRecord", "SourceModel", "SpectralPacket",
    "SystemMode", "WmCalibration", "WmReading",
    "calibrate", "contrast_ratio", "disturbed_intensity",
    "find_null_frequencies", "frequency_sweep", "impact_phase",
    "infer_delay", "localization_report", "localize", "loop_phase",
    "mass_from_delay", "omega_from_wavelength",
    "post_selection_probabilities", "pressure_delay", "pressure_staircase",
    "pzt_phase", "qber_threshold_check", "relative_phase", "resolution",
    "run_scenario", "run_session", "synthesize_trace", "visibility_and_qber",
]


def test_exported_names_are_pinned():
    assert sagnacsim.__all__ == EXPORTED
