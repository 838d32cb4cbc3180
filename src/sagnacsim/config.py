"""Scenario configuration: schema, defaults, validation and echo.

Configs are JSON documents.  Every physical quantity carries its unit in
the key name and no implicit unit conversion happens anywhere.  Parsing
validates the whole document and reports every problem found, not just the
first.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import perception, qkd
from .controller import QkdSettings, ScenarioScript, WmSettings
from .disturbance import (DisturbanceEvent, ImpactParams, PressureParams,
                          PztParams)
from .errors import ConfigError
from .optics import (DEFAULT_WAVELENGTH_M, LoopChannel, SpectralPacket)
from .perception import PerceptionSettings
from .qkd import DetectorModel, SourceModel

_POSITIVE = "positive"
_NON_NEGATIVE = "non-negative"
_FRACTION = "within [0, 1]"

# section -> key -> (default, constraint or None)
_SCHEMA: dict[str, dict[str, tuple[Any, Optional[str]]]] = {
    "channel": {
        "length_m": (30000.0, _POSITIVE),
        "refractive_index": (1.468, _POSITIVE),
        "intrinsic_delay_s": (3e-13, _NON_NEGATIVE),
        "delay_shift_s": (0.0, None),
        "bias_phase_rad": (0.0, None),
        "loss_db": (qkd.CALIBRATED_LOSS_DB, _NON_NEGATIVE),
    },
    "packet": {
        "wavelength_m": (DEFAULT_WAVELENGTH_M, _POSITIVE),
        "spectral_sigma_rad_per_s": (0.0, _NON_NEGATIVE),
    },
    "source": {
        "mean_photon_number": (0.1, _POSITIVE),
        "pulse_rate_hz": (100e6, _POSITIVE),
        "pulse_width_s": (2e-9, _POSITIVE),
    },
    "detector": {
        "efficiency": (0.2, _FRACTION),
        "dark_count_prob_per_gate": (qkd.CALIBRATED_DARK_PROB, _NON_NEGATIVE),
        "gate_width_s": (2e-9, _POSITIVE),
        "repetition_rate_hz": (100e6, _POSITIVE),
    },
    "qkd": {
        "window_s": (1.0, _POSITIVE),
        "pulses_per_window": (200000, _POSITIVE),
        "phase_noise_rad": (qkd.CALIBRATED_PHASE_NOISE_RAD, _NON_NEGATIVE),
        "qber_threshold": (0.08, _FRACTION),
    },
    "perception": {
        "sample_rate_hz": (perception.DEFAULT_SAMPLE_RATE_HZ, _POSITIVE),
        "sense_duration_s": (0.05, _POSITIVE),
        "sweep_duration_s": (0.01, _POSITIVE),
        "noise_sigma": (perception.DEFAULT_NOISE_SIGMA, _NON_NEGATIVE),
        "input_power_w": (perception.DEFAULT_INPUT_POWER_W, _POSITIVE),
        "bias_phase_rad": (0.5 * math.pi, None),
        "significance_threshold": (10.0, _POSITIVE),
        "scan_min_hz": (2000.0, _POSITIVE),
        "scan_max_hz": (75000.0, _POSITIVE),
        "scan_step_hz": (250.0, _POSITIVE),
        "max_harmonics": (3, _POSITIVE),
        "notch_depth_db": (10.0, _POSITIVE),
        "freq_resolution_hz": (perception.DEFAULT_FREQ_RESOLUTION_HZ,
                               _POSITIVE),
        "switch_dead_time_s": (1.0, _NON_NEGATIVE),
    },
    "wm": {
        "delta_epsilon_rad": (math.pi / 6.0, _POSITIVE),
        "delta_bias_rad": (0.0, None),
        "input_power_w": (1.0, _POSITIVE),
        "noise_sigma": (0.0019, _NON_NEGATIVE),
        "samples_per_reading": (16, _POSITIVE),
        "poll_interval_s": (60.0, _POSITIVE),
        "pressed_length_m": (0.1, _POSITIVE),
        "contact_area_m2": (1e-4, _POSITIVE),
        "stress_optic_per_pa": (3e-12, _POSITIVE),
    },
}

_TOP_LEVEL = {
    "duration_s": (20.0, _POSITIVE),
    "seed": (1, None),
    "out_dir": (None, None),
}

_DISTURBANCE_KEYS = {
    "pzt": {
        "kind": (None, None),
        "position_m": (None, _NON_NEGATIVE),
        "start_s": (0.0, _NON_NEGATIVE),
        "drive_amplitude_v": (2.0, _POSITIVE),
        "frequency_hz": (500.0, _POSITIVE),
        "phase_gain_rad_per_v": (0.5, _POSITIVE),
    },
    "impact": {
        "kind": (None, None),
        "position_m": (None, _NON_NEGATIVE),
        "start_s": (0.0, _NON_NEGATIVE),
        "mass_kg": (0.1, _POSITIVE),
        "drop_height_m": (0.1, _POSITIVE),
        "width_s": (10e-6, _POSITIVE),
        "impact_gain": (10.0, _POSITIVE),
    },
    "pressure": {
        "kind": (None, None),
        "position_m": (None, _NON_NEGATIVE),
        "start_s": (0.0, _NON_NEGATIVE),
        "mass_kg": (0.1, _POSITIVE),
        "pressed_length_m": (0.1, _POSITIVE),
        "contact_area_m2": (1e-4, _POSITIVE),
        "stress_optic_per_pa": (3e-12, _POSITIVE),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated configuration with all defaults resolved."""

    resolved: dict

    def echo(self) -> dict:
        return json.loads(json.dumps(self.resolved))

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    @property
    def out_dir(self) -> Optional[str]:
        return self.resolved["out_dir"]

    def channel(self) -> LoopChannel:
        return LoopChannel(**self.resolved["channel"])

    def packet(self) -> SpectralPacket:
        section = self.resolved["packet"]
        return SpectralPacket.from_wavelength(
            section["wavelength_m"], sigma=section["spectral_sigma_rad_per_s"])

    def source(self) -> SourceModel:
        return SourceModel(**self.resolved["source"])

    def detector(self) -> DetectorModel:
        return DetectorModel(**self.resolved["detector"])

    def qkd_settings(self) -> QkdSettings:
        return QkdSettings(**self.resolved["qkd"])

    def perception_settings(self) -> PerceptionSettings:
        return PerceptionSettings(**self.resolved["perception"])

    def wm_settings(self) -> WmSettings:
        section = dict(self.resolved["wm"])
        pressure = PressureParams(
            mass_kg=0.1,
            pressed_length_m=section.pop("pressed_length_m"),
            contact_area_m2=section.pop("contact_area_m2"),
            stress_optic_per_pa=section.pop("stress_optic_per_pa"))
        return WmSettings(pressure=pressure, **section)

    def disturbances(self) -> tuple[DisturbanceEvent, ...]:
        events = []
        for entry in self.resolved["disturbances"]:
            body = dict(entry)
            kind = body.pop("kind")
            position = body.pop("position_m")
            start = body.pop("start_s")
            if kind == "pzt":
                params = PztParams(
                    drive_amplitude_v=body["drive_amplitude_v"],
                    angular_frequency_rad_s=2.0 * math.pi * body["frequency_hz"],
                    phase_gain_rad_per_v=body["phase_gain_rad_per_v"])
            elif kind == "impact":
                params = ImpactParams(
                    mass_kg=body["mass_kg"],
                    drop_height_m=body["drop_height_m"],
                    width_s=body["width_s"],
                    impact_gain=body["impact_gain"])
            else:
                params = PressureParams(
                    mass_kg=body["mass_kg"],
                    pressed_length_m=body["pressed_length_m"],
                    contact_area_m2=body["contact_area_m2"],
                    stress_optic_per_pa=body["stress_optic_per_pa"])
            events.append(DisturbanceEvent(params=params, position_m=position,
                                           start_s=start))
        return tuple(events)

    def script(self) -> ScenarioScript:
        return ScenarioScript(
            channel=self.channel(),
            source=self.source(),
            detector=self.detector(),
            packet=self.packet(),
            events=self.disturbances(),
            duration_s=self.resolved["duration_s"],
            seed=self.seed,
            qkd=self.qkd_settings(),
            perception=self.perception_settings(),
            wm=self.wm_settings(),
        )


def _check_value(path: str, value, constraint: Optional[str],
                 problems: list[str]) -> None:
    if constraint is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{path}: expected a number, got {value!r}")
        return
    if constraint == _POSITIVE and not value > 0:
        problems.append(f"{path}: must be > 0, got {value} (unit violation)")
    elif constraint == _NON_NEGATIVE and not value >= 0:
        problems.append(f"{path}: must be >= 0, got {value} (unit violation)")
    elif constraint == _FRACTION and not 0.0 <= value <= 1.0:
        problems.append(f"{path}: must lie in [0, 1], got {value}")


def _resolve_section(name: str, supplied: dict, schema: dict,
                     problems: list[str]) -> dict:
    out = {}
    unknown = set(supplied) - set(schema)
    for key in sorted(unknown):
        problems.append(f"{name}.{key}: unknown key")
    for key, (default, constraint) in schema.items():
        if key in supplied:
            value = supplied[key]
        else:
            value = default
        if value is None and default is None and key != "out_dir":
            problems.append(f"{name}.{key}: required value missing")
            continue
        _check_value(f"{name}.{key}", value, constraint, problems)
        out[key] = value
    return out


def parse_config_dict(raw: dict) -> ScenarioConfig:
    """Validate a configuration mapping and resolve all defaults.

    Raises :class:`ConfigError` carrying the complete list of validation
    problems when anything is wrong.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a JSON object"])
    problems: list[str] = []
    resolved: dict[str, Any] = {}

    known_top = set(_SCHEMA) | set(_TOP_LEVEL) | {"disturbances"}
    for key in sorted(set(raw) - known_top):
        problems.append(f"{key}: unknown key")

    for section, schema in _SCHEMA.items():
        supplied = raw.get(section, {})
        if not isinstance(supplied, dict):
            problems.append(f"{section}: must be an object")
            supplied = {}
        resolved[section] = _resolve_section(section, supplied, schema,
                                             problems)

    for key, (default, constraint) in _TOP_LEVEL.items():
        value = raw.get(key, default)
        if key == "seed":
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"seed: expected an integer, got {value!r}")
        elif key == "out_dir":
            if value is not None and not isinstance(value, str):
                problems.append(f"out_dir: expected a string, got {value!r}")
        else:
            _check_value(key, value, constraint, problems)
        resolved[key] = value

    entries = raw.get("disturbances", [])
    if not isinstance(entries, list):
        problems.append("disturbances: must be a list")
        entries = []
    resolved_events = []
    for i, entry in enumerate(entries):
        label = f"disturbances[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{label}: must be an object")
            continue
        kind = entry.get("kind")
        if kind not in _DISTURBANCE_KEYS:
            problems.append(
                f"{label}.kind: must be one of {sorted(_DISTURBANCE_KEYS)}, "
                f"got {kind!r}")
            continue
        schema = _DISTURBANCE_KEYS[kind]
        body = _resolve_section(label, entry, schema, problems)
        body["kind"] = kind
        if body.get("position_m") is None:
            problems.append(f"{label}.position_m: required value missing")
            continue
        resolved_events.append(body)
    resolved["disturbances"] = resolved_events

    if not problems:
        length = resolved["channel"]["length_m"]
        duration = resolved["duration_s"]
        for i, body in enumerate(resolved_events):
            if body["position_m"] > length:
                problems.append(
                    f"disturbances[{i}].position_m: {body['position_m']} "
                    f"beyond the loop length {length}")
            if body["start_s"] > duration:
                problems.append(
                    f"disturbances[{i}].start_s: {body['start_s']} beyond "
                    f"the scenario duration {duration}")
        if resolved["perception"]["scan_min_hz"] >= \
                resolved["perception"]["scan_max_hz"]:
            problems.append("perception.scan_min_hz: must be below "
                            "perception.scan_max_hz")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(resolved=resolved)


def parse_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a JSON configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return parse_config_dict(raw)


def default_config() -> ScenarioConfig:
    return parse_config_dict({})
