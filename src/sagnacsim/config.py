"""Scenario configuration: defaults, validation and echo.

Configs are JSON documents.  Every physical quantity carries its unit in
the key name and no implicit unit conversion happens anywhere.  A section's
keys are the ``int`` and ``float`` fields of the library types it
configures, each with its field's type, default and bound: integer keys take
integers only and every number must be finite.  This module adds only the
reference system's values that no field holds (the 30 km loop, a 20 s run,
the default disturbance) and the keys named apart from their field.
Parsing reports every key's problems at once; the checks across fields
(scan range, events within the loop and the run) follow once they pass.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, replace
from pathlib import Path

from . import qkd
from .controller import ScenarioScript
from .disturbance import (DisturbanceEvent, ImpactParams, PressureParams,
                          PztParams)
from .errors import ConfigError, FieldSpec, field_specs
from .optics import DEFAULT_WAVELENGTH_M, LoopChannel, SpectralPacket
from .perception import PerceptionSettings
from .qkd import DetectorModel, QkdSettings, SourceModel
from .wm import WmSettings


def _keys(cls, drop=(), **defaults) -> dict[str, FieldSpec]:
    """The numeric fields of ``cls`` less ``drop`` as config keys, with
    ``defaults`` in place of the field defaults."""
    specs = {name: spec for name, spec in field_specs(cls).items()
             if name not in drop}
    for name, default in defaults.items():
        specs[name] = specs[name]._replace(default=default)
    return specs


# The pressure geometry WM inverts with; the mass is what WM measures.
_WM_GEOMETRY = _keys(PressureParams, drop=("mass_kg",))
_PACKET = field_specs(SpectralPacket)

_SECTIONS = {
    "channel": _keys(LoopChannel, length_m=30000.0, intrinsic_delay_s=3e-13,
                     loss_db=qkd.CALIBRATED_LOSS_DB),
    # omega0 = 2 pi c / wavelength_m is positive exactly when the
    # wavelength is.
    "packet": {"wavelength_m": _PACKET["omega0"]._replace(
                   default=DEFAULT_WAVELENGTH_M),
               "spectral_sigma_rad_per_s": _PACKET["sigma"]},
    "source": _keys(SourceModel),
    "detector": _keys(DetectorModel),
    "qkd": _keys(QkdSettings),
    "perception": _keys(PerceptionSettings),
    "wm": {**_keys(WmSettings), **_WM_GEOMETRY},
}

_TOP_LEVEL = _keys(ScenarioScript, duration_s=20.0, seed=1)

_EVENT = _keys(DisturbanceEvent)

# kind -> (params type, its keys).
_DISTURBANCES = {
    "pzt": (PztParams, _keys(PztParams, drive_amplitude_v=2.0,
                             frequency_hz=500.0)),
    "impact": (ImpactParams, _keys(ImpactParams, mass_kg=0.1,
                                   drop_height_m=0.1)),
    "pressure": (PressureParams, _keys(PressureParams, mass_kg=0.1)),
}


def _build(label: str, cls, values: dict):
    """``cls(**values)``, naming any problem it reports by its config key."""
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError([label + p for p in exc.problems]) from None


def _event(label: str, entry: dict) -> DisturbanceEvent:
    cls, keys = _DISTURBANCES[entry["kind"]]
    return _build(label, DisturbanceEvent, {
        "params": _build(label, cls, {key: entry[key] for key in keys}),
        **{key: entry[key] for key in _EVENT}})


def _script(resolved: dict) -> ScenarioScript:
    """The typed scenario a resolved config describes."""
    packet, wm = resolved["packet"], resolved["wm"]
    wm_settings = _build("wm.", WmSettings,
                         {key: wm[key] for key in field_specs(WmSettings)})
    return ScenarioScript(
        **{name: _build(f"{name}.", cls, resolved[name]) for name, cls in (
            ("channel", LoopChannel), ("source", SourceModel),
            ("detector", DetectorModel), ("qkd", QkdSettings),
            ("perception", PerceptionSettings))},
        packet=_build("packet.", SpectralPacket.from_wavelength, {
            "wavelength_m": packet["wavelength_m"],
            "sigma": packet["spectral_sigma_rad_per_s"]}),
        events=tuple(_event(f"disturbances[{i}].", entry)
                     for i, entry in enumerate(resolved["disturbances"])),
        duration_s=resolved["duration_s"],
        seed=resolved["seed"],
        wm=replace(wm_settings, pressure=replace(
            wm_settings.pressure, **{key: wm[key] for key in _WM_GEOMETRY})),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated configuration with all defaults resolved, and the
    typed scenario it describes."""

    resolved: dict
    scenario: ScenarioScript

    def echo(self) -> dict:
        return json.loads(json.dumps(self.resolved))


def _resolve(label: str, supplied: dict, keys: dict[str, FieldSpec],
             problems: list[str], others=()) -> dict:
    """Each of ``keys`` from ``supplied`` or its default, checked; a key of
    ``supplied`` in neither ``keys`` nor ``others`` is unknown."""
    for key in sorted(set(supplied) - set(keys) - set(others)):
        problems.append(f"{label}{key}: unknown key")
    out = {}
    for key, spec in keys.items():
        value = supplied.get(key, spec.default)
        if value is MISSING:
            problems.append(f"{label}{key}: required value missing")
            continue
        problem = spec.problem(value)
        if problem is not None:
            problems.append(f"{label}{key}: {problem}")
        out[key] = value
    return out


def _resolve_disturbances(entries, problems: list[str]) -> list[dict]:
    if not isinstance(entries, list):
        problems.append("disturbances: must be a list")
        return []
    out = []
    for i, entry in enumerate(entries):
        label = f"disturbances[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{label}: must be an object")
            continue
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _DISTURBANCES:
            problems.append(
                f"{label}.kind: must be one of {sorted(_DISTURBANCES)}, "
                f"got {kind!r}")
            continue
        keys = {**_EVENT, **_DISTURBANCES[kind][1]}
        out.append({"kind": kind, **_resolve(f"{label}.", entry, keys,
                                             problems, others=["kind"])})
    return out


def parse_config_dict(raw: dict) -> ScenarioConfig:
    """Validate a configuration mapping and resolve all defaults.

    Raises :class:`ConfigError` carrying the complete list of validation
    problems when anything is wrong.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a JSON object"])
    problems: list[str] = []
    resolved = {}
    for name, keys in _SECTIONS.items():
        supplied = raw.get(name, {})
        if not isinstance(supplied, dict):
            problems.append(f"{name}: must be an object")
            supplied = {}
        resolved[name] = _resolve(f"{name}.", supplied, keys, problems)
    resolved.update(_resolve("", raw, _TOP_LEVEL, problems, others=[
        *_SECTIONS, "out_dir", "disturbances"]))
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append(f"out_dir: expected a string, got {out_dir!r}")
    resolved["out_dir"] = out_dir
    resolved["disturbances"] = _resolve_disturbances(
        raw.get("disturbances", []), problems)

    if problems:
        raise ConfigError(problems)
    # The checks across fields live on the library types.
    return ScenarioConfig(resolved=resolved, scenario=_script(resolved))


def key_type(dotted: str) -> type:
    """The declared type, ``int`` or ``float``, of a numeric section or
    top-level key such as ``channel.loss_db``."""
    section, _, key = dotted.rpartition(".")
    spec = (_SECTIONS.get(section, {}) if section else _TOP_LEVEL).get(key)
    if spec is None:
        raise ConfigError([f"{dotted}: not a numeric config key"])
    return spec.kind


def parse_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a JSON configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable text and invalid JSON.
        raise ConfigError([f"{path}: not a readable JSON config: {exc}"]) \
            from exc
    return parse_config_dict(raw)
