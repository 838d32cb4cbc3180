import copy
import json
import math
import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim.config import parse_config, parse_config_dict
from sagnacsim.controller import MAX_KEY_WINDOWS
from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams,
                                   PressureParams, PztParams)
from sagnacsim.errors import (ConfigError, field_problems, field_specs,
                              interval_text)
from sagnacsim.optics import MIN_WAVELENGTH_M, omega_from_wavelength
from sagnacsim.perception import MAX_TRACE_SAMPLES, PerceptionSettings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import config_table  # noqa: E402
from output_digests import CONFIGS  # noqa: E402


class TestDefaults:
    def test_minimal_config_resolves_reference_system(self):
        cfg = parse_config_dict({})
        channel = cfg.scenario.channel
        assert channel.length_m == 30000.0
        assert channel.refractive_index == 1.468
        assert channel.loss_db == 16.5
        packet = cfg.scenario.packet
        assert packet.omega0 == pytest.approx(
            2 * math.pi * 299792458.0 / 1550e-9, rel=1e-12)
        assert cfg.scenario.source.mean_photon_number == 0.1
        assert cfg.scenario.detector.efficiency == 0.2
        assert cfg.scenario.detector.repetition_rate_hz == 100e6

    def test_script_builds(self):
        script = parse_config_dict({}).scenario
        assert script.duration_s == 20.0
        assert script.events == ()


class TestValidation:
    def test_negative_length_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"channel": {"length_m": -5.0}})
        assert any("channel.length_m" in p for p in err.value.problems)
        assert any("unit violation" in p for p in err.value.problems)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"channel": {"length_km": 30.0},
                               "bogus_section": 1})
        joined = "\n".join(err.value.problems)
        assert "channel.length_km" in joined
        assert "bogus_section" in joined

    def test_event_beyond_duration(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({
                "duration_s": 5.0,
                "disturbances": [{"kind": "pzt", "position_m": 100.0,
                                  "start_s": 9.0}],
            })
        assert any("start_s" in p for p in err.value.problems)

    def test_event_beyond_loop(self):
        with pytest.raises(ConfigError):
            parse_config_dict({
                "disturbances": [{"kind": "impact", "position_m": 50000.0}],
            })

    def test_all_problems_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({
                "channel": {"length_m": -5.0, "mystery": 1},
                "detector": {"efficiency": 2.0},
                "seed": "not-a-seed",
            })
        assert len(err.value.problems) >= 4

    def test_unknown_disturbance_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({
                "disturbances": [{"kind": "earthquake", "position_m": 1.0}],
            })
        assert any("kind" in p for p in err.value.problems)

    def test_missing_position_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"disturbances": [{"kind": "pzt"}]})


class TestRoundTrip:
    def test_parse_echo_parse_is_identity(self):
        first = parse_config_dict({
            "channel": {"loss_db": 12.0},
            "seed": 99,
            "disturbances": [{"kind": "pressure", "position_m": 700.0,
                              "mass_kg": 0.3}],
        })
        second = parse_config_dict(first.resolved)
        assert first.resolved == second.resolved

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"duration_s": 3.0, "seed": 5}))
        cfg = parse_config(path)
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(cfg.resolved))
        assert parse_config(echo_path).resolved == cfg.resolved

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestEcho:
    """A report echoes the resolved config as it is: a mapping equal, type
    for type, to its JSON round trip, that shares no dict or list with the
    mapping parsed."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_equals_the_json_round_trip(self, name):
        cfg = parse_config_dict(CONFIGS[name])
        echo = cfg.resolved
        round_trip = json.loads(json.dumps(cfg.resolved))
        assert echo == round_trip
        assert repr(echo) == repr(round_trip)
        assert json.dumps(echo, indent=2, sort_keys=True) == \
            json.dumps(round_trip, indent=2, sort_keys=True)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_changing_the_parsed_mapping_leaves_resolved(self, name):
        # A mapping of every section and key, so each dict or list a parse
        # kept from it is one that changes below.
        raw = copy.deepcopy(parse_config_dict(CONFIGS[name]).resolved)
        cfg = parse_config_dict(raw)
        before = copy.deepcopy(cfg.resolved)
        raw["seed"] = -1
        for section in raw.values():
            if isinstance(section, dict):
                section.clear()
        for entry in raw["disturbances"]:
            entry["position_m"] = -1.0
        raw["disturbances"].append({"kind": "pzt"})
        assert cfg.resolved == before


class TestTypedViews:
    def test_disturbances_build_typed_events(self):
        cfg = parse_config_dict({
            "disturbances": [
                {"kind": "pzt", "position_m": 5000.0, "frequency_hz": 800.0},
                {"kind": "impact", "position_m": 2000.0, "mass_kg": 0.2},
                {"kind": "pressure", "position_m": 100.0, "mass_kg": 0.5},
            ],
        })
        events = cfg.scenario.events
        assert len(events) == 3
        assert events[0].params.angular_frequency_rad_s == pytest.approx(
            2 * math.pi * 800.0)
        assert events[1].params.mass_kg == 0.2
        assert events[2].params.mass_kg == 0.5

    @pytest.mark.parametrize("kind, cls", [("pzt", PztParams),
                                           ("impact", ImpactParams),
                                           ("pressure", PressureParams)])
    def test_keys_are_the_params_fields_and_the_event_keys(self, kind, cls):
        entry = parse_config_dict({"disturbances": [
            {"kind": kind, "position_m": 1.0}]}).resolved["disturbances"][0]
        numeric = {f.name for c in (cls, DisturbanceEvent)
                   for f in fields(c) if f.type in ("int", "float")}
        assert set(entry) == {"kind", *numeric}

    def test_wm_settings_carry_pressure_geometry(self):
        cfg = parse_config_dict({"wm": {"pressed_length_m": 0.2}})
        settings = cfg.scenario.wm
        assert settings.pressure.pressed_length_m == 0.2
        assert settings.pressure.contact_area_m2 == 1e-4


class TestLibraryBounds:
    def test_weightless_pressure_event_accepted(self):
        # PressureParams allows a zero mass; the config takes its bound.
        cfg = parse_config_dict({
            "disturbances": [{"kind": "pressure", "position_m": 100.0,
                              "mass_kg": 0.0}],
        })
        assert cfg.scenario.events[0].params.mass_kg == 0.0

    @pytest.mark.parametrize("raw, key", [
        ({"perception": {"scan_min_hz": 80000.0}}, "perception.scan_min_hz"),
        ({"disturbances": [{"kind": "pzt", "position_m": 1.0},
                           {"kind": "pzt", "position_m": 40000.0}]},
         "disturbances[1].position_m"),
    ])
    def test_cross_field_problems_name_their_keys(self, raw, key):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(raw)
        assert [p.split(":")[0] for p in err.value.problems] == [key]


def _impact(width_s):
    return {"disturbances": [{"kind": "impact", "position_m": 1.0,
                              "width_s": width_s}]}


# Values bounding the work of a run, at the bound and one unit past it:
# key windows of 1 s, sensing samples and impact trace samples at the
# default 200 kHz, and WM samples per reading.
_WORK_BOUNDS = {
    "key-windows": ("qkd.window_s", *[{"duration_s": float(n)} for n in (
        MAX_KEY_WINDOWS, MAX_KEY_WINDOWS + 1)]),
    "sense-samples": ("perception.sense_duration_s", *[
        {"perception": {"sense_duration_s": n / 200e3}}
        for n in (MAX_TRACE_SAMPLES, MAX_TRACE_SAMPLES + 1)]),
    "impact-trace-samples": ("disturbances[0].width_s", *[
        _impact((n / 200e3 - 4e-3) / 32.0)
        for n in (MAX_TRACE_SAMPLES, MAX_TRACE_SAMPLES + 1)]),
    "wm-draws": ("wm.samples_per_reading", *[
        {"wm": {"samples_per_reading": n}} for n in (2**20, 2**20 + 1)]),
}


class TestWorkBounds:
    @pytest.mark.parametrize("key, at, past", list(_WORK_BOUNDS.values()),
                             ids=list(_WORK_BOUNDS))
    def test_bound_accepted_and_one_past_it_names_the_key(self, key, at,
                                                          past):
        parse_config_dict(at)
        with pytest.raises(ConfigError) as err:
            parse_config_dict(past)
        assert [p.split(":")[0] for p in err.value.problems] == [key]


_DEFAULTS = parse_config_dict({}).resolved
_SECTIONS = [name for name, value in _DEFAULTS.items()
             if isinstance(value, dict)]
_KINDS = ("pzt", "impact", "pressure")
_EVENT_KEYS = {
    kind: list(parse_config_dict({"disturbances": [
        {"kind": kind, "position_m": 1.0}]}).resolved["disturbances"][0])
    for kind in _KINDS}

_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(0.0, 1e5),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))


def _section(keys):
    return st.dictionaries(st.sampled_from([*keys, "bogus"]), _values,
                           max_size=3)


def _entry(kind):
    keys = _EVENT_KEYS[kind] if kind in _KINDS else ["position_m"]
    return _section(keys).map(lambda body: {**body, "kind": kind})


_configs = st.fixed_dictionaries({}, optional={
    **{name: st.one_of(_section(list(_DEFAULTS[name])), _values)
       for name in _SECTIONS},
    "duration_s": _values,
    "seed": _values,
    "out_dir": st.one_of(st.text(max_size=3), _values),
    "disturbances": st.one_of(
        st.lists(st.one_of(
            st.one_of(st.sampled_from(_KINDS), _values).flatmap(_entry),
            _values), max_size=3),
        _values),
    "bogus": _values,
})


class TestAnyConfig:
    @given(raw=_configs)
    @settings(max_examples=300, deadline=None)
    def test_rejected_with_problems_or_fully_built(self, raw):
        try:
            cfg = parse_config_dict(raw)
        except ConfigError as exc:
            assert exc.problems
            assert all(isinstance(p, str) for p in exc.problems)
            return
        cfg.scenario
        cfg.scenario.wm
        cfg.scenario.perception
        assert parse_config_dict(cfg.resolved).resolved == cfg.resolved


_BOUNDED = {key: spec for key, spec in config_table.config_keys()
            if spec.bound is not None}


def _edge_draws(spec):
    """``(value, passes)`` at each finite end of ``spec``'s bound: the end,
    which passes if and only if it is closed, the nearest value outside it,
    which fails, and the nearest inside, which passes."""
    lo, hi, ends = spec.bound
    for end, closed, inward in ((lo, ends[0] == "[", 1),
                                (hi, ends[1] == "]", -1)):
        if math.isinf(end):
            continue
        end = spec.kind(end)
        if spec.kind is int:
            yield from ((end, closed), (end - inward, False),
                        (end + inward, True))
        else:
            yield from ((end, closed),
                        (math.nextafter(end, -inward * math.inf), False),
                        (math.nextafter(end, inward * math.inf), True))


class TestBoundEdges:
    def test_every_bounded_key_is_drawn(self):
        # All but the two phases that take any finite value.
        assert len(_BOUNDED) == 50
        assert {key for key, spec in config_table.config_keys()
                if spec.bound is None} == {
            "perception.bias_phase_rad", "wm.delta_bias_rad"}

    @pytest.mark.parametrize("key", list(_BOUNDED))
    def test_edges_of_the_interval(self, key):
        spec = _BOUNDED[key]
        if spec.default is not MISSING:
            assert spec.problem(spec.default) is None
        draws = list(_edge_draws(spec))
        assert draws
        for value, passes in draws:
            problem = spec.problem(value)
            assert (problem is None) == passes, (value, problem)
            if problem is not None:
                assert problem.startswith(
                    f"must be {interval_text(spec.bound)}")

    def test_pulses_per_window_counts_in_64_bits(self):
        spec = _BOUNDED["qkd.pulses_per_window"]
        assert spec.problem(2**63 - 1) is None
        assert spec.problem(2**63) == (
            "must be within [1, 9223372036854775808), got "
            "9223372036854775808")


class TestConfigTable:
    def test_readme_holds_the_rendered_table(self):
        readme = config_table.README.read_text(encoding="utf-8")
        assert config_table.split(readme)[1] == config_table.render()

    @pytest.mark.parametrize("change", [
        {"default": 0.09}, {"bound": (0, 0.5, "()")}])
    def test_table_follows_a_changed_field(self, monkeypatch, change):
        table = config_table.render()
        keys = config_table._SECTIONS["qkd"]
        monkeypatch.setitem(keys, "qber_threshold",
                            keys["qber_threshold"]._replace(**change))
        assert config_table.render() != table


# One key at a time set to each of these: the float range's ends, its
# smallest subnormals, a value under the shortest wavelength, small
# integers and the ends of a 64-bit integer.
_LONE_VALUES = [sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324, 0,
                1e-300, 1e300, 1, 3, 2**63, -2**63]

# Every config key as a problem names it: an entry key as entry 0's.
_PROBLEM_KEYS = {"disturbances[0]." + key.split(".")[1]
                 if key.startswith("disturbances") else key
                 for key, _ in config_table.config_keys()}


def _lone_configs(key, value):
    """The configs that set ``key`` alone to ``value``: one entry of its
    kind for a ``disturbances[kind]`` key, one of each kind for a key
    every entry has."""
    if not key.startswith("disturbances"):
        section, _, name = key.rpartition(".")
        return [{section: {name: value}} if section else {name: value}]
    kind, name = key[len("disturbances["):].split("].")
    return [{"disturbances": [{"kind": k, "position_m": 1.0, name: value}]}
            for k in ([kind] if kind else _KINDS)]


class TestEveryKeyAlone:
    @pytest.mark.parametrize("key", [key for key, _ in
                                     config_table.config_keys()])
    def test_every_problem_names_a_config_key(self, key):
        for value in _LONE_VALUES:
            for raw in _lone_configs(key, value):
                try:
                    parse_config_dict(raw)
                except ConfigError as exc:
                    assert exc.problems
                    for problem in exc.problems:
                        assert problem.split(":")[0] in _PROBLEM_KEYS, \
                            (raw, problem)

    # omega0 = 2 pi c / wavelength_m overflowed below the bound and was
    # reported as packet.omega0, no config key.
    @pytest.mark.parametrize("wavelength", [1e-300, 5e-324, math.nextafter(
        MIN_WAVELENGTH_M, 0.0)])
    def test_a_wavelength_below_the_bound_names_its_key(self, wavelength):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"packet": {"wavelength_m": wavelength}})
        assert err.value.problems == [
            f"packet.wavelength_m: must be >= {MIN_WAVELENGTH_M}, "
            f"got {wavelength}"]

    def test_the_bound_is_the_shortest_finite_wavelength(self):
        assert omega_from_wavelength(MIN_WAVELENGTH_M) <= sys.float_info.max
        assert omega_from_wavelength(
            math.nextafter(MIN_WAVELENGTH_M, 0.0)) == math.inf
        packet = parse_config_dict({"packet": {
            "wavelength_m": MIN_WAVELENGTH_M}}).scenario.packet
        assert packet.omega0 == omega_from_wavelength(MIN_WAVELENGTH_M)


def _late_drive(**top_level):
    """Parse a drive that starts 5 s into a 1 s run, with ``top_level``
    keys besides."""
    return parse_config_dict({"duration_s": 1.0, **top_level, "disturbances": [
        {"kind": "pzt", "position_m": 1.0, "start_s": 5.0}]})


# (construction, the key its broken rule names, a field that breaks it,
# and a phrase of the rule's problem): each type's rules run only once its
# every field fits.
_RULE_AND_FIELD = {
    "peak-phase": (partial(PztParams, drive_amplitude_v=1.0,
                           frequency_hz=1.0, phase_gain_rad_per_v=2e9),
                   "phase_gain_rad_per_v", {"frequency_hz": -1.0},
                   "puts the peak phase above"),
    "delay-shift": (partial(PressureParams, mass_kg=1e6,
                            contact_area_m2=1e-30),
                    "contact_area_m2", {"stress_optic_per_pa": -1.0},
                    "puts the delay shift above"),
    "scan-range": (partial(PerceptionSettings, scan_min_hz=9e4),
                   "scan_min_hz", {"noise_sigma": -1.0},
                   "must be below scan_max_hz"),
    "event-start": (_late_drive, "disturbances[0].start_s", {"seed": -1},
                    "beyond the scenario duration"),
}


class TestRulesOnceFieldsFit:
    @pytest.mark.parametrize("build, rule_key, bad, text",
                             list(_RULE_AND_FIELD.values()),
                             ids=list(_RULE_AND_FIELD))
    def test_a_bad_field_hides_the_rule(self, build, rule_key, bad, text):
        with pytest.raises(ConfigError) as err:
            build()
        [problem] = err.value.problems
        assert problem.startswith(f"{rule_key}: ") and text in problem
        with pytest.raises(ConfigError) as err:
            build(**bad)
        [key] = bad
        [problem] = err.value.problems
        assert problem.startswith(f"{key}: must be ")

    def test_field_problems_label_each_misfit_in_spec_order(self):
        specs = field_specs(PressureParams)
        values = {**vars(PressureParams()), "contact_area_m2": 0.0,
                  "mass_kg": "x"}
        assert field_problems(specs, values, "wm.") == [
            "wm.mass_kg: expected a number, got 'x'",
            "wm.contact_area_m2: must be > 0 (unit violation), got 0.0"]
        assert field_problems(specs, vars(PressureParams())) == []
        # A required key with no value, as a config without it resolves.
        assert field_problems(field_specs(DisturbanceEvent), {
            "position_m": MISSING, "start_s": -1.0}, "disturbances[0].") == [
            "disturbances[0].position_m: required value missing",
            "disturbances[0].start_s: must be >= 0 (unit violation), "
            "got -1.0"]
