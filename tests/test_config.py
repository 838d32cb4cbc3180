import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim.config import parse_config, parse_config_dict
from sagnacsim.controller import MAX_KEY_WINDOWS
from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams,
                                   PressureParams, PztParams)
from sagnacsim.errors import ConfigError
from sagnacsim.perception import MAX_TRACE_SAMPLES


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
        second = parse_config_dict(first.echo())
        assert first.resolved == second.resolved

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"duration_s": 3.0, "seed": 5}))
        cfg = parse_config(path)
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(cfg.echo()))
        assert parse_config(echo_path).resolved == cfg.resolved

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)


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
# default 200 kHz, and WM draws per reading and over a run's polls.
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
    # 32 and 33 polls of 2**20 samples, one after each 1 s key window.
    "wm-poll-samples": ("wm.samples_per_reading", *[
        {"duration_s": float(n), "wm": {"poll_interval_s": 1.0,
                                        "samples_per_reading": 2**20}}
        for n in (32, 33)]),
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
        assert parse_config_dict(cfg.echo()).resolved == cfg.resolved
