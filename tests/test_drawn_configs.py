"""Configs drawn at the passing edges of their keys' bounds, with one key
at an extreme, and configs drawn with every key inside its bound, end
every subcommand cleanly, ``localize`` reading the trace ``perceive``
writes of the CLI tests' impact reference: exit 0, or exit 2 or 3 with one
JSON diagnostic, no warning, and standard JSON in every JSON file written.
So does a ``sweep`` of a drawn key over values drawn from the extremes of
its type and the edges of its bound, passing or not, joined to
``--values`` or in a separate token."""
import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnacsim.cli import main

from test_cli import _IMPACT_CONFIG, strict_json
from test_config import _edge_draws

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import config_table  # noqa: E402

COMMANDS = ("qkd", "integrated", "perceive", "wm")

#: One entry of each kind, 5 km along the loop and 1 s into the default
#: 20 s run: the README drive, and the default impact and weight.
ENTRIES = {
    "pzt": {"kind": "pzt", "position_m": 5000.0, "start_s": 1.0,
            "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
            "phase_gain_rad_per_v": 0.5},
    "impact": {"kind": "impact", "position_m": 5000.0, "start_s": 1.0},
    "pressure": {"kind": "pressure", "position_m": 5000.0, "start_s": 1.0},
}

#: The entry kinds drawn, the drive twice: a drive's sweep is where the
#: causes that need one key at an extreme and a drive lie.
KINDS = ("pzt", "pzt", "impact", "pressure")

MAX = sys.float_info.max

#: Values far from any default: the ends of the type's range and, for
#: floats, the least positive one.  Zero is an edge of most bounds.
EXTREMES = {float: (MAX, -MAX, 5e-324), int: (2**63, -2**63)}


def _probes(spec) -> list:
    """The extremes of ``spec``'s type that its bound lets through, or its
    passing edges when it lets none through."""
    return ([v for v in EXTREMES[spec.kind] if spec.problem(v) is None]
            or _passing(spec))


def _passing(spec) -> list:
    """The edge draws of ``spec``'s bound (:func:`_edge_draws`) that pass
    it, or the default of a key without a bound."""
    if spec.bound is None:
        return [spec.default]
    return [v for v, passes in _edge_draws(spec) if passes]


def _keys_of(kind: str) -> list:
    """``(dotted key, FieldSpec)`` of the keys a config with one ``kind``
    entry can set."""
    return [(key, spec) for key, spec in config_table.config_keys()
            if not key.startswith("disturbances[")
            or key.startswith(("disturbances[]", f"disturbances[{kind}]"))]


def _inside(spec) -> st.SearchStrategy:
    """Values strictly inside ``spec``'s bound, or any finite value of a
    key without one."""
    lo, hi, _ = spec.bound or (-math.inf, math.inf, "()")
    if spec.kind is int:
        return st.integers(
            min_value=None if lo == -math.inf else math.floor(lo) + 1,
            max_value=None if hi == math.inf else math.ceil(hi) - 1)
    return st.floats(min_value=None if lo == -math.inf else lo,
                     max_value=None if hi == math.inf else hi,
                     exclude_min=lo != -math.inf, exclude_max=hi != math.inf,
                     allow_nan=False, allow_infinity=False)


def _chosen_keys(draw) -> tuple[str, list]:
    """A disturbance kind and one to three distinct keys a config with one
    entry of that kind can set."""
    kind = draw(st.sampled_from(KINDS))
    return kind, draw(st.lists(st.sampled_from(_keys_of(kind)), min_size=1,
                               max_size=3, unique_by=lambda item: item[0]))


@st.composite
def drawn_configs(draw) -> dict:
    """A config of one to three numeric keys with one disturbance entry:
    the first key at an extreme of its type, the others at edges of their
    bounds that pass.  A failing edge meets only its own bound, which
    ``test_config.TestBoundEdges`` checks key by key, so the one value a
    draw takes off the passing edges is an extreme."""
    kind, chosen = _chosen_keys(draw)
    return _config(kind, [
        (key, draw(st.sampled_from(_passing(spec) if i else _probes(spec))))
        for i, (key, spec) in enumerate(chosen)])


@st.composite
def inside_configs(draw) -> dict:
    """A config of one to three numeric keys with one disturbance entry,
    each key's value drawn inside its bound (:func:`_inside`)."""
    kind, chosen = _chosen_keys(draw)
    return _config(kind, [(key, draw(_inside(spec)))
                          for key, spec in chosen])


def _config(kind: str, values: list) -> dict:
    """The config of one ``kind`` entry and the ``(dotted key, value)``
    pairs ``values``."""
    config = {"disturbances": [dict(ENTRIES[kind])]}
    for key, value in values:
        section, _, name = key.rpartition(".")
        if not section:
            config[name] = value
        elif section.startswith("disturbances["):
            config["disturbances"][0][name] = value
        else:
            config.setdefault(section, {})[name] = value
    return config


#: The keys ``sweep`` takes: every numeric key outside the disturbances.
SWEEP_KEYS = [(key, spec) for key, spec in config_table.config_keys()
              if not key.startswith("disturbances[")]


@st.composite
def drawn_sweeps(draw) -> tuple[str, list]:
    """A swept key and one to three values, each an extreme of the key's
    type or an edge draw of its bound (:func:`_edge_draws`), passing or
    not."""
    key, spec = draw(st.sampled_from(SWEEP_KEYS))
    edges = [v for v, _ in _edge_draws(spec)] if spec.bound else []
    values = draw(st.lists(st.sampled_from([*EXTREMES[spec.kind], *edges]),
                           min_size=1, max_size=3))
    return key, values


def assert_ends_cleanly(argv: list, out_dir: Path) -> None:
    """Run ``argv`` in-process into ``out_dir``: exit 0 with nothing on
    stderr, or exit 2 or 3 with one JSON diagnostic, no warning, and
    standard JSON in every JSON file written."""
    command = argv[0]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*argv, "--out-dir", str(out_dir), "--quiet"])
    assert code in (0, 2, 3), (command, code)
    assert [str(w.message) for w in caught] == [], command
    if code == 0:
        assert stderr.getvalue() == "", command
    else:
        [line] = stderr.getvalue().splitlines()
        assert "error" in strict_json(line), command
    for path in out_dir.glob("*.json"):
        strict_json(path.read_text())
    for path in out_dir.glob("*.jsonl"):
        for line in path.read_text().splitlines():
            strict_json(line)


@pytest.fixture(scope="module")
def impact_trace(tmp_path_factory) -> str:
    """The path of the trace ``perceive`` writes of the CLI tests' impact
    reference."""
    work = tmp_path_factory.mktemp("impact-trace")
    config = work / "impact.json"
    config.write_text(json.dumps(_IMPACT_CONFIG))
    assert main(["perceive", "--config", str(config), "--out-dir",
                 str(work), "--quiet"]) == 0
    return str(work / "trace.txt")


def _pzt_with(**sections) -> dict:
    """A config of the README drive and ``sections``."""
    return {"disturbances": [ENTRIES["pzt"]], **sections}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=drawn_configs())
# Draws that once warned or raised, each now refused where it enters.
@example(config=_pzt_with(wm={"input_power_w": MAX}))
@example(config=_pzt_with(wm={"noise_sigma": MAX}))
@example(config=_pzt_with(wm={"pressed_length_m": 5e-324}))
@example(config=_pzt_with(channel={"refractive_index": MAX}))
@example(config=_pzt_with(channel={"intrinsic_delay_s": MAX}))
@example(config=_pzt_with(qkd={"window_s": MAX}))
def test_drawn_config_ends_cleanly(impact_trace, config):
    assert_every_command_ends_cleanly(config, impact_trace)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=inside_configs())
def test_config_inside_the_bounds_ends_cleanly(impact_trace, config):
    assert_every_command_ends_cleanly(config, impact_trace)


def assert_every_command_ends_cleanly(config: dict, impact_trace: str):
    """:func:`assert_ends_cleanly` for each of ``COMMANDS`` and for
    ``localize`` of ``impact_trace``, all on ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        for command in COMMANDS:
            assert_ends_cleanly([command, "--config", str(config_path)],
                                Path(tmp) / command)
        assert_ends_cleanly(["localize", "--config", str(config_path),
                             "--trace", impact_trace],
                            Path(tmp) / "localize")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep=drawn_sweeps(), joined=st.booleans())
@example(sweep=("channel.loss_db", [-MAX]), joined=True)
@example(sweep=("qkd.pulses_per_window", [2**63, 1]), joined=True)
# argparse reads a separate token with a leading minus, such as
# ``-1.7976931348623157e+308``, as an option: the run exits 2 with one JSON
# diagnostic, as for any command line it refuses.
@example(sweep=("channel.loss_db", [-MAX]), joined=False)
def test_drawn_sweep_ends_cleanly(sweep, joined):
    key, values = sweep
    listed = ",".join(map(repr, values))
    with tempfile.TemporaryDirectory() as tmp:
        assert_ends_cleanly(
            ["sweep", "--key", key,
             *(["--values=" + listed] if joined else ["--values", listed])],
            Path(tmp) / "sweep")
