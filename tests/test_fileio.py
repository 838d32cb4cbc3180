import json
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sagnacsim.errors import ConfigError
from sagnacsim.fileio import (read_trace, write_columns, write_event_log,
                              write_report, write_trace)
from sagnacsim.perception import InterferenceTrace

from oracles import (per_line_read_trace, per_sample_write_trace,
                     two_column_write_trace)


class TestTraceFormat:
    def make_trace(self):
        rng = np.random.default_rng(3)
        samples = 5.645e-3 * (1.0 + 0.0019 * rng.standard_normal(257))
        return InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                                 input_power_w=5.645e-3, noise_sigma=0.0019)

    def test_round_trip_is_exact(self, tmp_path):
        trace = self.make_trace()
        path = write_trace(tmp_path / "trace.txt", trace)
        back = read_trace(path)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.input_power_w == trace.input_power_w
        assert back.noise_sigma == trace.noise_sigma
        assert np.array_equal(back.samples, trace.samples)

    def test_rewrite_is_byte_identical(self, tmp_path):
        trace = self.make_trace()
        first = write_trace(tmp_path / "a.txt", trace)
        second = write_trace(tmp_path / "b.txt", read_trace(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_carries_metadata(self, tmp_path):
        path = write_trace(tmp_path / "trace.txt", self.make_trace())
        header = path.read_text().splitlines()[0]
        assert header.startswith("#")
        assert "sample_rate_hz=" in header and "i0_w=" in header

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0\n")
        with pytest.raises(ConfigError):
            read_trace(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_trace("/nonexistent/trace.txt")


# Finite float64 values of every magnitude, and the points where repr
# changes notation (1e16, 1e-5) or reaches the subnormals.
_EDGE_SAMPLES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                 2.225073858507201e-308, 1e16, 9999999999999998.0, 1e-5,
                 1.0000000000000001e-05, 9.999999999999999e-06, 1e-4,
                 1.7976931348623157e308, -1.0, 0.1, 5.645e-3]


# Every line break str.splitlines honours: a text-mode file, which numpy's
# loadtxt reads from a path, ends a line only at the first three.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029"]


class TestWholeColumnTraceText:
    """write_trace and read_trace against their per-sample and per-line
    forms in tests/oracles.py."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                            | st.sampled_from(_EDGE_SAMPLES),
                            min_size=1, max_size=40),
           rate=st.floats(min_value=1e-3, max_value=1e12)
           | st.sampled_from([200e3, 3.0, 7e4, 1.0, 0.1, 44100.0]),
           power=st.floats(min_value=1e-300, max_value=1e300),
           noise=st.floats(min_value=0.0, max_value=1e3))
    @example(samples=_EDGE_SAMPLES, rate=200e3, power=5.645e-3, noise=0.0)
    def test_same_bytes_as_per_sample_writer_and_exact_round_trip(
            self, tmp_path, samples, rate, power, noise):
        trace = InterferenceTrace(sample_rate_hz=rate, samples=samples,
                                  input_power_w=power, noise_sigma=noise)
        written = write_trace(tmp_path / "new.txt", trace).read_bytes()
        assert written == per_sample_write_trace(
            tmp_path / "oracle.txt", trace).read_bytes()
        back = read_trace(tmp_path / "new.txt")
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.sample_rate_hz == rate
        assert back.input_power_w == power
        assert back.noise_sigma == noise

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                            | st.sampled_from(_EDGE_SAMPLES),
                            min_size=1, max_size=40),
           rate=st.floats(min_value=1e-3, max_value=1e12)
           | st.sampled_from([200e3, 3.0, 7e4, 1.0, 0.1, 44100.0]))
    @example(samples=_EDGE_SAMPLES, rate=200e3)
    def test_two_column_files_read_back_exactly(self, tmp_path, samples,
                                                rate):
        # Format decision: files written with the earlier time column read
        # as the same trace, through the one reader.
        trace = InterferenceTrace(sample_rate_hz=rate, samples=samples,
                                  input_power_w=5.645e-3, noise_sigma=0.0019)
        back = read_trace(two_column_write_trace(tmp_path / "old.txt", trace))
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.sample_rate_hz == rate
        assert back.input_power_w == trace.input_power_w
        assert back.noise_sigma == trace.noise_sigma

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(
        st.sampled_from(["0", "1.5", "-2e-3", "nan", "inf", "-0.0", "abc",
                         "#", "1e400", ".5", "+7", "0x1", "1,5", ""]),
        max_size=4), max_size=6),
        sep=st.sampled_from([" ", "\t", "  ", " \t "]),
        ends=st.lists(st.sampled_from(_LINE_BREAKS), min_size=1, max_size=3),
        final=st.booleans())
    @example(rows=[], sep=" ", ends=["\n"], final=False)
    @example(rows=[["1.5"], ["2"]], sep=" ", ends=["\v"], final=True)
    def test_accepts_and_rejects_as_the_per_line_reader(self, tmp_path,
                                                        rows, sep, ends,
                                                        final):
        # Line k ends with ends[k % len(ends)], the last one only if final:
        # rows=[] is a file of the header alone.
        lines = ["# sample_rate_hz=1000.0 i0_w=1.0",
                 *(sep.join(row) for row in rows)]
        text = "".join(line + ends[k % len(ends)]
                       for k, line in enumerate(lines))
        if not final:
            text = text[:-len(ends[(len(lines) - 1) % len(ends)])]
        path = tmp_path / "trace.txt"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = per_line_read_trace(path)
            except ConfigError:
                with pytest.raises(ConfigError,
                                   match=re.escape(str(path))) as err:
                    read_trace(path)
                # The file line of the first sample line float() cannot
                # read, as str.splitlines numbers them.
                bad = next((number for number, line in enumerate(
                    text.splitlines()[1:], start=2) if _unreadable(line)),
                           None)
                [problem] = err.value.problems
                assert (f"{path}: line {bad}: " in problem) == \
                    (bad is not None)
                return
            got = read_trace(path)
        assert got.samples.tobytes() == want.samples.tobytes()


def _unreadable(line: str) -> bool:
    """Whether a non-blank sample line has a last field float() cannot
    read."""
    fields = line.split()
    if not fields:
        return False
    try:
        float(fields[-1])
    except ValueError:
        return True
    return False


_HEADER = "# sample_rate_hz=1000.0 i0_w=1.0\n"
_NO_SAMPLES = "trace has no samples"

# Trace files and the samples they read as, or for a rejected file the text
# its problem must hold besides the file name.  Format decisions: the sample
# is the last field of a line, so one-column bodies (what write_trace
# writes), two-column ones (with the earlier time column) and a mix of the
# two read alike, and a third column is read as the sample.
_TRACE_FILES = {
    "empty": (_HEADER, _NO_SAMPLES),
    "blank-only": (_HEADER + "\n  \n\t\n", _NO_SAMPLES),
    "one-column": (_HEADER + "1.0\n2.0\n", [1.0, 2.0]),
    "mixed-one-two-column": (_HEADER + "0 1.0\n0.001\n", [1.0, 0.001]),
    "non-numeric": (_HEADER + "0 1.0\n0.001 abc\n",
                    "line 3: value 'abc' cannot be read as a float"),
    "non-numeric-after-blank": (
        _HEADER + "0 1.0\n\n0.001 abc\n",
        "line 4: value 'abc' cannot be read as a float"),
    "hash-line": (_HEADER + "0 1.0\n# comment\n0.002 2.0\n",
                  "line 3: value 'comment' cannot be read as a float"),
    "nan": (_HEADER + "0 1.0\n0.001 nan\n", ""),
    "inf": (_HEADER + "0 1.0\n0.001 -inf\n", ""),
    "three-columns": (_HEADER + "0 1.0 7\n0.001 2.0 8\n", [7.0, 8.0]),
    "crlf": ("# sample_rate_hz=1000.0 i0_w=1.0\r\n0 1.0\r\n0.001 2.0\r\n",
             [1.0, 2.0]),
    "blank-lines-between": (_HEADER + "0 1.0\n\n   \n0.001 2.0\n\n",
                            [1.0, 2.0]),
    "header-only": (_HEADER.rstrip("\n"), _NO_SAMPLES),
    "no-final-break": (_HEADER + "0 1.0\n0.001 2.0", [1.0, 2.0]),
    "cr": ("# sample_rate_hz=1000.0 i0_w=1.0\r0 1.0\r0.001 2.0\r",
           [1.0, 2.0]),
    # Breaks only str.splitlines honours: each ends a line, not a field.
    "vertical-tab": (_HEADER + "0 1.0\v0.001 2.0\n", [1.0, 2.0]),
    "next-line": (_HEADER + "1.0\x852.0\u20283.0\u20294.0",
                  [1.0, 2.0, 3.0, 4.0]),
    "separators": (_HEADER + "1.0\x1c2.0\x1d3.0\x1e4.0\f",
                   [1.0, 2.0, 3.0, 4.0]),
    "bad-after-form-feed": (_HEADER + "1.0\f2.0 x\n",
                            "line 3: value 'x' cannot be read as a float"),
}


class TestReadTraceInputs:
    @pytest.mark.parametrize("text, want", list(_TRACE_FILES.values()),
                             ids=list(_TRACE_FILES))
    def test_accepted_or_rejected_as_before_without_warnings(
            self, tmp_path, text, want):
        path = tmp_path / "trace.txt"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, str):
                with pytest.raises(ConfigError) as err:
                    read_trace(path)
                with pytest.raises(ConfigError):
                    per_line_read_trace(path)
                [problem] = err.value.problems
                assert problem.startswith(f"{path}: ") and want in problem
            else:
                assert read_trace(path).samples.tolist() == want
                assert per_line_read_trace(path).samples.tolist() == want

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(),
                        reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        # A pipe, as a shell's process substitution passes it, reads as
        # empty a second time.
        read_end, write_end = os.pipe()
        os.write(write_end, (_HEADER + "0 1.0\n0.001 2.0\n").encode())
        os.close(write_end)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = read_trace(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert trace.samples.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("value, as_float", [("1_0", 10.0),
                                                 ("\u0661", 1.0)])
    def test_only_ascii_float_literals(self, tmp_path, value, as_float):
        # float() also reads digit-group underscores and non-ASCII digits,
        # which the per-line reader accepted; the trace format is what
        # write_trace writes, the repr of a float.
        path = tmp_path / "trace.txt"
        path.write_text(_HEADER + f"0 {value}\n", encoding="utf-8")
        assert per_line_read_trace(path).samples.tolist() == [as_float]
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_trace(path)


class TestColumns:
    def test_attosecond_values_survive(self, tmp_path):
        delays = [9.813439002524874e-18, 1.9626878005049748e-17]
        path = write_columns(tmp_path / "cols.csv", ["mass_kg", "delay_s"],
                             [[0.1, 0.2], delays])
        lines = path.read_text().splitlines()
        assert lines[0] == "mass_kg,delay_s"
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert parsed == delays

    def test_none_becomes_nan(self, tmp_path):
        path = write_columns(tmp_path / "cols.csv", ["a"], [[None, 1.0]])
        rows = path.read_text().splitlines()[1:]
        assert rows[0] == "nan"

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "cols.csv", ["a", "b"],
                          [[1.0], [1.0, 2.0]])


class TestReports:
    def test_deterministic_bytes(self, tmp_path):
        report = {"b": 1, "a": {"z": 2.0, "y": [1, 2, 3]}}
        p1 = write_report(tmp_path / "r1.json", report)
        p2 = write_report(tmp_path / "r2.json",
                          {"a": {"y": [1, 2, 3], "z": 2.0}, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_event_log_lines(self, tmp_path):
        entries = [{"time_s": 0.0, "mode": "key_distribution",
                    "event": "qber_window", "payload": {"qber": 0.04}},
                   {"time_s": 1.0, "mode": "key_distribution",
                    "event": "breach_detected", "payload": {}}]
        path = write_event_log(tmp_path / "log.jsonl", entries)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        import json
        assert json.loads(lines[0])["event"] == "qber_window"


# Text with every character JSON escapes or structures, and non-ASCII.
_JSON_TEXT = st.text(st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7fa\u00e9\u4e2d'
                                     '\U0001f600') | st.characters(),
                     max_size=6)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                 | st.sampled_from([2**63, -2**63])
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, 1.7e308]) | _JSON_TEXT)


def _json_trees(leaves):
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, children, max_size=4)), max_leaves=12)


class TestJsonBytes:
    """The writers keep json.dumps's bytes, with the C encoder and
    without it."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=st.dictionaries(_JSON_TEXT, _json_trees(_JSON_SCALARS),
                                  max_size=5)
           | st.lists(_json_trees(_JSON_SCALARS), max_size=5),
           entries=st.lists(st.dictionaries(
               _JSON_TEXT, _json_trees(_JSON_SCALARS), max_size=4),
               max_size=4))
    def test_same_bytes_as_json_dumps(self, tmp_path, report, entries):
        want_report = json.dumps(report, indent=2, sort_keys=True) + "\n"
        want_log = "".join(json.dumps(entry, sort_keys=True) + "\n"
                           for entry in entries)
        for c_make_encoder in (json.encoder.c_make_encoder, None):
            with mock.patch.object(json.encoder, "c_make_encoder",
                                   c_make_encoder):
                assert write_report(tmp_path / "report.json",
                                    report).read_bytes() == \
                    want_report.encode()
                assert write_event_log(tmp_path / "log.jsonl",
                                       entries).read_bytes() == \
                    want_log.encode()


_WRITERS = {
    "trace": lambda path: write_trace(path, InterferenceTrace(
        sample_rate_hz=1e3, samples=np.array([1.0, 2.0]),
        input_power_w=1e-3, noise_sigma=0.0)),
    "columns": lambda path: write_columns(path, ["a"], [[1.0]]),
    "report": lambda path: write_report(path, {"a": 1}),
    "event_log": lambda path: write_event_log(path, [{"a": 1}]),
}


class TestReplacedOutputs:
    """Each writer replaces the file at its path: a link there becomes a
    new file, and what it linked to keeps its bytes."""

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_link_is_replaced_not_written_through(self, tmp_path, writer,
                                                  link):
        shared = tmp_path / "shared.txt"
        shared.write_text("kept\n")
        path = tmp_path / "out"
        if link == "symlink":
            path.symlink_to(shared)
        else:
            path.hardlink_to(shared)
        assert _WRITERS[writer](path) == path
        assert not path.is_symlink()
        assert path.stat().st_nlink == 1
        assert shared.read_text() == "kept\n"
        assert path.read_text() != "kept\n"

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_directory_at_the_path_is_named(self, tmp_path, writer):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            _WRITERS[writer](path)
        assert path.is_dir()
