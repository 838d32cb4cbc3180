import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sagnacsim.errors import ConfigError
from sagnacsim.fileio import (read_trace, write_columns, write_event_log,
                              write_report, write_trace)
from sagnacsim.perception import InterferenceTrace

from oracles import per_line_read_trace, per_sample_write_trace


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
    @given(rows=st.lists(st.lists(
        st.sampled_from(["0", "1.5", "-2e-3", "nan", "inf", "-0.0", "abc",
                         "#", "1e400", ".5", "+7", "0x1", "1,5", ""]),
        max_size=4), max_size=6),
        sep=st.sampled_from([" ", "\t", "  ", " \t "]),
        end=st.sampled_from(["\n", "\r\n"]))
    def test_accepts_and_rejects_as_the_per_line_reader(self, tmp_path,
                                                        rows, sep, end):
        path = tmp_path / "trace.txt"
        path.write_bytes(end.join(["# sample_rate_hz=1000.0 i0_w=1.0",
                                   *(sep.join(row) for row in rows),
                                   ""]).encode())
        try:
            want = per_line_read_trace(path)
        except ConfigError:
            with pytest.raises(ConfigError, match=re.escape(str(path))):
                read_trace(path)
            return
        got = read_trace(path)
        assert got.samples.tobytes() == want.samples.tobytes()


_HEADER = "# sample_rate_hz=1000.0 i0_w=1.0\n"
_NO_SAMPLES = "trace has no samples"

# Trace files and the samples they read as, or for a rejected file the text
# its problem must hold besides the file name.
_TRACE_FILES = {
    "empty": (_HEADER, _NO_SAMPLES),
    "blank-only": (_HEADER + "\n  \n\t\n", _NO_SAMPLES),
    "one-column": (_HEADER + "0 1.0\n0.001\n", ""),
    "non-numeric": (_HEADER + "0 1.0\n0.001 abc\n", ""),
    "hash-line": (_HEADER + "0 1.0\n# comment\n0.002 2.0\n", ""),
    "nan": (_HEADER + "0 1.0\n0.001 nan\n", ""),
    "inf": (_HEADER + "0 1.0\n0.001 -inf\n", ""),
    "three-columns": (_HEADER + "0 1.0 7\n0.001 2.0 8\n", [1.0, 2.0]),
    "crlf": ("# sample_rate_hz=1000.0 i0_w=1.0\r\n0 1.0\r\n0.001 2.0\r\n",
             [1.0, 2.0]),
    "blank-lines-between": (_HEADER + "0 1.0\n\n   \n0.001 2.0\n\n",
                            [1.0, 2.0]),
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
