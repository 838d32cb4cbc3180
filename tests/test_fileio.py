import json
import os
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sagnacsim import fileio
from sagnacsim.errors import ConfigError
from sagnacsim.fileio import (read_trace, write_columns, write_event_log,
                              write_report, write_trace)
from sagnacsim.perception import MAX_SAMPLE_W, InterferenceTrace

from oracles import (hex_line_write_trace, hex_row, per_line_read_trace,
                     per_sample_write_trace, read_literal, repr_write_trace,
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

    def test_working_set_bounded_on_a_long_trace(self, tmp_path):
        # The samples are formatted in blocks of 2**16, a few MB of arrays
        # and text: this write peaks at 4.1 MiB of traced memory; formatted
        # whole, 300 000 samples peak at 18.6 MiB.
        samples = 5.645e-3 * (1.0 + 0.0019 * np.random.default_rng(
            5).standard_normal(300_000))
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                                  input_power_w=5.645e-3, noise_sigma=0.0019)
        tracemalloc.start()
        try:
            write_trace(tmp_path / "trace.txt", trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
        assert np.array_equal(read_trace(tmp_path / "trace.txt").samples,
                              samples)

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

    def test_written_trace_reads_on_the_hex_path(self, tmp_path):
        # write_trace's rows read by array operations, without the
        # per-field general path: _literal reads the three header values
        # and no sample.
        path = write_trace(tmp_path / "trace.txt", self.make_trace())
        with mock.patch.object(fileio, "_literal",
                               wraps=fileio._literal) as literal:
            back = read_trace(path)
        assert np.array_equal(back.samples, self.make_trace().samples)
        assert literal.call_count == 3

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0\n")
        with pytest.raises(ConfigError):
            read_trace(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_trace("/nonexistent/trace.txt")


# Float64 values of every magnitude a trace may hold, up to MAX_SAMPLE_W
# and its neighbour, and the points where repr changes notation (1e-5) or
# reaches the subnormals.
_EDGE_SAMPLES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                 2.225073858507201e-308, MAX_SAMPLE_W,
                 float(np.nextafter(MAX_SAMPLE_W, 0.0)), 1e-5,
                 1.0000000000000001e-05, 9.999999999999999e-06, 1e-4,
                 -MAX_SAMPLE_W, -1.0, 0.1, 5.645e-3]

#: Every sample a trace may hold.
_SAMPLES = st.floats(-MAX_SAMPLE_W, MAX_SAMPLE_W)


# Every line break str.splitlines honours: a text-mode file, which numpy's
# loadtxt reads from a path, ends a line only at the first three.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029"]


class TestWholeColumnTraceText:
    """write_trace and read_trace against their per-sample and per-line
    forms in tests/oracles.py."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=st.lists(_SAMPLES | st.sampled_from(_EDGE_SAMPLES),
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
        want = per_sample_write_trace(tmp_path / "oracle.txt",
                                      trace).read_bytes()
        # Blocks of 7 samples put up to 5 block edges in the 40 samples.
        with mock.patch.object(fileio, "_TRACE_BLOCK", 7):
            assert write_trace(tmp_path / "new.txt",
                               trace).read_bytes() == want
        written = write_trace(tmp_path / "new.txt", trace).read_bytes()
        assert written == want
        back = read_trace(tmp_path / "new.txt")
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.sample_rate_hz == rate
        assert back.input_power_w == power
        assert back.noise_sigma == noise

    def test_same_bytes_as_per_sample_writer_across_a_block_edge(
            self, tmp_path):
        # 2**16 + 3 samples at the real block size: exponents of 1 to 4
        # digits, +0 to -1022, of either sign, the zeros, the smallest and
        # largest subnormal and MAX_SAMPLE_W, at the start, just before the
        # block edge and across it to the end, among samples of every
        # magnitude.
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                 -2.225073858507201e-308, MAX_SAMPLE_W, -MAX_SAMPLE_W]
        for exponent in (0, 5, 37, -5, -50, -300, -1000, -1022):
            edges += [1.25 * 2.0**exponent, -(2.0**exponent)]
        rng = np.random.default_rng(7)
        samples = (rng.uniform(-1.0, 1.0, 2**16 + 3)
                   * 2.0**rng.integers(-1074, 38, 2**16 + 3))
        block = fileio._TRACE_BLOCK
        for at in (0, block - len(edges), samples.size - len(edges)):
            samples[at:at + len(edges)] = edges
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                                  input_power_w=5.645e-3, noise_sigma=0.0019)
        assert block < samples.size < 2 * block
        want = per_sample_write_trace(tmp_path / "oracle.txt",
                                      trace).read_bytes()
        path = write_trace(tmp_path / "new.txt", trace)
        assert path.read_bytes() == want
        assert read_trace(path).samples.tobytes() == samples.tobytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=st.lists(_SAMPLES | st.sampled_from(_EDGE_SAMPLES),
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
    @given(samples=st.lists(_SAMPLES | st.sampled_from(_EDGE_SAMPLES),
                            min_size=1, max_size=40))
    @example(samples=_EDGE_SAMPLES)
    def test_repr_files_read_back_exactly(self, tmp_path, samples):
        # Format decision: files of one repr a line, which write_trace
        # wrote before it wrote hex literals, read as the same trace.
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                                  input_power_w=5.645e-3, noise_sigma=0.0019)
        back = read_trace(repr_write_trace(tmp_path / "old.txt", trace))
        assert back.samples.tobytes() == trace.samples.tobytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(
        st.sampled_from(["0", "1.5", "-2e-3", "nan", "inf", "-0.0", "abc",
                         "#", "1e400", ".5", "+7", "0x1", "1,5", "",
                         "0x1.8p+1", "-0x0.0p+0", "+0X1P-3", "0x1p1024",
                         "0x1.g", "0x", "0x1_0", "1e5"]),
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
    """Whether a non-blank sample line has a last field the per-line
    reader's read_literal cannot read."""
    fields = line.split()
    if not fields:
        return False
    try:
        read_literal(fields[-1])
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
    # A header holds each of its three keys at most once and no other.
    "repeated-header-key": (
        "# sample_rate_hz=200000 sample_rate_hz=100000 i0_w=0.005\n1.0\n",
        "repeated header key in 'sample_rate_hz=100000'"),
    "unknown-header-key": (
        "# sample_rate_hz=1000.0 i0_w=1.0 noise_sgma=0.1\n1.0\n",
        "unknown header key in 'noise_sgma=0.1'"),
    # Hex literals, as write_trace writes them, in every layout.
    "hex": (_HEADER + "0x1.8p+1\n-0x1p-3\n", [3.0, -0.125]),
    "hex-no-final-break": (_HEADER + "0x1.8p+1\n-0x1p-3", [3.0, -0.125]),
    "hex-blank-lines": (_HEADER + "0x1p0\n\n 0x1p1 \n", [1.0, 2.0]),
    "hex-crlf": ("# sample_rate_hz=1000.0 i0_w=1.0\r\n0x1p0\r\n0x1p1\r\n",
                 [1.0, 2.0]),
    "hex-vertical-tab": (_HEADER + "0x1p0\v0x1p1\n", [1.0, 2.0]),
    "hex-two-column": (_HEADER + "0 0x1p0\n0.001 0x1p1\n", [1.0, 2.0]),
    "hex-signs-and-case": (_HEADER + "+0x1p0\n0X1P1\n-0X1p2\n",
                           [1.0, 2.0, -4.0]),
    "hex-overflow": (_HEADER + "0x1p0\n0x1p1024\n", "line 3: value "
                     "'0x1p1024' cannot be read as a float"),
    "hex-malformed": (_HEADER + "0x1p0\n0x1.g\n",
                      "line 3: value '0x1.g' cannot be read as a float"),
    "hex-malformed-after-form-feed": (
        _HEADER + "0x1p0\f0x1p1 0x\n",
        "line 3: value '0x' cannot be read as a float"),
    # A header value is read as a sample value is: float() reads the first
    # two and refuses the third, which reads as 200000.0 Hz.
    "header-underscore": ("# sample_rate_hz=2_00000 i0_w=1.0\n0x1p0\n",
                          "header token 'sample_rate_hz=2_00000'"),
    "header-non-ascii-digit": (
        "# sample_rate_hz=1000.0 i0_w=\u0661e-3\n0x1p0\n",
        "header token 'i0_w=\u0661e-3'"),
    "header-hex": ("# sample_rate_hz=0x1.86ap+17 i0_w=1.0\n0x1p0\n", [1.0]),
    "hex-trailing-blank-line": (_HEADER + "0x1p0\n0x1p1\n\n", [1.0, 2.0]),
    # Rows of 25 bytes, which _hex_rows reads when every row is one it can
    # read exactly, and hands back to the line loop otherwise.
    "rows": (_HEADER + "+0x1.8000000000000p+0001\n-0x1.0000000000000p-0003\n",
             [3.0, -0.125]),
    "rows-upper-case-digits": (_HEADER + "+0x1.A000000000000p+0001\n",
                               [3.25]),
    "rows-negative": (_HEADER + "-0x1.8000000000000p+0001\n", [-3.0]),
    # A 24-byte line without a sign: the loop reads it.
    "rows-exponent-leading-zeros": (_HEADER + "0x1.0000000000000p+0001\n",
                                    [2.0]),
    "rows-upper-case-p": (_HEADER + "+0x1.8000000000000P+0001\n", [3.0]),
    "rows-upper-case-x": (_HEADER + "+0X1.8000000000000p+0001\n", [3.0]),
    "rows-zero": (_HEADER + "-0x0.0000000000000p-1022\n", [-0.0]),
    "rows-zero-as-float-hex": (_HEADER + "+0x0.0000000000000p+0000\n",
                               [0.0]),
    "rows-subnormal": (_HEADER + "+0x0.0000000000001p-1022\n", [5e-324]),
    "rows-lead-one-below-the-normals": (
        _HEADER + "+0x1.0000000000000p-1023\n", [2.0**-1023]),
    "rows-lead-zero-above-the-subnormals": (
        _HEADER + "+0x0.8000000000000p+0002\n", [2.0]),
    "rows-exponent-minus-zero": (_HEADER + "+0x1.8000000000000p-0000\n",
                                 [1.5]),
    "rows-no-sign": (_HEADER + "0x1.8000000000000p+00001\n", [3.0]),
    "rows-past-the-range": (_HEADER + "+0x1.0000000000000p+1024\n",
                            "line 2: value '+0x1.0000000000000p+1024' "
                            "cannot be read as a float"),
    "rows-space-in-digits": (_HEADER + "+0x1.000000000000 p+0001\n",
                             "line 2: value 'p+0001' cannot be read"),
    "rows-two-spaces-in-digits": (_HEADER + "+0x1.00000000000  p+0001\n",
                                  "line 2: value 'p+0001' cannot be read"),
    # bytes.fromhex skips white space between digit pairs.
    "rows-spaces-between-digit-pairs": (
        _HEADER + "+0x1.0000000000  0p+0001\n",
        "line 2: value '0p+0001' cannot be read"),
    "rows-exponent-not-a-digit": (_HEADER + "+0x1.8000000000000p+000:\n",
                                  "line 2: value '+0x1.8000000000000p+000:' "
                                  "cannot be read as a float"),
    "rows-no-final-break": (_HEADER + "+0x1.8000000000000p+0001\n"
                            "+0x1.0000000000000p-0003", [3.0, 0.125]),
    "rows-crlf-header": ("# sample_rate_hz=1000.0 i0_w=1.0\r\n"
                         "+0x1.8000000000000p+0001\n", [3.0]),
    # A row of 25 bytes ending in "\r\n" and one of 24 bytes: their 50
    # bytes divide by 25.
    "rows-crlf": (_HEADER + "+0x1.8000000000000p+0001\r\n"
                  "0x1.8000000000000p+0001\n", [3.0, 3.0]),
    # Earlier traces: float.hex lines of their own width, and decimal.
    "earlier-hex-lines": (_HEADER + "0x1.6c61522a6f3f5p-8\n-0x0.0p+0\n"
                          "0x0.0000000000001p-1022\n",
                          [0.00556, -0.0, 5e-324]),
    "earlier-decimal": (_HEADER + "0.00556\n-0.0\n5e-324\n",
                        [0.00556, -0.0, 5e-324]),
    # A break but "\n" in the header ends it, so the second key is a line
    # of the body.
    "rows-header-split-by-fs": ("# sample_rate_hz=1000.0\x1ci0_w=1.0\n"
                                "+0x1.8000000000000p+0001\n",
                                "header missing i0_w"),
    # Each break but "\n" inside a hex line and at its end: float.fromhex
    # strips the first three as white space, so only splitting at every
    # break str.splitlines honours reads these as the samples they hold.
    **{f"hex-{where}-{name}": (_HEADER + text.format(brk), [1.0, 2.0])
       for name, brk in (("cr", "\r"), ("vt", "\v"), ("ff", "\f"),
                         ("fs", "\x1c"), ("nel", "\x85"),
                         ("ls", "\u2028"))
       for where, text in (("inside", "0x1p0{0}0x1p1\n"),
                           ("line-end", "0x1p0{0}\n0x1p1{0}"))},
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
                got, oracle = read_trace(path), per_line_read_trace(path)
                assert got.samples.tolist() == want
                assert oracle.samples.tolist() == want
                assert (got.sample_rate_hz, got.input_power_w,
                        got.noise_sigma) == (oracle.sample_rate_hz,
                                             oracle.input_power_w,
                                             oracle.noise_sigma)

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

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tokens=st.lists(
        st.tuples(st.sampled_from([*fileio._HEADER_KEYS, "noise_sgma"]),
                  st.sampled_from(["1_0", "\u0661", "0x1p3", "nan", "-inf",
                                   "1e400", "-1", "", "="])).map("=".join)
        | st.sampled_from(["sample_rate_hz", "0x1p3"]), max_size=5))
    @example(tokens=["sample_rate_hz=0x1p3", "i0_w=0x1p3",
                     "sample_rate_hz=0x1p3"])
    @example(tokens=["sample_rate_hz=0x1p3", "i0_w=0x1p3"])
    def test_drawn_header_reads_or_is_refused(self, tmp_path, tokens):
        # Every header reads as a trace or is refused naming the file.
        path = tmp_path / "trace.txt"
        path.write_text("# " + " ".join(tokens) + "\n0x1p0\n",
                        encoding="utf-8")
        try:
            trace = read_trace(path)
        except ConfigError as err:
            [problem] = err.problems
            assert problem.startswith(f"{path}: ")
        else:
            assert trace.samples.tolist() == [1.0]


# Decimal literals whose text float.fromhex reads as another number.
_NOT_HEX = {"0.5": 0.3125, "1e5": 485.0, "10": 16.0, "-1.5": -1.3125}


# Biased exponents at the edges of each class of finite float64: zeros and
# subnormals (0), exponents of 4, 3, 2 and 1 digits of either sign, the
# samples on both sides of 2**-9 W (1013, 1014) and the largest (2046).
_BIASED_EDGES = [0, 1, 23, 24, 923, 924, 1013, 1014, 1022, 1023, 1024, 1032,
                 1033, 1122, 1123, 2022, 2023, 2046]

#: Bit patterns of every class of finite float64.
_FINITE_BITS = st.builds(
    lambda sign, biased, low: sign << 63 | biased << 52 | low,
    st.integers(0, 1),
    st.sampled_from(_BIASED_EDGES) | st.integers(0, 2046),
    st.sampled_from([0, 1, 2**51, 2**52 - 1]) | st.integers(0, 2**52 - 1))


def _floats(bits) -> np.ndarray:
    return np.array(bits, np.uint64).view(np.float64)


class TestHexRows:
    """``fileio._hex_lines`` writes every finite sample as one row of
    ``_ROW_BYTES`` that ``float.fromhex`` reads as the sample, and
    ``fileio._hex_rows`` reads a body of such rows to the values
    ``float.fromhex`` reads, or hands it back."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=st.lists(_FINITE_BITS, min_size=1, max_size=40))
    @example(bits=[0, 1 << 63, 1, 2**52 - 1, 2**52, 1014 << 52,
                   (1014 << 52) - 1, 2046 << 52 | 2**52 - 1])
    def test_every_finite_sample_is_one_row_read_by_array_operations(
            self, tmp_path, bits):
        samples = _floats(bits)
        body = bytes(fileio._hex_lines(samples))
        rows = body.split(b"\n")
        assert rows.pop() == b""
        assert [len(row) + 1 for row in rows] == \
            [fileio._ROW_BYTES] * samples.size
        assert [row.decode() for row in rows] == list(map(hex_row, samples))
        assert np.array([float.fromhex(row.decode()) for row in rows]
                        ).tobytes() == samples.tobytes()
        assert fileio._hex_rows(body).tobytes() == samples.tobytes()
        # The samples a trace may hold, through the file.
        kept = samples[np.abs(samples) <= MAX_SAMPLE_W]
        if kept.size:
            path = write_trace(tmp_path / "trace.txt", InterferenceTrace(
                sample_rate_hz=200e3, samples=kept, input_power_w=1.0,
                noise_sigma=0.0))
            with mock.patch.object(fileio, "_samples") as lines:
                back = read_trace(path)
            lines.assert_not_called()
            assert back.samples.tobytes() == kept.tobytes()

    @settings(max_examples=1000, derandomize=True)
    @given(bits=st.lists(_FINITE_BITS, min_size=1, max_size=6),
           edits=st.lists(st.tuples(
               st.integers(0, 5),
               # The sign, "0x", lead digit, ".", a digit, "p", the exponent
               # sign, exponent digits and the line break, or any byte.
               st.sampled_from([0, 1, 2, 3, 4, 9, 17, 18, 19, 20, 21, 22, 23,
                                24]) | st.integers(0, 24),
               st.sampled_from("0123456789abcdefABCDEFxXpP+-. g\n\r\x1c"
                               "\x85")), max_size=2))
    def test_reads_as_float_fromhex_or_hands_back(self, bits, edits):
        # write_trace's rows with a byte or two replaced.
        body = bytearray(fileio._hex_lines(_floats(bits)))
        for row, column, char in edits:
            body[row % len(bits) * fileio._ROW_BYTES + column] = ord(char)
        got = fileio._hex_rows(bytes(body))
        if got is not None:
            rows = bytes(body).decode().split("\n")
            assert rows.pop() == ""
            assert got.tobytes() == np.array(
                [float.fromhex(row) for row in rows]).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=st.lists(_SAMPLES | st.sampled_from(_EDGE_SAMPLES),
                            min_size=1, max_size=40),
           writer=st.sampled_from([hex_line_write_trace, repr_write_trace]))
    @example(samples=_EDGE_SAMPLES, writer=hex_line_write_trace)
    def test_earlier_traces_read_by_the_line_loop(self, tmp_path, samples,
                                                  writer):
        # Files of one float.hex literal a line, of its own width, as the
        # writer wrote them before rows, and of one repr a line.  Only a
        # body whose every line is a row, such as float.hex's literal of a
        # negative subnormal, is read as rows.
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                                  input_power_w=5.645e-3, noise_sigma=0.0019)
        path = writer(tmp_path / "old.txt", trace)
        with mock.patch.object(fileio, "_samples",
                               wraps=fileio._samples) as lines:
            back = read_trace(path)
        rows = path.read_text().splitlines()[1:] == list(map(hex_row,
                                                             samples))
        assert lines.call_count == (not rows)
        assert back.samples.tobytes() == trace.samples.tobytes()


class TestLiteralRule:
    """Each value reads by its own syntax: a hex literal carries the 0x
    prefix, and any other is a decimal literal, never a float.fromhex of
    its text."""

    def read(self, tmp_path, body: str) -> InterferenceTrace:
        path = tmp_path / "trace.txt"
        path.write_text(_HEADER + body, encoding="utf-8")
        return read_trace(path)

    @pytest.mark.parametrize("value", list(_NOT_HEX))
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_decimal_line_in_a_hex_body(self, tmp_path, value, where):
        lines = ["0x1.8p+1", "-0x1p-3"]
        lines.insert(where, value)
        got = self.read(tmp_path, "\n".join(lines) + "\n").samples
        want = [3.0, -0.125]
        want.insert(where, float(value))
        assert got.tobytes() == np.array(want).tobytes()
        assert got[where] != _NOT_HEX[value]

    @pytest.mark.parametrize("time_column", [False, True])
    @pytest.mark.parametrize("value, as_float", [
        ("0x1.8p+1", 3.0), ("-0x0.0p+0", -0.0), ("0x0.0000000000001p-1022",
                                                 5e-324)])
    def test_hex_line_in_a_decimal_body(self, tmp_path, time_column, value,
                                        as_float):
        lines = ["0.5", "1e-3", value, "-2.5"]
        if time_column:
            lines = [f"{k / 1000.0!r} {v}" for k, v in enumerate(lines)]
        got = self.read(tmp_path, "\n".join(lines) + "\n").samples
        assert got.tobytes() == np.array([0.5, 1e-3, as_float,
                                          -2.5]).tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0x1p1024"])
    def test_non_finite_line_in_a_hex_body_refused(self, tmp_path, value):
        # nan and inf read as their own values, which InterferenceTrace
        # refuses; a hex literal past the float range names its line.
        with pytest.raises(ConfigError) as err:
            self.read(tmp_path, f"0x1p0\n{value}\n0x1p1\n")
        [problem] = err.value.problems
        if "0x" in value:
            assert problem.endswith(f"line 3: value {value!r} cannot be "
                                    f"read as a float")
        else:
            assert "samples must all be finite" in problem
        with pytest.raises(ConfigError):
            per_line_read_trace(tmp_path / "trace.txt")

    def test_every_magnitude_round_trips_as_hex_lines(self, tmp_path):
        # Subnormals, -0.0, and MAX_SAMPLE_W with its neighbour.
        trace = InterferenceTrace(sample_rate_hz=200e3,
                                  samples=_EDGE_SAMPLES, input_power_w=1.0,
                                  noise_sigma=0.0)
        path = write_trace(tmp_path / "trace.txt", trace)
        assert path.read_text().splitlines()[1:] == \
            [hex_row(v) for v in _EDGE_SAMPLES]
        assert read_trace(path).samples.tobytes() == \
            np.array(_EDGE_SAMPLES).tobytes()


class TestColumns:
    def test_attosecond_values_survive(self, tmp_path):
        delays = [9.813439002524874e-18, 1.9626878005049748e-17]
        path = write_columns(tmp_path / "cols.csv", ["mass_kg", "delay_s"],
                             zip([0.1, 0.2], delays))
        lines = path.read_text().splitlines()
        assert lines[0] == "mass_kg,delay_s"
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert parsed == delays

    def test_none_becomes_nan(self, tmp_path):
        path = write_columns(tmp_path / "cols.csv", ["a"], [[None], [1.0]])
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
    """The writers keep json.dumps's bytes, with the stdlib's C encoder
    and with its pure-Python one."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=st.dictionaries(_JSON_TEXT, _json_trees(_JSON_SCALARS),
                                  max_size=5)
           | st.lists(_json_trees(_JSON_SCALARS), max_size=5),
           entries=st.lists(st.dictionaries(
               _JSON_TEXT, _json_trees(_JSON_SCALARS), max_size=4),
               max_size=4))
    def test_same_bytes_as_json_dumps(self, tmp_path, report, entries):
        want_report = json.dumps(report, sort_keys=True) + "\n"
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
