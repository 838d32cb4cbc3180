"""Spans around the public functions of each sagnacsim module, recorded
from outside the package.

Each wrapped function is patched at every place a caller looks it up: its
home module and every sagnacsim module that imported it by name (``cli``
took ``write_report``, ``read_trace`` and the config parsers that way).
Spans keep name, start, end, parent and op id in memory; self time is a
span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs wrapped in a traced run.  optics and disturbance
# are formula helpers reached only through perception.nonreciprocal_phase.
TRACED = (
    ("qkd", "simulate_window"),
    ("perception", "synthesize_trace"),
    ("perception", "measure_tone_amplitude"),
    ("perception", "frequency_sweep"),
    ("perception", "find_null_frequencies"),
    ("perception", "significance"),
    ("perception", "nonreciprocal_phase"),
    ("perception", "localization_report"),
    ("wm", "calibrate"),
    ("wm", "infer_delay"),
    ("wm", "pressure_staircase"),
    ("controller", "run_scenario"),
    ("config", "parse_config"),
    ("config", "parse_config_dict"),
    ("fileio", "write_report"),
    ("fileio", "write_columns"),
    ("fileio", "write_event_log"),
    ("fileio", "write_trace"),
    ("fileio", "read_trace"),
    ("cli", "main"),
)


def span_names() -> list[str]:
    """Every span name a traced run can produce, in table order."""
    names = []
    for module, fn in TRACED:
        if fn == "find_null_frequencies":
            names += [f"{module}.{fn}.sweep", f"{module}.{fn}.trace"]
        else:
            names.append(f"{module}.{fn}")
    return names


def _null_search_name(args, kwargs) -> str:
    kind = "sweep" if type(args[0]).__name__ == "FrequencySweep" else "trace"
    return f"perception.find_null_frequencies.{kind}"


def _file_size(path) -> int:
    return Path(path).stat().st_size


class Tracer:
    """Installs span-recording wrappers and removes them on exit."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id, raised]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, name, args, result) -> None:
        if name == "qkd.simulate_window":
            self.counts["qkd.pulses"] += int(args[1])
            self.counts["qkd.sifted"] += result[0].sifted_bits
        elif name == "perception.synthesize_trace":
            self.counts["perception.samples"] += result.samples.size
        elif name == "fileio.read_trace":
            self.counts["fileio.bytes_read"] += _file_size(args[0])
        elif name.startswith("fileio.write_"):
            self.counts["fileio.bytes_written"] += _file_size(result)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        namer = _null_search_name if name.endswith(
            "find_null_frequencies") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.op, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            self._count(span_name, args, result)
            return result

        return traced

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items())
                   if n == "sagnacsim" or n.startswith("sagnacsim.")]
        for module_name, fn_name in TRACED:
            home = importlib.import_module(f"sagnacsim.{module_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds, raised]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, raised in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, list[float]] = {n: [0, 0.0, 0.0, 0]
                                         for n in span_names()}
        for i, (name, start, end, parent, op, raised) in \
                enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
            row[3] += int(raised)
        return table

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "raised")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
