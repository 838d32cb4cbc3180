"""Write the README's table of config keys from ``sagnacsim.config``.

Usage: ``python3 tools/config_table.py`` (no options).  It renders one
Markdown row per numeric config key (its dotted key, type, default or
"required", and bound) from the sections, top-level keys, event keys and
disturbance kinds of ``sagnacsim.config``, and rewrites the lines between
the two marker comments of ``README.md`` with them.  A ``disturbances``
entry's keys read ``disturbances[].key``, or ``disturbances[kind].key``
for the keys of one kind.
"""
from __future__ import annotations

import sys
from dataclasses import MISSING
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sagnacsim.config import (  # noqa: E402
    _DISTURBANCES, _EVENT, _SECTIONS, _TOP_LEVEL)
from sagnacsim.errors import interval_text  # noqa: E402

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN = "<!-- config-table: begin, written by tools/config_table.py -->"
END = "<!-- config-table: end -->"


def config_keys():
    """``(dotted key, FieldSpec)`` of every numeric config key."""
    yield from _TOP_LEVEL.items()
    for section, keys in _SECTIONS.items():
        yield from ((f"{section}.{key}", spec) for key, spec in keys.items())
    yield from ((f"disturbances[].{key}", spec)
                for key, spec in _EVENT.items())
    for kind, (_, keys) in _DISTURBANCES.items():
        yield from ((f"disturbances[{kind}].{key}", spec)
                    for key, spec in keys.items())


def render() -> str:
    """The table, one row per key, each line ending in a line break."""
    lines = ["| key | type | default | bound |", "|---|---|---|---|"]
    for key, spec in config_keys():
        default = ("required" if spec.default is MISSING
                   else str(spec.default))
        bound = "finite" if spec.bound is None else interval_text(spec.bound)
        lines.append(f"| `{key}` | {spec.kind.__name__} | {default} | "
                     f"{bound} |")
    return "".join(line + "\n" for line in lines)


def split(text: str) -> tuple[str, str, str]:
    """``text`` up to the line break after the begin marker, the lines
    from there to the end marker, and the rest."""
    head, rest = text.split(BEGIN + "\n", 1)
    table, tail = rest.split(END, 1)
    return head + BEGIN + "\n", table, END + tail


if __name__ == "__main__":
    head, _, tail = split(README.read_text(encoding="utf-8"))
    README.write_text(head + render() + tail, encoding="utf-8")
