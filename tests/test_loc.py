"""``tools/loc.py --against REV`` counts each module at a git revision
beside the working tree."""
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import loc  # noqa: E402


def _unchanged_module() -> str:
    """A package module whose working-tree file is the one at HEAD."""
    try:
        rows = loc.rows_against("HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout")
    for name, *_ in rows[:-1]:
        changed = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--",
             (loc.PACKAGE / name).relative_to(loc.ROOT).as_posix()],
            cwd=loc.ROOT).returncode
        if not changed:
            return name
    pytest.skip("every module differs from HEAD")


def test_unchanged_module_nets_zero_against_head(capsys):
    name = _unchanged_module()
    row = {r[0]: r for r in loc.rows_against("HEAD")}[name]
    assert row[1:3] == row[3:5] == loc.count(loc.PACKAGE / name)
    assert row[5:] == (0, 0)
    loc.main(["--against", "HEAD"])
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.split()[0] == name]
    assert line.split()[5:] == ["+0", "+0"]


def test_total_row_sums_the_modules():
    try:
        rows = loc.rows_against("HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout")
    *modules, total = rows
    assert total[0] == "total"
    assert total[1:] == tuple(sum(r[i] for r in modules) for i in range(1, 7))
    assert total[3:5] == (sum(c[0] for c in loc.tree_counts().values()),
                          sum(c[1] for c in loc.tree_counts().values()))
