"""Count the lines of each ``src/sagnacsim`` module.

Usage: ``python3 tools/loc.py [--against REV]``.  For every module it prints
the total lines and the code lines, those that hold a token outside the
module, class and function docstrings: comment lines, blank lines and
docstring lines are not code.  A last row sums both columns.  With
``--against REV`` (any git revision, such as ``HEAD`` or a commit) each row
gives the module's counts at REV (``git show REV:src/sagnacsim/<module>``,
0 for a module not there) beside the working tree's (0 for a module gone)
and the net change of each; the last row's net change is the PR's figure.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sagnacsim"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_text(text: str) -> tuple[int, int]:
    """Total lines and code lines of one module's text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(text.splitlines()), len(code)


def count(path: Path) -> tuple[int, int]:
    """Total lines and code lines of one module."""
    return count_text(path.read_text())


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def counts_at(rev: str) -> dict[str, tuple[int, int]]:
    """Total and code lines of each module of the package at git ``rev``."""
    where = PACKAGE.relative_to(ROOT).as_posix()
    names = [Path(name).name for name in
             _git("ls-tree", "--name-only", f"{rev}:{where}").split()
             if name.endswith(".py")]
    return {name: count_text(_git("show", f"{rev}:{where}/{name}"))
            for name in names}


def tree_counts() -> dict[str, tuple[int, int]]:
    """Total and code lines of each module of the working tree."""
    return {p.name: count(p) for p in sorted(PACKAGE.glob("*.py"))}


def rows_against(rev: str) -> list[tuple]:
    """``(module, lines at rev, code at rev, lines, code, net lines, net
    code)`` of every module at ``rev`` or in the working tree, and a last
    ``total`` row."""
    before, after = counts_at(rev), tree_counts()
    rows = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, (0, 0)), after.get(name, (0, 0))
        rows.append((name, *old, *new, new[0] - old[0], new[1] - old[1]))
    rows.append(("total", *(sum(r[i] for r in rows) for i in range(1, 7))))
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision to count the modules at too")
    args = parser.parse_args(argv)
    if args.against:
        head = ("module", f"lines@{args.against}", "code", "lines", "code",
                "net lines", "net code")
        widths = [16, *(max(len(h) + 2, 8) for h in head[1:])]
        print("".join(f"{h:<{w}}" if i == 0 else f"{h:>{w}}"
                      for i, (h, w) in enumerate(zip(head, widths))))
        for name, *values in rows_against(args.against):
            print(f"{name:<16}" + "".join(
                f"{v:>{w}}" if i < 4 else f"{v:>+{w}}"
                for i, (v, w) in enumerate(zip(values, widths[1:]))))
        return
    rows = [(name, *counts) for name, counts in tree_counts().items()]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7}{code:>7}")


if __name__ == "__main__":
    main()
