"""Count the lines of each ``src/sagnacsim`` module.

Usage: ``python3 tools/loc.py`` (no options).  For every module it prints
the total lines and the code lines, those that hold a token outside the
module, class and function docstrings: comment lines, blank lines and
docstring lines are not code.  A last row sums both columns.
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sagnacsim"

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


def count(path: Path) -> tuple[int, int]:
    """Total lines and code lines of one module."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(text.splitlines()), len(code)


if __name__ == "__main__":
    rows = [(p.name, *count(p)) for p in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7}{code:>7}")
