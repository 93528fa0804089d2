"""Count the code lines of the package: no comments, docstrings or blank lines.

A code line is a physical line that holds part of a token other than a
comment, and no part of a docstring (the string that opens a module, class
or function body).  A string or bracketed expression that spans lines
counts every line it spans.  Run from the repository root:

    python tests/code_lines.py [src]

It prints one line per module, ``<code lines>  <path>``, then the total.
The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
