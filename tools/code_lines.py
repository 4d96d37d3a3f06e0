"""Count the lines of each Python module that hold code.

Blank lines, comment lines and docstring lines are left out: a line counts
when it holds at least one token that is not a comment and not part of a
module, class or function docstring.  Every line of a statement that spans
lines counts, and so does a string statement that is not a docstring.

    python3 tools/code_lines.py src/sbtkit

Arguments are files or directories (searched for ``*.py``, sorted).  Prints
one ``count path`` line per module, like ``wc -l``, then the total.
Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(args: list[str]) -> int:
    files = []
    for arg in args:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    if not files:
        print("usage: code_lines.py FILE_OR_DIR...", file=sys.stderr)
        return 2
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
