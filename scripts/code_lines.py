"""Count code lines: lines that hold at least one token that is not a
comment, and not part of a docstring (module, class or function). Blank
lines, comment-only lines and docstring lines do not count; a multi-line
string literal that is not a docstring counts every line it spans.

Usage: python scripts/code_lines.py PATH [PATH...]
Prints one ``<count>\t<path>`` line per argument; a directory is summed over
every ``*.py`` file below it."""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.AST) -> list[tuple]:
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(
            lo <= tok.start and tok.end <= hi for lo, hi in spans
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_path(path: str) -> int:
    if os.path.isdir(path):
        return sum(
            count_path(os.path.join(root, f))
            for root, _dirs, files in os.walk(path)
            for f in files if f.endswith(".py")
        )
    with open(path, encoding="utf-8") as f:
        return count_code_lines(f.read())


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv:
        print(f"{count_path(path)}\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
