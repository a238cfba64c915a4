"""Count the code lines of Python files.

    python tests/count_lines.py FILE...

A line counts when a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER is on it, and that token is not part of a module,
class or function docstring.  A token that spans lines, such as a
triple-quoted string, puts each line it spans on the count.  Blank
lines, comment lines and docstrings do not count.  Prints
`<count> <path>` per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function
    docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source: str) -> int:
    """The number of code lines in source."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or any(start <= tok.start < end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tests/count_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = count_lines(fh.read())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
