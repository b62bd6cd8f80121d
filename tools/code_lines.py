"""Count the code lines of the opdual package.

A code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (the string statement that
opens a module, class or function body). Blank lines, comment-only
lines and docstring lines are not counted.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/opdual. Prints one line per module and the
total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/opdual")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:10s} {n:6,d}")
    print(f"{'total':10s} {total:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
