"""Count the code-only lines of each module of ``src/transduce``.

    python3 tests/code_lines.py

prints one ``<module> <lines>`` row per module, largest first, then the
total.  A line counts if it holds a token of code: blank lines, lines that
hold only a comment, and the lines of a docstring (a module's, a class's or
a function's) are left out.  It uses the standard library only and writes
no file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "transduce"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12s} {n:5d}")
    print(f"{'total':<12s} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
