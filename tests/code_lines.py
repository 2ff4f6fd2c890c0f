"""Count the code-only lines, the public names and the record fields of
each module of ``src/transduce``.

    python3 tests/code_lines.py

prints a header, then one ``<module> <lines> <names> <fields>`` row per
module, largest first, then the totals.  A line counts if it holds a token
of code: blank lines, lines that hold only a comment, and the lines of a
docstring (a module's, a class's or a function's) are left out.  A public
name is one the module binds at its top level with a ``def``, a ``class``
or an assignment, and that does not start with ``_``; an imported name is
not counted, so ``__init__``, which only re-exports, counts none.  The
fields of a module are the positional ``__init__`` parameters, after
``self``, of each class it defines at its top level on the base ``Record``:
the values a caller can set, through the constructor or ``replace``.  It
uses the standard library only and writes no file.
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


def public_names(source: str) -> list[str]:
    """The public names that the top level of ``source`` defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def record_fields(source: str) -> int:
    """The number of fields of the ``Record`` subclasses that the top level
    of ``source`` defines: the positional parameters of each one's
    ``__init__``, after ``self``."""
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    count += len(f.args.posonlyargs) + len(f.args.args) - 1
    return count


def main() -> int:
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts[path.stem] = (code_lines(source), len(public_names(source)),
                             record_fields(source))
    print(f"{'module':<12s} {'lines':>5s} {'names':>5s} {'fields':>6s}")
    for name, (lines, names, fields) in sorted(counts.items(),
                                               key=lambda item: (-item[1][0], item[0])):
        print(f"{name:<12s} {lines:5d} {names:5d} {fields:6d}")
    lines, names, fields = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':<12s} {lines:5d} {names:5d} {fields:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
