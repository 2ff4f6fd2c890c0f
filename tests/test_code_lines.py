"""``tests/code_lines.py`` counts lines of code, not blank lines, comments or
docstrings, the public names a module defines, not those it imports, and
the constructor fields of its records; no module of the package binds a
module-level name from inside a function, and none but ``errors`` decides
whether a computed value is out of range, spells the range of a float
argument or checks the length of a sequence argument.  ``errors`` stays
within 90 lines of code, and one function writes comma-separated values."""

import ast
import re
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("code_lines.py")
namespace = runpy.run_path(str(SCRIPT))
code_lines, public_names = namespace["code_lines"], namespace["public_names"]
record_fields = namespace["record_fields"]

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line
TEXT = """a string that is
no docstring"""


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        return math.pi
'''


def test_only_lines_of_code_count():
    # import, the two lines of TEXT, class, def and return.
    assert code_lines(SOURCE) == 6


def test_only_public_names_defined_at_the_top_level_count():
    source = SOURCE + (
        "from os import path\n"
        "_PRIVATE = 1\n"
        "B, (C, _D) = 2, (3, 4)\n"
        "E: int = 5\n"
        "if TEXT:\n"
        "    F = 6\n"
        "def g():\n"
        "    H = 7\n")
    assert public_names(source) == ["TEXT", "A", "B", "C", "E", "g"]


def test_fields_are_the_positional_constructor_parameters_of_records():
    source = (
        "class Record:\n"
        "    def __init__(self, hidden): pass\n"
        "class Pair(Record):\n"
        "    def __init__(self, left, right=0.0, *rest, key=1, **kw): pass\n"
        "class Solo(Record):\n"
        "    def __init__(self, only, /): pass\n"
        "    def other(self, a, b): pass\n"
        "class Plain:\n"
        "    def __init__(self, a, b): pass\n"
        "class Bare(Record):\n"
        "    pass\n")
    # left and right, then only: not the base itself, a class on another
    # base, keyword-only or variadic parameters, or another method's.
    assert record_fields(source) == 3
    assert record_fields(SOURCE) == 0


def test_script_prints_every_module_and_the_total():
    cp = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    header, *rows, total = [line.split() for line in cp.stdout.splitlines()]
    assert header == ["module", "lines", "names", "fields"]
    package = SCRIPT.parents[1] / "src" / "transduce"
    assert sorted(row[0] for row in rows) == sorted(p.stem for p in package.glob("*.py"))
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2, 3))]
    units = (package / "units.py").read_text(encoding="utf-8")
    assert ["units", str(code_lines(units)), str(len(public_names(units))),
            str(record_fields(units))] in rows
    # Dimension(m, kg, s, a) and Quantity(value, dim).
    assert record_fields(units) == 6


def test_no_module_has_a_global_statement():
    # A design keeps its lookups on its bands; no module-global memo holds
    # them, so designs that alternate keep their own.
    package = SCRIPT.parents[1] / "src" / "transduce"
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def _callers(tree: ast.AST, name: str, scope: str = "<module>") -> list[str]:
    """The function (by name, ``<module>`` at the top level) around each
    call of ``name`` in ``tree``, innermost first."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and name in (getattr(func, "id", None),
                                                   getattr(func, "attr", None)):
            found.append(scope)
        found += _callers(node, name, inner)
    return found


def test_only_errors_decides_a_result():
    # errors._result alone decides whether a computed float is out of
    # range; only the intermediate delta_k * length of phasematch._sinc2 is
    # checked elsewhere.
    package = SCRIPT.parents[1] / "src" / "transduce"
    calls = [f"{path.stem}.{scope}" for path in sorted(package.glob("*.py"))
             if path.stem != "errors"
             for scope in _callers(ast.parse(path.read_text(encoding="utf-8")), "result_error")]
    assert calls == ["phasematch._sinc2"]
    source = 'def f():\n    def g():\n        errors.result_error("x", 1.0)\n    result_error()\n'
    assert _callers(ast.parse(source), "result_error") == ["g", "f"]


# The four ranges of a float argument.  Each may be spelled in errors alone,
# so a range message cannot drift from the rule that decides it.
RANGES = ("finite", "finite and >= 0", "positive and finite", "finite and >= 1")
# A range after "must be", the longest first, that ends where the string
# does, at ", got" or before a word that does not extend it: "finite or
# null", "finite and > 1" and "finite, with a finite 2 pi / period" are
# other rules.
SPELLED = re.compile("must be (?:%s)(?=$|, got| (?!and |or ))"
                     % "|".join(map(re.escape, sorted(RANGES, key=len, reverse=True))))


def _spelled_ranges(tree: ast.AST) -> list[int]:
    """The line of each string constant in ``tree``, an f-string's parts
    included and docstrings left out, that is a range or says ``must be``
    one."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node) is not None}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings
                  and (node.value in RANGES or SPELLED.search(node.value)))


def test_only_errors_spells_a_range():
    # errors._real_in alone decides whether a float argument is in range.
    package = SCRIPT.parents[1] / "src" / "transduce"
    found = [f"{path.stem}:{line}" for path in sorted(package.glob("*.py"))
             if path.stem != "errors"
             for line in _spelled_ranges(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    source = ('"""Its docstring: x must be finite."""\n'
              'A = f"{n} must be finite, got {v}"\n'
              'B = "p must be positive and finite to form ratios"\n'
              'C = ("finite", "finite and >= 1")\n'
              'D = ("must be finite or null", "must be finite and > 1", "a finite number",\n'
              '     "must be finite, with a finite 2 pi / period")\n')
    assert _spelled_ranges(ast.parse(source)) == [2, 3, 4, 4]


def _length_checks(tree: ast.AST, scope: str = "<module>") -> list[str]:
    """The function (``Class.method`` in a class) around each raising check
    in ``tree`` that compares a ``len(...)`` call: the test of an ``if``
    whose body raises, or an argument of ``_require``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
        checks = []
        if isinstance(node, ast.If) and any(isinstance(n, ast.Raise)
                                            for stmt in node.body for n in ast.walk(stmt)):
            checks = [node.test]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require":
            checks = node.args
        if any(isinstance(c, ast.Compare) and any(
                isinstance(o, ast.Call) and getattr(o.func, "id", None) == "len"
                for o in (c.left, *c.comparators))
               for check in checks for c in ast.walk(check)):
            found.append(scope)
        found += _length_checks(node, inner)
    return found


def test_only_errors_decides_a_length():
    # errors._sequence alone decides the length of a sequence argument, from
    # the shape it is given: floats through _reals, MixingBands' axes and
    # fd_partial's orders as ints, and a free-energy coefficient's 2**rank
    # numbers once its nesting is read.
    package = SCRIPT.parents[1] / "src" / "transduce"
    found = [f"{path.stem}.{scope}" for path in sorted(package.glob("*.py"))
             if path.stem != "errors"
             for scope in _length_checks(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    source = ("class A:\n"
              "    def f(self, v):\n"
              "        if len(v) != 3:\n"
              "            raise ValueError\n"
              "        if 2 > len(v):\n"
              "            v = v * 2\n"
              "def g(v):\n"
              "    _require(len(v) == 3 and v, 'v', 'three', v)\n"
              "    if v and not 0 < len(v[0]) <= 4:\n"
              "        if v:\n"
              "            raise ValueError\n"
              "    elif len(v) == 2:\n"
              "        pass\n"
              "if len(v) == 1: raise ValueError\n")
    assert _length_checks(ast.parse(source)) == ["A.f", "g", "g", "<module>"]


def test_errors_stays_small():
    # The rules of errors are the design, not a backlog: a rule that needs
    # more lines belongs to the module that uses it.
    package = SCRIPT.parents[1] / "src" / "transduce"
    assert code_lines((package / "errors.py").read_text(encoding="utf-8")) <= 90


def _comma_joiners(tree: ast.AST, scope: str = "<module>") -> list[str]:
    """The function (by name, ``<module>`` at the top level) around each
    call of ``",".join`` in ``tree``, innermost first."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "join"
                and isinstance(func.value, ast.Constant) and func.value.value == ","):
            found.append(scope)
        found += _comma_joiners(node, inner)
    return found


def test_one_function_writes_comma_separated_values():
    # estimator._csv writes the rows of both sweep CSVs, so their format
    # is spelled once.
    package = SCRIPT.parents[1] / "src" / "transduce"
    found = [f"{path.stem}.{scope}" for path in sorted(package.glob("*.py"))
             for scope in _comma_joiners(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["estimator._csv"]
    source = ('def f(rows):\n'
              '    def g(row):\n'
              '        return ",".join(row)\n'
              '    return ", ".join(rows) + "\\n".join(rows) + ",".join(rows)\n'
              'X = ",".join("ab")\n')
    assert _comma_joiners(ast.parse(source)) == ["g", "f", "<module>"]
