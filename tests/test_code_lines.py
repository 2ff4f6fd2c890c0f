"""``tests/code_lines.py`` counts lines of code, not blank lines, comments or
docstrings, and the public names a module defines, not those it imports."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("code_lines.py")
namespace = runpy.run_path(str(SCRIPT))
code_lines, public_names = namespace["code_lines"], namespace["public_names"]

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


def test_script_prints_every_module_and_the_total():
    cp = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    header, *rows, total = [line.split() for line in cp.stdout.splitlines()]
    assert header == ["module", "lines", "names"]
    package = SCRIPT.parents[1] / "src" / "transduce"
    assert sorted(name for name, _, _ in rows) == sorted(p.stem for p in package.glob("*.py"))
    assert total == ["total", str(sum(int(n) for _, n, _ in rows)),
                     str(sum(int(n) for _, _, n in rows))]
    units = (package / "units.py").read_text(encoding="utf-8")
    assert ["units", str(code_lines(units)), str(len(public_names(units)))] in rows
