"""``tests/code_lines.py`` counts lines of code, not blank lines, comments or
docstrings."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("code_lines.py")
code_lines = runpy.run_path(str(SCRIPT))["code_lines"]

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


def test_script_prints_every_module_and_the_total():
    cp = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    rows = [line.split() for line in cp.stdout.splitlines()]
    package = SCRIPT.parents[1] / "src" / "transduce"
    assert sorted(name for name, _ in rows[:-1]) == sorted(p.stem for p in package.glob("*.py"))
    assert rows[-1] == ["total", str(sum(int(n) for _, n in rows[:-1]))]
