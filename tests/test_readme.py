"""The README's examples run as written, and each command it shows is pinned."""

import re
import shlex
from pathlib import Path

import pytest

from golden import regen

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of the README section ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_and_its_comment_holds():
    code = _block("Library tour", "python")
    assert "poling_period(pm)                      # ~2.55 um, sign -1" in code
    names: dict = {}
    exec(code, names)
    assert names["lam"] == pytest.approx(2.55e-6, abs=0.005e-6)
    assert names["sign"] == -1


def test_every_command_line_example_is_a_golden_case():
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    cases = {tuple(argv.split()) for argv in regen.CLI_CASES.values()}
    assert len(lines) == 7
    for line in lines:
        transduce, *argv = shlex.split(line, comments=True)
        assert transduce == "transduce"
        assert tuple(argv) in cases, line
