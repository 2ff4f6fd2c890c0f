"""Replay the goldens on the running interpreter, with the standard library only.

    PYTHONPATH=src python3 tests/golden/replay.py

replays each command of ``regen.CLI_CASES`` through ``regen.cli_golden`` and
compares it with ``cli.json``.  A command that imports numpy where numpy is
not installed is counted, not replayed.  It then compares the sha256 of
``regen.corpus()`` with ``library.sha256``.  It needs neither numpy nor
pytest, so it checks the goldens on every Python the package supports; it
prints one summary line, then each case that differs, and exits 1 if any
does.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import regen


def main() -> int:
    golden = json.loads((regen.HERE / "cli.json").read_text(encoding="utf-8"))
    match, differ, need_numpy = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        regen.make_fixtures(workdir)
        for name in regen.CLI_CASES:
            try:
                got = regen.cli_golden(workdir, name)
            except ModuleNotFoundError as exc:
                if exc.name != "numpy":
                    raise
                need_numpy.append(name)
                continue
            (match if got == golden[name] else differ).append(name)
    corpus = regen.sha256(regen.corpus()) == (regen.HERE / "library.sha256").read_text().strip()
    print(f"python {platform.python_version()}: {len(match)} CLI cases match, "
          f"{len(differ)} differ, {len(need_numpy)} need numpy; "
          f"corpus sha256 {'matches' if corpus else 'differs'}")
    for name in differ:
        print(f"differs: {name}")
    return 0 if corpus and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
