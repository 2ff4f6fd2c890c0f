import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # Run a copy, since a demo may write its output file next to itself.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    cp = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                        capture_output=True, text=True,
                        env=dict(os.environ, PYTHONPATH=pythonpath))
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    assert cp.stdout
