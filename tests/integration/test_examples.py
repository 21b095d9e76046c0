"""Every script in ``examples/`` runs to completion.

Each example runs in a fresh interpreter with ``src/`` on the path, as
its ``Run:`` line shows, and must exit 0 (about 5 s for all of them).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

pytestmark = pytest.mark.tier1


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (
        f"{script.name} exited {done.returncode}:\n{done.stderr[-2000:]}")
