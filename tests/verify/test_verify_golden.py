"""Golden fingerprint of the litmus explorer.

Two pins, compared against the files in ``tests/data/verify_golden/``:

* ``fingerprint.json``: every corpus scenario x every Table V
  configuration, run once under the default ``PrefixChooser()`` and
  once under each of ``RandomChooser(1..5)``.  Each run records its
  delivery choices, the branching factor at every choice point, the
  delivery count, the final ``engine.now`` and a sha256 of the sorted
  ``stats.snapshot()``;
* ``verify_smoke.txt``: the exact stdout of
  ``repro verify --configs SMG,HMG --max-schedules 24 --coverage``
  (the CI ``verify-smoke`` DFS step compares against the same file).

The explorer is deterministic, so any drift means the litmus systems,
the protocols or the explorer changed behaviour.  After an intended
change, regenerate both files from the repository root with::

    PYTHONPATH=src python -m tests.verify.test_verify_golden

and explain the change in the commit.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.cli import main
from repro.coherence.messages import Message
from repro.system.config import CONFIG_ORDER
from repro.verify import CORPUS, run_schedule
from repro.verify.explorer import PrefixChooser, RandomChooser

pytestmark = pytest.mark.tier1

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "verify_golden"
FINGERPRINT = GOLDEN_DIR / "fingerprint.json"
SMOKE_TEXT = GOLDEN_DIR / "verify_smoke.txt"

#: the CI verify-smoke DFS step, minus its output-file flags
SMOKE_ARGS = ["verify", "--configs", "SMG,HMG", "--max-schedules", "24",
              "--coverage"]

#: chooser label -> factory (a fresh chooser per run)
CHOOSERS = {"prefix": PrefixChooser,
            **{f"random{seed}": (lambda seed=seed: RandomChooser(seed))
               for seed in range(1, 6)}}

REGENERATE = "PYTHONPATH=src python -m tests.verify.test_verify_golden"


@contextlib.contextmanager
def _fresh_req_ids():
    """Restart the process-wide request-id counter, as in a fresh
    ``python -m repro`` process, whatever ran earlier in this one."""
    saved = Message._req_ids
    Message._req_ids = itertools.count(1)
    try:
        yield
    finally:
        Message._req_ids = saved


def fingerprint() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``{"<scenario>/<config>": {chooser label: run record}}`` in
    corpus x ``CONFIG_ORDER`` order."""
    cells: Dict[str, Dict[str, Dict[str, object]]] = {}
    with _fresh_req_ids():
        for scenario in CORPUS:
            for config_name in CONFIG_ORDER:
                runs = cells[f"{scenario.name}/{config_name}"] = {}
                for label, make in CHOOSERS.items():
                    run = run_schedule(scenario, config_name, make())
                    stats = json.dumps(run.system.stats.snapshot(),
                                       sort_keys=True)
                    runs[label] = {
                        "choices": run.choices,
                        "branching": run.branching,
                        "deliveries": run.deliveries,
                        "now": run.system.engine.now,
                        "stats_sha256": hashlib.sha256(
                            stats.encode()).hexdigest(),
                    }
    return cells


def smoke_stdout() -> str:
    buffer = io.StringIO()
    with _fresh_req_ids(), contextlib.redirect_stdout(buffer):
        code = main(SMOKE_ARGS)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(SMOKE_ARGS)} exited {code}")
    return buffer.getvalue()


def test_explorer_fingerprint_matches_golden():
    golden = json.loads(FINGERPRINT.read_text())
    fresh = fingerprint()
    assert list(fresh) == list(golden), (
        f"the scenario/configuration set changed; regenerate with "
        f"`{REGENERATE}`")
    for cell, runs in golden.items():
        for label, record in runs.items():
            got = fresh[cell][label]
            diverged = [key for key in record if got.get(key) != record[key]]
            assert not diverged, (
                f"first divergence: {cell} under {label} differs in "
                f"{diverged}. If the change is intended, regenerate the "
                f"golden files with `{REGENERATE}` and explain the change "
                f"in the commit.")


def test_verify_smoke_stdout_matches_golden():
    assert smoke_stdout() == SMOKE_TEXT.read_text(), (
        f"`repro {' '.join(SMOKE_ARGS)}` output differs from "
        f"tests/data/verify_golden/{SMOKE_TEXT.name}. If the change is "
        f"intended, regenerate the golden files with `{REGENERATE}` and "
        f"explain the change in the commit.")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    # one cell per line, so a regenerated file diffs cell by cell
    lines = [f"{json.dumps(cell)}: {json.dumps(runs, separators=(',', ':'))}"
             for cell, runs in fingerprint().items()]
    FINGERPRINT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    SMOKE_TEXT.write_text(smoke_stdout())
    print(f"wrote {FINGERPRINT.name} and {SMOKE_TEXT.name} to {GOLDEN_DIR}")
