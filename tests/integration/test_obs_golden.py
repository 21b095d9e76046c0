"""Golden telemetry exports: ``--prom-out`` and ``--health-json``.

Two monitored runs are regenerated and compared byte for byte against
the files in ``tests/data/obs_golden/``:

* the CI ``obs-smoke`` run (ReuseS on SDD, 2 hashed shards, the
  multi-socket fabric, a lossy/duplicating/reordering link layer) at
  2 CPUs / 2 CUs x 1 warp;
* Indirection on HMG at the same scale.

Simulations are deterministic, so any byte of drift means the
exporters, the monitor or the simulator changed behaviour.  After an
intended change, regenerate the files from the repository root with::

    PYTHONPATH=src python -m tests.integration.test_obs_golden

and explain the change in the commit.
"""

import itertools
from pathlib import Path

import pytest

from repro.cli import main
from repro.coherence.messages import Message

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "obs_golden"

SMALL = ["--cpus", "2", "--gpus", "2", "--warps", "1"]

#: golden stem -> ``repro run`` arguments (without the output flags)
RUNS = {
    "obs_smoke": ["ReuseS", "--config", "SDD", *SMALL,
                  "--shards", "2", "--topology", "multi_socket",
                  "--sockets", "2", "--loss", "0.02", "--dup", "0.02",
                  "--reorder-prob", "0.05", "--reorder-window", "64",
                  "--monitor", "--top-every", "20", "--check"],
    "indirection_hmg": ["Indirection", "--config", "HMG", *SMALL,
                        "--monitor"],
}

REGENERATE = "PYTHONPATH=src python -m tests.integration.test_obs_golden"


def write_exports(stem: str, out_dir: Path) -> None:
    """Run one golden case, writing ``<stem>.prom`` and
    ``<stem>.health.json`` into ``out_dir``.

    Request ids come from a process-wide counter and the health JSON
    names them, so the counter restarts at 1 for the run, as in a fresh
    ``python -m repro`` process, whatever ran earlier in this one.
    """
    saved = Message._req_ids
    Message._req_ids = itertools.count(1)
    try:
        code = main(["run", *RUNS[stem],
                     "--prom-out", str(out_dir / f"{stem}.prom"),
                     "--health-json",
                     str(out_dir / f"{stem}.health.json")])
    finally:
        Message._req_ids = saved
    if code != 0:
        raise RuntimeError(f"golden run {stem!r} exited {code}")


@pytest.mark.parametrize("stem", sorted(RUNS))
def test_exports_match_golden(stem, tmp_path, capsys):
    write_exports(stem, tmp_path)
    capsys.readouterr()     # the run's console report is not pinned
    for suffix in (".prom", ".health.json"):
        name = f"{stem}{suffix}"
        fresh = (tmp_path / name).read_bytes()
        golden = (GOLDEN_DIR / name).read_bytes()
        assert fresh == golden, (
            f"{name} differs from tests/data/obs_golden/{name}. If the "
            f"change is intended, regenerate the golden files with "
            f"`{REGENERATE}` and explain the change in the commit.")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem in sorted(RUNS):
        write_exports(stem, GOLDEN_DIR)
    print(f"wrote {len(RUNS) * 2} golden files to {GOLDEN_DIR}")
