"""Golden statistics fingerprint of every figure program.

Every ``MICROBENCHMARKS`` and ``APPLICATIONS`` program runs on each of
the six Table V configurations at 2 CPUs / 2 CUs x 1 warp (60 cells,
~8 s).  Each cell records its executed events, cycles, network bytes
and a sha256 of the sorted ``stats.snapshot()``; the whole table is
compared against ``tests/data/device_golden/stats.json``.

The snapshot hash pins the counters the devices feed that
``bench/expected.json`` does not check: ``cpu.*`` / ``gpu.*`` load
latency totals and counts, ``gpu.issue_retries`` and the spin
iteration counts.  Simulations are deterministic, so any drift means
the simulator changed behaviour.  After an intended change, regenerate
the file from the repository root with::

    PYTHONPATH=src python -m tests.integration.test_device_golden

and explain the change in the commit.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.system import CONFIG_ORDER, build_system, scaled_config
from repro.workloads import APPLICATIONS, MICROBENCHMARKS

GOLDEN = (Path(__file__).resolve().parent.parent / "data"
          / "device_golden" / "stats.json")

REGENERATE = "PYTHONPATH=src python -m tests.integration.test_device_golden"

PROGRAMS = {**MICROBENCHMARKS, **APPLICATIONS}


def fingerprint(program: str, config: str) -> Dict[str, object]:
    """Run one cell at 2/2x1 and summarize it."""
    workload = PROGRAMS[program](num_cpus=2, num_gpus=2, warps_per_cu=1)
    system = build_system(scaled_config(config, 2, 2))
    system.load_workload(workload)
    result = system.run()
    snapshot = json.dumps(result.stats.snapshot(), sort_keys=True)
    return {"events": system.engine.events_executed,
            "cycles": result.cycles,
            "network_bytes": result.network_bytes,
            "stats_sha256": hashlib.sha256(snapshot.encode()).hexdigest()}


def fingerprints() -> Dict[str, Dict[str, object]]:
    """``"<program>/<config>"`` -> fingerprint, for every cell."""
    return {f"{program}/{config}": fingerprint(program, config)
            for program in PROGRAMS for config in CONFIG_ORDER}


@pytest.mark.tier1
def test_device_stats_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = fingerprints()
    assert sorted(fresh) == sorted(golden), (
        f"cell set differs from {GOLDEN.name}; regenerate with "
        f"`{REGENERATE}`")
    for cell in golden:
        assert fresh[cell] == golden[cell], (
            f"{cell} differs from tests/data/device_golden/stats.json: "
            f"got {fresh[cell]}, expected {golden[cell]}. If the change "
            f"is intended, regenerate the file with `{REGENERATE}` and "
            f"explain the change in the commit.")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
