"""Golden statistics fingerprint of the lossy, sharded, policy-driven fabric.

ReuseS and ProducerConsumer run on the four Spandex configurations at
2 CPUs / 2 CUs x 1 warp with the lossy benchmark workload's system
overrides (two hash-interleaved home shards on a two-socket fabric,
the adaptive request policy with owner prediction) and the standing
delivery-fault profile ``FaultConfig.unreliable_stress(7)``.  Each cell
records its executed events, cycles, network bytes and a sha256 of the
sorted ``stats.snapshot()``; the table is compared against
``tests/data/lossy_golden/stats.json``.

The snapshot hash pins what ``bench/expected.json`` does not check:
every ``faults.*`` counter (drops, link-down and partition drops, dups,
reorders), every ``transport.*`` counter (acks, retransmits, dedupes,
reorder-buffered arrivals), the shard and policy counters, and the
latency totals.  Simulations are deterministic, so any drift means the
unreliable send path, the transport or a protocol changed behaviour.
After an intended change, regenerate the file from the repository root
with::

    PYTHONPATH=src python -m tests.integration.test_lossy_golden

and explain the change in the commit.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.system import SPANDEX_CONFIGS, build_system, scaled_config
from repro.system.config import FaultConfig
from repro.workloads import MICROBENCHMARKS

GOLDEN = (Path(__file__).resolve().parent.parent / "data"
          / "lossy_golden" / "stats.json")

REGENERATE = "PYTHONPATH=src python -m tests.integration.test_lossy_golden"

PROGRAMS = ("ReuseS", "ProducerConsumer")

#: the lossy benchmark workload's SystemConfig overrides
#: (``LOSSY`` in bench/cells.py) and its fault seed at seed 0
LOSSY = dict(llc_shards=2, shard_interleave="hash",
             topology="multi_socket", num_sockets=2,
             request_policy="adaptive", owner_pred=True)
FAULT_SEED = 7


def fingerprint(program: str, config: str) -> Dict[str, object]:
    """Run one lossy cell at 2/2x1 and summarize it."""
    workload = MICROBENCHMARKS[program](num_cpus=2, num_gpus=2,
                                        warps_per_cu=1)
    system = build_system(scaled_config(
        config, 2, 2, faults=FaultConfig.unreliable_stress(FAULT_SEED),
        **LOSSY))
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
            for program in PROGRAMS for config in SPANDEX_CONFIGS}


@pytest.mark.tier1
def test_lossy_stats_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = fingerprints()
    assert sorted(fresh) == sorted(golden), (
        f"cell set differs from {GOLDEN.name}; regenerate with "
        f"`{REGENERATE}`")
    for cell in golden:
        assert fresh[cell] == golden[cell], (
            f"{cell} differs from tests/data/lossy_golden/stats.json: "
            f"got {fresh[cell]}, expected {golden[cell]}. If the change "
            f"is intended, regenerate the file with `{REGENERATE}` and "
            f"explain the change in the commit.")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
