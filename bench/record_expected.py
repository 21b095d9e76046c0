"""Record bench/expected.json, the modelled results the benchmark checks.

    python3 bench/record_expected.py

Runs every cell of every workload once per seed 0-19 (about 10 min)
and writes its (events, cycles, bytes) fingerprint.  ``bench/run.py``
fails any cell whose fingerprint at a recorded seed differs, so a
change that slows or speeds the host but leaves the model alone
passes, and a change to the modelled results shows as failed cells
until this file is re-recorded (say why in CHANGES.md, as for
results/figure*.json).
"""

from __future__ import annotations

import json
import sys

from cells import MAX_EVENTS, WORKLOADS, select_cells
from run import EXPECTED, run_child

#: seeds 0 .. SEEDS-1 are recorded
SEEDS = 20


def main() -> int:
    blocks = []  # one JSON line per (workload, seed), so diffs stay short
    for workload in WORKLOADS:
        cells = select_cells(workload, None)
        rows = []
        for seed in range(SEEDS):
            run = run_child(workload, seed, MAX_EVENTS, cells)
            errors = ["no result"] if run is None else \
                [o["error"] for o in run["cells"] if o["error"]]
            if errors:
                print(f"{workload} seed {seed}: {errors[0]}", file=sys.stderr)
                return 1
            fingerprints = {o["cell"]: [o["events"], o["cycles"], o["bytes"]]
                            for o in run["cells"]}
            rows.append(f'  "{seed}": {json.dumps(fingerprints)}')
            print(f"{workload} seed {seed}: {len(fingerprints)} cells",
                  flush=True)
        blocks.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
