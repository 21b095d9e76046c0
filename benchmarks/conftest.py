"""Shared benchmark infrastructure.

Every benchmark reproduces one of the paper's tables or figures.  The
experiment scale is controlled by ``REPRO_BENCH_SCALE``:

* ``small`` (default) — 4 CPU cores, 4 CUs x 2 warps; each full figure
  takes a few minutes and reproduces every qualitative claim;
* ``paper`` — 8 CPU cores, 16 CUs x 2 warps, closer to Table VI's
  device counts (slower).

``REPRO_BENCH_JOBS`` sets how many worker processes each experiment
grid fans out across (default 1, serial).

Results are cached per session (figures feed the headline benchmark)
and dumped as JSON under ``results/`` for EXPERIMENTS.md.
"""

import json
import os
import pathlib
import sys

import pytest

# make the repo root importable so benchmarks can reuse tests.systems
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis import WorkloadResult, grid_specs, run_sweep
from repro.system import CONFIG_ORDER

SCALES = {
    "small": dict(num_cpus=4, num_gpus=4, warps_per_cu=2),
    "paper": dict(num_cpus=8, num_gpus=16, warps_per_cu=2),
}

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_scale():
    return SCALES[os.environ.get("REPRO_BENCH_SCALE", "small")]


class ExperimentCache:
    """Get-or-run cache for workload experiments within one session."""

    def __init__(self):
        self._cache = {}
        self.jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

    def get(self, name: str) -> WorkloadResult:
        """One workload on the six configurations, memory-checked."""
        if name not in self._cache:
            (self._cache[name],) = run_sweep(
                grid_specs([name], CONFIG_ORDER, bench_scale()),
                jobs=self.jobs).workload_results()
        return self._cache[name]

    def dump(self, filename: str, results) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {}
        for wr in results:
            payload[wr.workload] = {
                name: {
                    "cycles": r.cycles,
                    "network_bytes": r.network_bytes,
                    "traffic": r.traffic,
                    "memory_ok": r.memory_ok,
                }
                for name, r in wr.results.items()
            }
        with open(RESULTS_DIR / filename, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)


@pytest.fixture(scope="session")
def experiments():
    return ExperimentCache()
