"""Tests for the runtime protocol-invariant checker — both that clean
runs pass continuous auditing and that corrupted state is caught."""

import pytest

from repro.analysis import (InvariantChecker, InvariantViolation,
                            check_final_state)
from repro.protocols.denovo import DnState
from repro.protocols.mesi import MesiState
from repro.system import CONFIG_ORDER, build_system, scaled_config
from repro.workloads import make_bc, make_reuse_o


def run_with_checker(config_name, workload, period=250):
    system = build_system(scaled_config(config_name, 2, 2))
    system.load_workload(workload)
    checker = InvariantChecker(system, period=period)
    for core in system.cpus:
        if core.trace:
            core.start()
    for cu in system.gpus:
        if cu.warps:
            cu.start()
    checker.arm()
    system.engine.run(max_events=30_000_000)
    checker.audit(final=True)
    return system, checker


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_continuous_audit_clean_on_bc(config_name):
    workload = make_bc(num_cpus=2, num_gpus=2, warps_per_cu=2)
    system, checker = run_with_checker(config_name, workload)
    assert checker.audits > 2


def test_final_state_helper():
    workload = make_reuse_o(num_cpus=2, num_gpus=2, warps_per_cu=1,
                            tile_lines=4, iterations=2)
    system = build_system(scaled_config("SDD", 2, 2))
    system.load_workload(workload)
    system.run(max_events=10_000_000)
    check_final_state(system)       # no violation


def corrupt_and_audit(corrupt):
    workload = make_reuse_o(num_cpus=2, num_gpus=2, warps_per_cu=1,
                            tile_lines=4, iterations=2)
    system = build_system(scaled_config("SDD", 2, 2))
    system.load_workload(workload)
    system.run(max_events=10_000_000)
    corrupt(system)
    checker = InvariantChecker(system)
    checker.audit(final=True)


def test_detects_double_writer():
    def corrupt(system):
        # force a second cache into Owned state for an owned word
        donor = None
        for l1 in (cu.l1 for cu in system.gpus):
            for resident in l1.array.lines():
                if DnState.O in resident.word_states:
                    donor = (l1, resident)
                    break
            if donor:
                break
        assert donor is not None
        _, resident = donor
        other = system.cpus[0].l1
        fake = other.array.lookup(resident.line) or \
            other.array.install(resident.line)
        index = resident.word_states.index(DnState.O)
        fake.word_states[index] = DnState.O

    with pytest.raises(InvariantViolation, match="multiple"):
        corrupt_and_audit(corrupt)


def test_detects_unpinned_owned_line():
    def corrupt(system):
        for resident in system.llc.array.lines():
            if any(owner is not None for owner in resident.owner):
                while resident.pinned:
                    resident.unpin()
                return
        raise AssertionError("no owned line to corrupt")

    with pytest.raises(InvariantViolation, match="not pinned"):
        corrupt_and_audit(corrupt)


def test_detects_stale_shared_value():
    def corrupt(system):
        # plant a divergent Shared copy at a MESI L1
        l1 = system.cpus[0].l1
        if not isinstance(l1.array.invalid_state, MesiState):
            pytest.skip("needs a MESI CPU config")

    workload = make_reuse_o(num_cpus=2, num_gpus=2, warps_per_cu=1,
                            tile_lines=4, iterations=2)
    system = build_system(scaled_config("SMG", 2, 2))
    system.load_workload(workload)
    system.run(max_events=10_000_000)
    # corrupt: find an S line and flip a word value
    corrupted = False
    for l1 in (core.l1 for core in system.cpus):
        for resident in l1.array.lines():
            if resident.state == MesiState.S:
                home_line = system.llc.array.lookup(resident.line,
                                                    touch=False)
                if home_line is None:
                    continue
                resident.data[0] = home_line.data[0] + 12345
                corrupted = True
                break
        if corrupted:
            break
    if not corrupted:
        pytest.skip("no Shared line materialized in this run")
    checker = InvariantChecker(system)
    with pytest.raises(InvariantViolation, match="stale S value"):
        checker.audit(final=True)
