"""Tests for workload JSON serialization."""

import io
import json

import pytest

from repro.coherence.messages import atomic_add, atomic_cas
from repro.system import build_system, scaled_config
from repro.workloads import APPLICATIONS, MICROBENCHMARKS
from repro.workloads.serialize import (SerializationError, decode_op,
                                       encode_op, load_workload,
                                       save_workload, workload_from_dict,
                                       workload_to_dict)
from repro.workloads.trace import Op, OpKind

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)


def test_op_roundtrip_load_store():
    for op in (Op.load([0x100, 0x140]), Op.store(0x200, 7),
               Op.compute(12), Op.acquire_fence(), Op.release_fence()):
        back = decode_op(encode_op(op))
        assert back.kind == op.kind
        assert back.addrs == op.addrs
        assert back.value == op.value
        assert back.cycles == op.cycles


def test_op_roundtrip_rmw():
    op = Op.rmw(0x100, atomic_add(3), release=True)
    back = decode_op(encode_op(op))
    assert back.kind == OpKind.RMW
    assert back.release and not back.acquire
    assert back.atomic.apply(10) == 13


def test_op_roundtrip_spin():
    op = Op.spin_ge(0x100, 5, regions=[(0x200, 64)], scope="cu")
    back = decode_op(encode_op(op))
    assert back.spin_until(5) and not back.spin_until(4)
    assert back.regions == [(0x200, 64)]
    assert back.scope == "cu"
    assert back.acquire


def test_custom_spin_rejected():
    op = Op.spin_load(0x100, lambda v: v % 3 == 1)
    with pytest.raises(SerializationError):
        encode_op(op)


def test_cas_rejected():
    op = Op.rmw(0x100, atomic_cas(1, 2))
    with pytest.raises(SerializationError):
        encode_op(op)


def test_unknown_format_rejected():
    with pytest.raises(SerializationError):
        workload_from_dict({"format": "something-else"})


@pytest.mark.parametrize("name", sorted(
    list(MICROBENCHMARKS) + list(APPLICATIONS)))
def test_every_builtin_workload_roundtrips(name):
    generators = {**MICROBENCHMARKS, **APPLICATIONS}
    workload = generators[name](**SMALL)
    payload = workload_to_dict(workload)
    back = workload_from_dict(payload)
    assert back.name == workload.name
    assert back.total_ops() == workload.total_ops()
    assert back.meta.sharing == workload.meta.sharing
    assert back.initial_memory == workload.initial_memory


def test_roundtripped_workload_simulates_identically():
    workload = MICROBENCHMARKS["ReuseO"](**SMALL, tile_lines=4,
                                         iterations=2)
    stream = io.StringIO()
    save_workload(workload, stream)
    assert stream.getvalue() == json.dumps(workload_to_dict(workload))
    stream.seek(0)
    back = load_workload(stream)
    outcomes = []
    for candidate in (workload, back):
        system = build_system(scaled_config("SDD", 2, 2))
        system.load_workload(candidate)
        result = system.run(max_events=10_000_000)
        outcomes.append((result.cycles, result.network_bytes))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("config", ("SDD", "HMG"))
def test_sync_heavy_roundtrip_reproduces_cycles(config, tmp_path):
    # TQH synchronizes through spin_load flags and rmw atomics (queue
    # pops + histogram updates), the exact ops whose encoding is
    # closure-sensitive; the reloaded trace must behave identically on
    # both a Spandex and a hierarchical configuration.
    workload = APPLICATIONS["TQH"](**SMALL)
    assert any(op.kind == OpKind.SPIN_LOAD
               for trace in workload.all_threads() for op in trace)
    assert any(op.kind == OpKind.RMW
               for trace in workload.all_threads() for op in trace)
    path = str(tmp_path / "tqh.json")
    save_workload(workload, path)
    back = load_workload(path)
    outcomes = []
    for candidate in (workload, back):
        system = build_system(scaled_config(config, 2, 2))
        system.load_workload(candidate)
        result = system.run(max_events=10_000_000)
        outcomes.append((result.cycles, result.network_bytes))
    assert outcomes[0] == outcomes[1]
    # and the reloaded workload still passes memory validation
    reference = back.reference()
    system = build_system(scaled_config(config, 2, 2))
    system.load_workload(back)
    system.run(max_events=10_000_000)
    assert all(system.read_coherent(addr) == value
               for addr, value in reference.memory.items())


def test_file_roundtrip(tmp_path):
    workload = MICROBENCHMARKS["ReuseS"](**SMALL)
    path = str(tmp_path / "wl.json")
    save_workload(workload, path)
    with open(path) as handle:
        assert handle.read() == json.dumps(workload_to_dict(workload))
    back = load_workload(path)
    assert back.total_ops() == workload.total_ops()
    # DRF certification still passes after the round trip
    back.reference()
