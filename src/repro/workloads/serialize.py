"""Workload serialization: JSON round-trip for traces.

Lets experiments be captured as artifacts and replayed elsewhere
(`python -m repro` runs live generators; saved traces pin the exact
instruction streams, e.g. for cross-version regression baselines).

The serializable subset covers everything the built-in generators
emit: named atomic operations with integer operands (add / max / exch
/ cas) and threshold spins (``spin_ge``).  Arbitrary ``spin_until``
lambdas and custom atomic callables are rejected with a clear error.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Union

from ..coherence.messages import (AtomicOp, atomic_add, atomic_cas,
                                  atomic_exch, atomic_max)
from .base import Workload, WorkloadMeta
from .trace import Op, OpKind, Trace


class SerializationError(ValueError):
    """The workload uses a construct outside the serializable subset."""


_ATOMIC_BUILDERS = {
    "add": atomic_add,
    "max": atomic_max,
    "exch": atomic_exch,
}


def _encode_atomic(atomic: AtomicOp) -> Dict[str, int]:
    if atomic.name == "cas":
        # atomic_cas stores `expected` as the operand; `new` is baked
        # into the closure, so cas round-trips only when generators use
        # the public constructor.  The built-in workloads never use cas.
        raise SerializationError(
            "atomic_cas is not serializable (closure-captured 'new')")
    if atomic.name not in _ATOMIC_BUILDERS:
        raise SerializationError(
            f"atomic op {atomic.name!r} is not serializable")
    return {"name": atomic.name, "operand": atomic.operand}


def _decode_atomic(payload: Dict[str, int]) -> AtomicOp:
    return _ATOMIC_BUILDERS[payload["name"]](payload["operand"])


def encode_op(op: Op) -> Dict[str, object]:
    out: Dict[str, object] = {"kind": op.kind.value}
    if op.addrs:
        out["addrs"] = op.addrs
    if op.value:
        out["value"] = op.value
    if op.cycles:
        out["cycles"] = op.cycles
    if op.atomic is not None:
        out["atomic"] = _encode_atomic(op.atomic)
    if op.kind == OpKind.SPIN_LOAD:
        threshold = getattr(op.spin_until, "__defaults__", None)
        # spin_ge builds `lambda v, t=threshold: v >= t`
        if not threshold or len(threshold) != 1 or \
                not isinstance(threshold[0], int):
            raise SerializationError(
                "only spin_ge spins are serializable")
        out["spin_ge"] = threshold[0]
    if op.acquire and op.kind not in (OpKind.SPIN_LOAD,):
        out["acquire"] = True
    if op.release:
        out["release"] = True
    if op.regions:
        out["regions"] = [list(r) for r in op.regions]
    if op.scope != "device":
        out["scope"] = op.scope
    return out


def decode_op(payload: Dict[str, object]) -> Op:
    kind = OpKind(payload["kind"])
    regions = ([tuple(r) for r in payload["regions"]]
               if "regions" in payload else None)
    scope = payload.get("scope", "device")
    addrs = payload.get("addrs", [])
    if kind == OpKind.SPIN_LOAD:
        return Op.spin_ge(addrs[0], payload["spin_ge"],
                          regions=regions, scope=scope)
    if kind == OpKind.RMW:
        return Op.rmw(addrs[0], _decode_atomic(payload["atomic"]),
                      acquire=bool(payload.get("acquire")),
                      release=bool(payload.get("release")),
                      regions=regions, scope=scope)
    return Op(kind, addrs=addrs, value=int(payload.get("value", 0)),
              cycles=int(payload.get("cycles", 0)),
              acquire=bool(payload.get("acquire")),
              release=bool(payload.get("release")),
              regions=regions, scope=scope)


def workload_to_dict(workload: Workload) -> Dict[str, object]:
    meta = workload.meta
    return {
        "format": "repro-workload-v1",
        "name": workload.name,
        "meta": {
            "suite": meta.suite,
            "partitioning": meta.partitioning,
            "synchronization": meta.synchronization,
            "sharing": meta.sharing,
            "locality": meta.locality,
            "parameters": dict(meta.parameters),
        },
        "initial_memory": {str(addr): value for addr, value
                           in workload.initial_memory.items()},
        "cpu_traces": [list(map(encode_op, trace))
                       for trace in workload.cpu_traces],
        "gpu_traces": [
            [list(map(encode_op, warp)) for warp in cu]
            for cu in workload.gpu_traces],
    }


def workload_from_dict(payload: Dict[str, object]) -> Workload:
    if payload.get("format") != "repro-workload-v1":
        raise SerializationError(
            f"unknown format {payload.get('format')!r}")
    meta_payload = payload["meta"]
    meta = WorkloadMeta(
        suite=meta_payload["suite"],
        partitioning=meta_payload["partitioning"],
        synchronization=meta_payload["synchronization"],
        sharing=meta_payload["sharing"],
        locality=meta_payload["locality"],
        parameters=dict(meta_payload["parameters"]))
    return Workload(
        payload["name"],
        [list(map(decode_op, trace)) for trace in payload["cpu_traces"]],
        [
            [list(map(decode_op, warp)) for warp in cu]
            for cu in payload["gpu_traces"]],
        initial_memory={int(addr): value for addr, value
                        in payload["initial_memory"].items()},
        meta=meta)


def save_workload(workload: Workload,
                  file: Union[str, IO[str]]) -> None:
    text = json.dumps(workload_to_dict(workload))
    if isinstance(file, str):
        with open(file, "w") as handle:
            handle.write(text)
    else:
        file.write(text)


def load_workload(file: Union[str, IO[str]]) -> Workload:
    if isinstance(file, str):
        with open(file) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(file)
    return workload_from_dict(payload)
