"""Golden fingerprint of the miniature protocol-test systems.

``MiniSpandex`` and ``MiniHier`` (``tests/systems.py``) drive most
protocol tests.  Each pinned system runs one scripted
store / release / load / rmw sequence; the cycle it ends on, the
executed events, a sha256 of the sorted ``stats.snapshot()``, every
value the accesses returned and the home's per-word owners of the line
are compared against ``tests/data/mini_parity.json``.  Simulations are
deterministic, so any drift means the wiring or a protocol changed.
After an intended change, regenerate the file from the repository root
with::

    PYTHONPATH=src python -m tests.protocols.test_mini_parity

and explain the change in the commit.

Both miniature systems are ``System`` subclasses, so the walk every
diagnostic consumer reads (``System.l1s`` / ``System.homes``) is checked
here against the controllers actually registered on the network, for
them and for every Table V configuration.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis import InvariantViolation, check_final_state
from repro.coherence.messages import atomic_add
from repro.core.home_base import HomeController
from repro.core.tu import TranslationUnit
from repro.protocols.base import L1Controller
from repro.system import CONFIG_ORDER, System, build_system, scaled_config
from tests.systems import MiniHier, MiniSpandex, make_sdd, make_smg

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "mini_parity.json"

REGENERATE = "PYTHONPATH=src python -m tests.protocols.test_mini_parity"

LINE = 0x2000

SYSTEMS = {
    "sdd": make_sdd,
    "smg": make_smg,
    "mix3": lambda: MiniSpandex(
        {"cpu": "MESI", "gpu": "GPU", "acc": "DeNovo"}),
    "hier-gpu": lambda: MiniHier(cpus=1, gpus=1),
    "hier-denovo": lambda: MiniHier(cpus=1, gpus=1,
                                    gpu_protocol="DeNovo"),
}


def _values(completion) -> list:
    # fences leave ``accepted`` unset; accesses must have been taken
    assert completion.done and completion.accepted is not False
    return sorted(completion.values.items())


def _spandex_script(mini: MiniSpandex) -> list:
    names = list(mini.l1s)
    writer, reader = names[0], names[-1]
    mini.seed(LINE, {index: 100 + index for index in range(16)})
    completions = []
    completions.append(mini.store(writer, LINE, 0b0011, {0: 11, 1: 12}))
    mini.run()
    completions.append(mini.release(writer))
    mini.run()
    completions.append(mini.load(reader, LINE, 0xFFFF))
    mini.run()
    completions.append(mini.rmw(reader, LINE, 0b1, atomic_add(5)))
    mini.run()
    completions.append(mini.release(reader))
    mini.run()
    for middle in names[1:-1]:
        completions.append(mini.store(middle, LINE, 0b1000, {3: 33}))
        mini.run()
        completions.append(mini.release(middle))
        mini.run()
    completions.append(mini.load(writer, LINE, 0xFFFF))
    mini.run()
    return [_values(completion) for completion in completions]


def _hier_script(mini: MiniHier) -> list:
    completions = []
    completions.append(mini.access("cpu0", "store", LINE, 0b0011,
                                   values={0: 11, 1: 12}))
    mini.run()
    completions.append(mini.release("cpu0"))
    mini.run()
    completions.append(mini.access("gpu0", "load", LINE, 0xFFFF))
    mini.run()
    completions.append(mini.access("gpu0", "rmw", LINE, 0b1,
                                   atomic=atomic_add(5)))
    mini.run()
    completions.append(mini.release("gpu0"))
    mini.run()
    completions.append(mini.access("cpu0", "load", LINE, 0xFFFF))
    mini.run()
    return [_values(completion) for completion in completions]


def _owners(home) -> list:
    resident = home.array.lookup(LINE, touch=False)
    return list(resident.owner) if resident is not None else None


def fingerprint(name: str) -> Dict[str, object]:
    """Build one pinned system, run its script and summarize it."""
    mini = SYSTEMS[name]()
    if isinstance(mini, MiniHier):
        mini.dram.poke(LINE, {index: 100 + index for index in range(16)})
        returned = _hier_script(mini)
        owners = _owners(mini.gpu_l2)
    else:
        returned = _spandex_script(mini)
        owners = [mini.llc_owner(LINE, index) for index in range(16)]
    snapshot = json.dumps(mini.stats.snapshot(), sort_keys=True)
    return {"now": mini.engine.now,
            "events": mini.engine.events_executed,
            "stats_sha256": hashlib.sha256(snapshot.encode()).hexdigest(),
            "returned": returned,
            "owners": owners}


def fingerprints() -> Dict[str, Dict[str, object]]:
    # JSON round trip so tuples compare equal to the stored lists
    return json.loads(json.dumps({name: fingerprint(name)
                                  for name in SYSTEMS}))


@pytest.mark.tier1
def test_mini_systems_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = fingerprints()
    assert sorted(fresh) == sorted(golden), (
        f"system set differs from {GOLDEN.name}; regenerate with "
        f"`{REGENERATE}`")
    for name in golden:
        assert fresh[name] == golden[name], (
            f"{name} differs from tests/data/{GOLDEN.name}: got "
            f"{fresh[name]}, expected {golden[name]}. If the change is "
            f"intended, regenerate the file with `{REGENERATE}` and "
            f"explain the change in the commit.")


@pytest.mark.tier1
def test_final_audit_catches_an_owned_mask_that_drifts_from_owner():
    mini = make_sdd()
    _spandex_script(mini)
    check_final_state(mini)
    resident = mini.llc_line(LINE)
    assert resident.owned   # the script leaves words owned
    unowned = next(index for index in range(16)
                   if resident.owner[index] is None)
    resident.owned |= 1 << unowned
    with pytest.raises(InvariantViolation, match="owned mask"):
        check_final_state(mini)


def _registered(system: System):
    """The homes and device L1s on the network (an L1 behind a TU is
    reached through it)."""
    homes, l1s = [], []
    for endpoint in system.network._endpoints.values():
        if isinstance(endpoint, HomeController):
            homes.append(endpoint)
        elif isinstance(endpoint, TranslationUnit):
            l1s.append(endpoint.l1)
        elif isinstance(endpoint, L1Controller):
            l1s.append(endpoint)
    return homes, l1s


WALKED = {
    **{f"config-{name}": (lambda name=name:
                          build_system(scaled_config(name, 2, 2)))
       for name in CONFIG_ORDER},
    "config-SDD-2shards": lambda: build_system(
        scaled_config("SDD", 2, 2, llc_shards=2)),
    **SYSTEMS,
}


@pytest.mark.tier1
@pytest.mark.parametrize("name", sorted(WALKED))
def test_l1s_and_homes_list_every_built_controller(name):
    system = WALKED[name]()
    assert isinstance(system, System)
    homes, l1s = _registered(system)
    # every home once: the GPU L2 first, then the shards (or the L3)
    assert sorted(map(id, system.homes)) == sorted(map(id, homes))
    gpu_l2 = [system.gpu_l2] if system.gpu_l2 is not None else []
    assert system.homes == gpu_l2 + system.llcs
    assert len(system.llcs) == (2 if name.endswith("2shards") else 1)
    # every L1 once, keyed by its name, in device-list order
    assert sorted(map(id, system.l1s.values())) == sorted(map(id, l1s))
    assert all(l1.name == key for key, l1 in system.l1s.items())
    assert list(system.l1s) == [device for device, _, _
                                in system._devices()]


if __name__ == "__main__":
    # one system per line
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(summary, sort_keys=True)}"
        for name, summary in sorted(fingerprints().items())) + "\n}\n")
    print(f"wrote {GOLDEN}")
