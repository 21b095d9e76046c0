"""Shared fixture module: miniature system builders for all test suites.

Every protocol-level test drives one of two miniature systems, both
:class:`~repro.verify.systems.VerifySystem` subclasses wired by the
simulator's own builder from a device list (``System._devices``):

``MiniSpandex``
    a Spandex LLC plus named device caches behind TUs (the paper's
    integrated organization, §III);

``MiniHier``
    MESI CPU L1s and GPU L1s behind a GPU L2, over a blocking MESI
    directory L3 (the hierarchical baseline, §II-D).

Both expose the same driving surface (``run`` / ``load`` / ``store`` /
``rmw`` / ``access`` / fences) plus inspection helpers, with
:class:`Completion` recording callback delivery.  ``make_sdd`` /
``make_smg`` build the two most-used Table V device mixes.

This is the single home for system-construction helpers — test modules
import from here instead of from each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.messages import AtomicOp
from repro.protocols.base import Access
from repro.system.config import KB
from repro.verify.systems import VerifySystem

#: ``MiniSpandex`` L1 keyword arguments and the ``SystemConfig`` field
#: each one sets
L1_FIELDS = {"mshr_entries": "l1_mshrs",
             "atomic_policy": "cpu_atomic_policy"}


class Completion:
    """Callback recorder: call state plus returned values."""

    def __init__(self):
        self.done = False
        self.values: Dict[int, int] = {}
        self.count = 0
        self.accepted: Optional[bool] = None

    def __call__(self, values: Dict[int, int]) -> None:
        self.done = True
        self.count += 1
        self.values = dict(values)


class _MiniSystem(VerifySystem):
    """A litmus-scale system over an explicit device list, plus the
    driving surface the protocol tests share."""

    def __init__(self, config_name: str,
                 devices: List[Tuple[str, str, str]],
                 coalesce_delay: int, **overrides):
        self._device_list = devices
        self._coalesce_delay = coalesce_delay
        roles = [role for _, _, role in devices]
        super().__init__(config_name, num_cpus=roles.count("cpu"),
                         num_gpus=roles.count("gpu"), **overrides)

    def _devices(self) -> List[Tuple[str, str, str]]:
        return self._device_list

    def _l1_kwargs(self) -> Dict[str, object]:
        return dict(super()._l1_kwargs(),
                    coalesce_delay=self._coalesce_delay)

    # -- driving ---------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: int = 1_000_000) -> int:
        return self.engine.run(until=until, max_events=max_events)

    def access(self, device: str, kind: str, line: int, mask: int,
               values: Optional[Dict[int, int]] = None,
               atomic: Optional[AtomicOp] = None,
               invalidate_first: bool = False) -> Completion:
        completion = Completion()
        completion.accepted = self.l1s[device].try_access(Access(
            kind, line, mask, completion, values=values, atomic=atomic,
            invalidate_first=invalidate_first))
        return completion

    def load(self, device: str, line: int, mask: int,
             invalidate_first: bool = False) -> Completion:
        return self.access(device, "load", line, mask,
                           invalidate_first=invalidate_first)

    def store(self, device: str, line: int, mask: int,
              values: Dict[int, int]) -> Completion:
        return self.access(device, "store", line, mask, values=values)

    def rmw(self, device: str, line: int, mask: int,
            atomic: AtomicOp) -> Completion:
        return self.access(device, "rmw", line, mask, atomic=atomic)

    def release(self, device: str) -> Completion:
        completion = Completion()
        self.l1s[device].fence_release(lambda: completion({}))
        return completion

    def acquire(self, device: str) -> Completion:
        completion = Completion()
        self.l1s[device].fence_acquire(lambda: completion({}))
        return completion


class MiniSpandex(_MiniSystem):
    """A Spandex LLC plus named device caches behind TUs.

    ``devices`` maps each L1's name to its protocol ('MESI' | 'GPU' |
    'DeNovo'); GPU-coherence caches take the GPU role, the others the
    CPU role.  ``l1_kwargs`` are the :data:`L1_FIELDS` names.
    """

    def __init__(self, devices: Dict[str, str],
                 llc_size: int = 256 * KB, l1_size: int = 8 * KB,
                 coalesce_delay: int = 1, **l1_kwargs):
        unknown = set(l1_kwargs) - set(L1_FIELDS)
        if unknown:
            raise TypeError(f"unknown L1 options {sorted(unknown)}")
        fields = {L1_FIELDS[key]: value
                  for key, value in l1_kwargs.items()}
        super().__init__(
            "SMG", [(name, protocol, "gpu" if protocol == "GPU" else "cpu")
                    for name, protocol in devices.items()],
            coalesce_delay, llc_size=llc_size, l1_size=l1_size, **fields)

    @property
    def tus(self) -> Dict[str, object]:
        return {name: l1.tu for name, l1 in self.l1s.items()}

    # -- inspection ------------------------------------------------------
    def llc_line(self, line: int):
        return self.llc.array.lookup(line, touch=False)

    def llc_owner(self, line: int, index: int) -> Optional[str]:
        resident = self.llc_line(line)
        return resident.owner[index] if resident is not None else None

    def llc_word(self, line: int, index: int) -> Optional[int]:
        resident = self.llc_line(line)
        return resident.data[index] if resident is not None else None


class MiniHier(_MiniSystem):
    """CPU MESI L1s + GPU L1s behind a GPU L2, over a directory L3."""

    def __init__(self, cpus=1, gpus=1, gpu_protocol="GPU"):
        super().__init__(
            "HMG" if gpu_protocol == "GPU" else "HMD",
            [(f"cpu{i}", "MESI", "cpu") for i in range(cpus)]
            + [(f"gpu{i}", gpu_protocol, "gpu") for i in range(gpus)],
            1, l3_size=256 * KB, gpu_l2_size=64 * KB)


# -- Table V convenience mixes ------------------------------------------
def make_sdd() -> MiniSpandex:
    """Spandex LLC with a DeNovo CPU and a DeNovo GPU (Table V SDD)."""
    return MiniSpandex({"cpu": "DeNovo", "gpu": "DeNovo"})


def make_smg() -> MiniSpandex:
    """Spandex LLC with a MESI CPU and a GPU-coherence GPU (SMG)."""
    return MiniSpandex({"cpu": "MESI", "gpu": "GPU"})


def drive_until_accepted(mini: MiniSpandex, fn, *args,
                         attempts: int = 200, step: int = 5) -> Completion:
    """Retry an access each ``step`` cycles until the L1 accepts it."""
    for _ in range(attempts):
        completion = fn(*args)
        if completion.accepted:
            return completion
        mini.run(until=mini.engine.now + step)
    raise AssertionError("access never accepted")
