"""Owner-aware functional reads for post-run validation.

:meth:`System.read_coherent <repro.system.builder.System.read_coherent>`
(inherited by the litmus-scale
:class:`~repro.verify.systems.VerifySystem`) checks a finished run
against the reference memory image through a :class:`CoherentReader`.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..mem.cache import CacheArray, CacheLine
from ..protocols.denovo import DeNovoL1, DnState
from ..protocols.mesi import MESIL1, MesiState


def _denovo_owns(resident: CacheLine, index: int) -> bool:
    return resident.word_states[index] == DnState.O


_MESI_OWNED = (MesiState.M, MesiState.E)


def _mesi_owns(resident: CacheLine, index: int) -> bool:
    return resident.state in _MESI_OWNED


class CoherentReader:
    """Reads a word where its latest value lives, in priority order: an
    L1 that owns it, then a valid home copy with no registered owner,
    then DRAM.

    ``system`` supplies ``l1s``, ``homes`` (probed in that order: the
    GPU L2 before the L3) and ``dram``; the probe order is built once,
    so build the reader after the system is wired.  GPU-coherence L1s
    never own data and are not probed.
    """

    def __init__(self, system):
        #: (L1 array, "does this resident line own word i?")
        self._owners: List[Tuple[CacheArray,
                                 Callable[[CacheLine, int], bool]]] = []
        for l1 in system.l1s.values():
            if isinstance(l1, DeNovoL1):
                self._owners.append((l1.array, _denovo_owns))
            elif isinstance(l1, MESIL1):
                self._owners.append((l1.array, _mesi_owns))
        self._homes = [home.array for home in system.homes]
        self._dram = system.dram

    def read(self, addr: int) -> int:
        line = addr & ~63
        index = (addr >> 2) & 15
        for array, owns in self._owners:
            resident = array.lookup(line, touch=False)
            if resident is not None and owns(resident, index):
                return resident.data[index]
        for array in self._homes:
            resident = array.lookup(line, touch=False)
            if resident is not None and \
                    resident.state != array.invalid_state and \
                    resident.owner[index] is None:
                return resident.data[index]
        return self._dram.peek(line)[index]
