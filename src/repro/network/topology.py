"""Composable fabric topologies.

The seed model wired every (device, home) pair explicitly and let all
other pairs fall back to ``LatencyModel.default`` — an implicit
all-pairs crossbar.  That is faithful to the paper's single-chip
Garnet testbed but cannot express the systems where heterogeneous
coherence actually diverges from a flat NoC: multi-socket CXL /
NVLink-C2C fabrics with asymmetric cross-socket links.

A topology builder derives every per-pair latency from hop routes and
installs them into a :class:`~repro.network.noc.LatencyModel`.  Four
kinds are supported:

``p2p``
    The historical wiring: each attachment edge (device -> home) gets
    its configured latency, everything else uses the default.  A
    ``topology="p2p"`` system is bit-identical to the seed build.

``mesh``
    Endpoints placed row-major on a near-square 2D grid; latency is
    ``mesh_hop_latency`` per Manhattan hop.  Homes are placed first so
    shards sit in the middle rows of traffic.

``switch``
    A single central switch: every route is ``src -> switch -> dst``,
    costing both endpoint legs plus ``switch_latency``.

``multi_socket``
    Endpoints partitioned across ``num_sockets`` sockets.  Intra-socket
    routes cost the p2p attachment latency; crossing sockets adds an
    *asymmetric* penalty — ``cross_socket_latency`` when the message
    travels to a higher-numbered socket, ``cross_socket_return_latency``
    coming back — modeling the request/response lane asymmetry of
    CXL-style coherent links.

Builders are pure: they compute a pair map and install it via
``set_pair``; the network's per-link latency cache revalidates against
``LatencyModel.version``, so a topology may be (re)installed even
after traffic has flowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .noc import LatencyModel

TOPOLOGIES = ("p2p", "mesh", "switch", "multi_socket")


@dataclass(frozen=True)
class TopoEndpoint:
    """One network endpoint as the topology builders see it.

    ``role`` ('cpu' | 'gpu' | 'home' | 'gpu_l2') selects the endpoint's
    link leg latency; ordering in the endpoint list determines mesh
    placement and socket assignment, so builders are deterministic.
    """

    name: str
    role: str


@dataclass(frozen=True)
class Attachment:
    """A logical p2p edge (device -> its home) with its latency."""

    src: str
    dst: str
    latency: int


class Topology:
    """A computed set of per-pair latencies, ready to install."""

    def __init__(self, kind: str,
                 pairs: Dict[Tuple[str, str], int],
                 sockets: Optional[Dict[str, int]] = None):
        self.kind = kind
        self.pairs = pairs
        #: endpoint name -> socket index (multi_socket only)
        self.sockets = sockets or {}

    def install(self, model: LatencyModel) -> None:
        for (src, dst), latency in sorted(self.pairs.items()):
            model.set_pair(src, dst, latency, symmetric=False)

    def latency(self, src: str, dst: str,
                default: int = 0) -> int:
        return self.pairs.get((src, dst), default)

    def describe(self) -> str:
        if self.sockets:
            count = len(set(self.sockets.values()))
            return f"{self.kind} ({count} sockets, " \
                   f"{len(self.pairs)} pairs)"
        return f"{self.kind} ({len(self.pairs)} pairs)"


def _leg_latency(endpoint: TopoEndpoint, config) -> int:
    """The endpoint's one-hop link cost toward the fabric."""
    if endpoint.role == "cpu":
        base = config.net_cpu_llc
    elif endpoint.role == "gpu":
        base = config.net_gpu_llc
    else:
        base = config.net_default
    return max(1, base // 2)


def _build_p2p(config, endpoints: List[TopoEndpoint],
               attachments: List[Attachment]) -> Topology:
    pairs: Dict[Tuple[str, str], int] = {}
    for edge in attachments:
        pairs[(edge.src, edge.dst)] = edge.latency
        pairs[(edge.dst, edge.src)] = edge.latency
    return Topology("p2p", pairs)


def _build_mesh(config, endpoints: List[TopoEndpoint],
                attachments: List[Attachment]) -> Topology:
    # homes first: shards land in the interior of the row-major grid
    ordered = ([e for e in endpoints if e.role in ("home", "gpu_l2")]
               + [e for e in endpoints if e.role not in ("home", "gpu_l2")])
    width = max(1, math.isqrt(len(ordered) - 1) + 1) \
        if len(ordered) > 1 else 1
    coords = {e.name: (i % width, i // width)
              for i, e in enumerate(ordered)}
    hop = max(1, config.mesh_hop_latency)
    pairs: Dict[Tuple[str, str], int] = {}
    for src in ordered:
        sx, sy = coords[src.name]
        for dst in ordered:
            if src.name == dst.name:
                continue
            dx, dy = coords[dst.name]
            hops = abs(sx - dx) + abs(sy - dy)
            pairs[(src.name, dst.name)] = hop * max(1, hops)
    return Topology("mesh", pairs)


def _build_switch(config, endpoints: List[TopoEndpoint],
                  attachments: List[Attachment]) -> Topology:
    legs = {e.name: _leg_latency(e, config) for e in endpoints}
    pairs: Dict[Tuple[str, str], int] = {}
    for src in endpoints:
        for dst in endpoints:
            if src.name == dst.name:
                continue
            pairs[(src.name, dst.name)] = (legs[src.name]
                                           + config.switch_latency
                                           + legs[dst.name])
    return Topology("switch", pairs)


def _assign_sockets(config,
                    endpoints: List[TopoEndpoint]) -> Dict[str, int]:
    """Deterministic socket placement.

    Home shards round-robin across sockets (so an interleaved address
    stream exercises every socket); device roles block-partition so
    each socket gets a contiguous slice of CPUs and of GPUs.
    """
    sockets: Dict[str, int] = {}
    count = max(1, config.num_sockets)
    homes = [e for e in endpoints if e.role in ("home", "gpu_l2")]
    for index, endpoint in enumerate(homes):
        sockets[endpoint.name] = index % count
    for role in ("cpu", "gpu"):
        members = [e for e in endpoints if e.role == role]
        for index, endpoint in enumerate(members):
            sockets[endpoint.name] = index * count // max(1, len(members))
    return sockets


def _build_multi_socket(config, endpoints: List[TopoEndpoint],
                        attachments: List[Attachment]) -> Topology:
    sockets = _assign_sockets(config, endpoints)
    attached = {(a.src, a.dst): a.latency for a in attachments}
    attached.update({(a.dst, a.src): a.latency for a in attachments})
    pairs: Dict[Tuple[str, str], int] = {}
    for src in endpoints:
        for dst in endpoints:
            if src.name == dst.name:
                continue
            base = attached.get((src.name, dst.name),
                                config.net_default)
            src_socket = sockets[src.name]
            dst_socket = sockets[dst.name]
            if src_socket < dst_socket:
                base += config.cross_socket_latency
            elif src_socket > dst_socket:
                base += config.cross_socket_return_latency
            pairs[(src.name, dst.name)] = base
    return Topology("multi_socket", pairs, sockets)


_BUILDERS = {
    "p2p": _build_p2p,
    "mesh": _build_mesh,
    "switch": _build_switch,
    "multi_socket": _build_multi_socket,
}


def build_topology(config, endpoints: List[TopoEndpoint],
                   attachments: List[Attachment]) -> Topology:
    """Compute the configured topology's per-pair latencies.

    ``endpoints`` is every network endpoint in construction order;
    ``attachments`` are the logical device->home star edges with the
    Table VI latencies the p2p wiring uses.  ``SystemConfig`` rejects
    an unknown ``topology`` at construction.
    """
    return _BUILDERS[config.topology](config, endpoints, attachments)
