"""Synthetic microbenchmarks (paper §IV-B.1, Figure 2).

Three kernels isolating the coherence design dimensions:

* **Indirection** — CPU and GPU alternate producing/consuming strided
  data; no reuse.  Highlights the cost of hierarchical indirection.
* **ReuseO** — each device densely reads and writes its own cache-
  sized tile every iteration (with sparse remote reads), so written
  data is reused across synchronization.  Highlights ownership-based
  (write-back) updates: DeNovo keeps Owned data across barriers.
* **ReuseS** — devices densely read a shared region each iteration
  while sparsely updating rotating slices of it.  Only writer-
  initiated Shared state preserves the read data across barriers, so
  MESI CPU caches win.
"""

from __future__ import annotations

import random
from typing import List

from ..sim.lifetime import gc_paused
from .base import (BarrierFactory, Workload, WorkloadMeta, chunk,
                   dense_addrs, strided_line_addrs)
from .trace import AddressSpace, Op, Trace


def _gpu_vector_ops(addrs: List[int], lanes: int, kind: str,
                    value: int = 1) -> List[Op]:
    """Split a flat address list into warp-wide vector ops."""
    ops: List[Op] = []
    for group in chunk(addrs, lanes):
        if kind == "load":
            ops.append(Op.load(group))
        else:
            ops.append(Op.store(group, value))
    return ops


@gc_paused
def make_indirection(num_cpus: int = 4, num_gpus: int = 4,
                     warps_per_cu: int = 2, lines_per_thread: int = 48,
                     iterations: int = 3, lanes: int = 8,
                     seed: int = 7) -> Workload:
    """CPU and GPU take turns transposing between two strided buffers."""
    rng = random.Random(seed)
    space = AddressSpace()
    barriers = BarrierFactory(space)
    total_threads = num_cpus + num_gpus * warps_per_cu
    gpu_threads = num_gpus * warps_per_cu

    # Each thread owns a strided slice of A and of B per iteration.
    def slices(threads: int) -> List[List[int]]:
        """Per iteration, a fresh slice for each of ``threads``."""
        out = []
        for _ in range(iterations):
            out.append([space.alloc_lines(lines_per_thread)
                        for _ in range(threads)])
        return out

    cpu_a, cpu_b = slices(num_cpus), slices(num_cpus)
    gpu_a, gpu_b = slices(gpu_threads), slices(gpu_threads)

    rounds = []
    for _ in range(2 * iterations + 1):
        rounds.append(barriers.make(total_threads)[1])

    cpu_traces: List[Trace] = []
    for tid in range(num_cpus):
        ops: List[Op] = []
        for it in range(iterations):
            # phase 1: CPU reads the GPU-written A slice, writes B
            reads = strided_line_addrs(gpu_a[it][tid % gpu_threads],
                                       lines_per_thread, 1, rng)
            writes = strided_line_addrs(cpu_b[it][tid],
                                        lines_per_thread, 1, rng)
            for addr in reads:
                ops.append(Op.load(addr))
            for addr in writes:
                ops.append(Op.store(addr, it + 1))
            ops.extend(rounds[2 * it]())
            ops.extend(rounds[2 * it + 1]())   # wait out the GPU phase
        cpu_traces.append(ops)

    gpu_traces: List[List[Trace]] = []
    wid = 0
    for cu in range(num_gpus):
        warps: List[Trace] = []
        for _ in range(warps_per_cu):
            ops = []
            for it in range(iterations):
                ops.extend(rounds[2 * it]())   # wait for the CPU phase
                reads = strided_line_addrs(cpu_b[it][wid % num_cpus],
                                           lines_per_thread, 1, rng)
                writes = strided_line_addrs(gpu_a[(it + 1) % iterations][wid]
                                            if it + 1 < iterations else
                                            gpu_b[it][wid],
                                            lines_per_thread, 1, rng)
                ops.extend(_gpu_vector_ops(reads, lanes, "load"))
                ops.extend(_gpu_vector_ops(writes, lanes, "store", it + 2))
                ops.extend(rounds[2 * it + 1]())
            warps.append(ops)
            wid += 1
        gpu_traces.append(warps)

    # seed A slices for iteration 0 reads
    initial = {}
    for slice_base in gpu_a[0]:
        for addr in strided_line_addrs(slice_base, lines_per_thread, 1, rng):
            initial[addr] = 42

    meta = WorkloadMeta(
        suite="synthetic", partitioning="data",
        synchronization="coarse-grain", sharing="flat", locality="low",
        parameters={"lines_per_thread": lines_per_thread,
                    "iterations": iterations})
    return Workload("Indirection", cpu_traces, gpu_traces, initial, meta)


@gc_paused
def make_reuse_o(num_cpus: int = 4, num_gpus: int = 4,
                 warps_per_cu: int = 2, tile_lines: int = 24,
                 sparse_reads: int = 8, iterations: int = 5,
                 lanes: int = 8, seed: int = 11) -> Workload:
    """Dense read+write of a private tile each iteration; written data
    is reused across synchronization, rewarding ownership caching."""
    rng = random.Random(seed)
    space = AddressSpace()
    barriers = BarrierFactory(space)
    total_threads = num_cpus + num_gpus * warps_per_cu
    gpu_threads = num_gpus * warps_per_cu

    cpu_tiles = [space.alloc_lines(tile_lines) for _ in range(num_cpus)]
    gpu_tiles = [space.alloc_lines(tile_lines) for _ in range(gpu_threads)]
    # two barriers per iteration: writes happen in phase A, remote
    # sparse reads in phase B, keeping the workload DRF
    rounds = [barriers.make(total_threads)[1]
              for _ in range(2 * iterations)]

    def tile_ops_cpu(base: int, it: int) -> List[Op]:
        ops: List[Op] = []
        for addr in dense_addrs(base, tile_lines * 16):
            ops.append(Op.load(addr))
            ops.append(Op.store(addr, it + 1))
        return ops

    def sparse_ops(tiles: List[int], rng: random.Random) -> List[int]:
        return [rng.choice(tiles) + 4 * rng.randrange(tile_lines * 16)
                for _ in range(sparse_reads)]

    cpu_traces: List[Trace] = []
    for tid in range(num_cpus):
        ops: List[Op] = []
        for it in range(iterations):
            ops.extend(tile_ops_cpu(cpu_tiles[tid], it))
            ops.extend(rounds[2 * it]())
            for addr in sparse_ops(gpu_tiles, rng):
                ops.append(Op.load(addr))
            ops.extend(rounds[2 * it + 1]())
        cpu_traces.append(ops)

    gpu_traces: List[List[Trace]] = []
    wid = 0
    for cu in range(num_gpus):
        warps: List[Trace] = []
        for _ in range(warps_per_cu):
            ops = []
            for it in range(iterations):
                tile = gpu_tiles[wid]
                words = dense_addrs(tile, tile_lines * 16)
                for group in chunk(words, lanes):
                    ops.append(Op.load(group))
                    ops.append(Op.store(group, it + 1))
                ops.extend(rounds[2 * it]())
                for addr in sparse_ops(cpu_tiles, rng):
                    ops.append(Op.load(addr))
                ops.extend(rounds[2 * it + 1]())
            warps.append(ops)
            wid += 1
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="synthetic", partitioning="data",
        synchronization="coarse-grain", sharing="flat",
        locality="high (written data)",
        parameters={"tile_lines": tile_lines, "iterations": iterations})
    return Workload("ReuseO", cpu_traces, gpu_traces, {}, meta)


@gc_paused
def make_reuse_s(num_cpus: int = 4, num_gpus: int = 4,
                 warps_per_cu: int = 2, shared_lines: int = 48,
                 writes_per_iter: int = 4, iterations: int = 5,
                 lanes: int = 8, seed: int = 13,
                 use_regions: bool = False) -> Workload:
    """Dense reads of a shared region each iteration with sparse
    rotating writes; rewards writer-initiated Shared-state reuse.

    With ``use_regions=True`` the barrier acquires carry DeNovo region
    hints covering exactly the lines written in the finishing
    iteration, so self-invalidating caches keep the rest of the
    densely-read data — the paper's §II-C regions optimization.
    """
    space = AddressSpace()
    barriers = BarrierFactory(space)
    total_threads = num_cpus + num_gpus * warps_per_cu
    gpu_threads = num_gpus * warps_per_cu

    shared = space.alloc_lines(shared_lines)
    shared_words = dense_addrs(shared, shared_lines * 16)
    # Each thread owns a rotating sparse write slice, disjoint from all
    # others within an iteration; readers see it next iteration (DRF
    # via the barrier).
    barrier_addrs = [barriers.make(total_threads)[0]
                     for _ in range(iterations)]

    def write_slice(thread_id: int, it: int) -> List[int]:
        start = (thread_id * iterations + it) * writes_per_iter
        return [shared_words[(start + k) % len(shared_words)]
                for k in range(writes_per_iter)]

    def readable(it: int) -> List[int]:
        """Everything not being written this iteration (keeps the
        workload DRF: this iteration's writes are read next time)."""
        hot = set()
        for thread_id in range(total_threads):
            hot.update(write_slice(thread_id, it))
        return [addr for addr in shared_words if addr not in hot]

    read_sets = [readable(it) for it in range(iterations)]

    def barrier_ops(it: int) -> List[Op]:
        """Arrive + spin; with regions, the acquire invalidates only
        the lines actually written during this iteration."""
        from ..coherence.messages import atomic_add
        regions = None
        if use_regions:
            written_lines = set()
            for thread_id in range(total_threads):
                for addr in write_slice(thread_id, it):
                    written_lines.add(addr & ~63)
            regions = [(line, 64) for line in sorted(written_lines)]
            # the barrier word itself must also be re-read fresh, but
            # spin loads already force that via invalidate_first
        return [Op.rmw(barrier_addrs[it], atomic_add(1), release=True),
                Op.spin_ge(barrier_addrs[it], total_threads,
                           regions=regions)]

    cpu_traces: List[Trace] = []
    for tid in range(num_cpus):
        ops: List[Op] = []
        for it in range(iterations):
            for addr in read_sets[it]:
                ops.append(Op.load(addr))
            for addr in write_slice(tid, it):
                ops.append(Op.store(addr, it + 1))
            ops.extend(barrier_ops(it))
        cpu_traces.append(ops)

    gpu_traces: List[List[Trace]] = []
    wid = 0
    for cu in range(num_gpus):
        warps: List[Trace] = []
        for _ in range(warps_per_cu):
            ops = []
            for it in range(iterations):
                for group in chunk(read_sets[it], lanes):
                    ops.append(Op.load(group))
                for addr in write_slice(num_cpus + wid, it):
                    ops.append(Op.store(addr, it + 10))
                ops.extend(barrier_ops(it))
            warps.append(ops)
            wid += 1
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="synthetic", partitioning="data",
        synchronization="coarse-grain", sharing="flat",
        locality="high (read data)",
        parameters={"shared_lines": shared_lines,
                    "iterations": iterations})
    return Workload("ReuseS", cpu_traces, gpu_traces, {}, meta)


@gc_paused
def make_local_sync(num_cpus: int = 2, num_gpus: int = 4,
                    warps_per_cu: int = 2, data_lines: int = 24,
                    rounds: int = 8, lanes: int = 8,
                    sync_scope: str = "device",
                    seed: int = 17) -> Workload:
    """Intra-CU producer/consumer rounds over a read-only working set.

    The warps of each CU take turns bumping a CU-private counter
    (acquire/release pairs) while streaming the same read-only input
    every round.  With ``sync_scope="device"`` every acquire
    flash-invalidates the L1 and the working set is refetched each
    round; with ``sync_scope="cu"`` (scoped synchronization, paper
    §III-E) the L1 keeps it.  CPU cores idle — this isolates the GPU
    synchronization cost.
    """
    from ..coherence.messages import atomic_add
    space = AddressSpace()
    input_base = space.alloc_lines(data_lines)
    input_words = dense_addrs(input_base, data_lines * 16)
    counters = [space.alloc_words(1) for _ in range(num_gpus)]

    gpu_traces: List[List[Trace]] = []
    for cu in range(num_gpus):
        warps: List[Trace] = []
        for w in range(warps_per_cu):
            ops: List[Op] = []
            for r in range(rounds):
                for group in chunk(input_words, lanes):
                    ops.append(Op.load(group))
                # token pass: wait until it is this warp's turn, then
                # bump the CU counter for the next warp
                turn = r * warps_per_cu + w
                ops.append(Op.spin_ge(counters[cu], turn,
                                      scope=sync_scope))
                ops.append(Op.rmw(counters[cu], atomic_add(1),
                                  release=True, scope=sync_scope))
            warps.append(ops)
        gpu_traces.append(warps)

    initial = {addr: i % 61 for i, addr in enumerate(input_words)}
    meta = WorkloadMeta(
        suite="synthetic", partitioning="task",
        synchronization=f"fine-grain ({sync_scope}-scope)",
        sharing="hierarchical", locality="high (read data)",
        parameters={"data_lines": data_lines, "rounds": rounds,
                    "scope": sync_scope})
    return Workload(f"LocalSync-{sync_scope}",
                    [[] for _ in range(num_cpus)], gpu_traces,
                    initial, meta)


@gc_paused
def make_producer_consumer(num_cpus: int = 4, num_gpus: int = 4,
                           warps_per_cu: int = 2, slice_lines: int = 4,
                           iterations: int = 6, lanes: int = 8,
                           seed: int = 19) -> Workload:
    """CPU producers stream fresh data into GPU-warp-owned tiles.

    Each GPU warp accumulates in place over a private tile: every
    iteration it loads each word and stores the running sum back to
    the *same* word, so (with an ownership protocol) the warp holds
    the tile Owned across barriers.  Each iteration the CPU producers
    overwrite every tile with fresh inputs first; a barrier publishes
    them, the warps accumulate, and a second barrier closes the
    iteration (DRF: producers and consumers never touch a word in the
    same phase).

    Under the fixed Table II mapping the producer's ReqO steals each
    tile's ownership every iteration, so the warp's loads are
    three-hop home-forwarded indirections back to the producer and its
    store-back must revoke ownership again — a per-word ownership
    ping-pong.  A policy that converts the (never locally reused)
    producer stores to ReqWTfwd instead pushes the fresh data straight
    into the owning warp's cache (FwdWTData): the warp's whole
    iteration runs on local Owned hits.  This is the ablation workload
    for the request-policy axis (EXPERIMENTS.md).
    """
    space = AddressSpace()
    barriers = BarrierFactory(space)
    total_threads = num_cpus + num_gpus * warps_per_cu
    gpu_threads = num_gpus * warps_per_cu

    tiles = [space.alloc_lines(slice_lines) for _ in range(gpu_threads)]
    tile_words = [dense_addrs(base, slice_lines * 16) for base in tiles]
    rounds = [barriers.make(total_threads)[1]
              for _ in range(2 * iterations)]

    cpu_traces: List[Trace] = []
    for tid in range(num_cpus):
        ops: List[Op] = []
        produced = [wid for wid in range(gpu_threads)
                    if wid % num_cpus == tid]
        for it in range(iterations):
            for wid in produced:
                for k, addr in enumerate(tile_words[wid]):
                    ops.append(Op.store(addr, (it + 1) * 1000 + k))
            ops.extend(rounds[2 * it]())
            ops.extend(rounds[2 * it + 1]())   # wait out the consumers
        cpu_traces.append(ops)

    gpu_traces: List[List[Trace]] = []
    wid = 0
    for cu in range(num_gpus):
        warps: List[Trace] = []
        for _ in range(warps_per_cu):
            ops: List[Op] = []
            for it in range(iterations):
                ops.extend(rounds[2 * it]())
                # accumulate in place: load + store back per word group
                for group in chunk(tile_words[wid], lanes):
                    ops.append(Op.load(group))
                    ops.append(Op.store(group, it + 7 + wid))
                ops.extend(rounds[2 * it + 1]())
            warps.append(ops)
            wid += 1
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="synthetic", partitioning="data",
        synchronization="coarse-grain", sharing="flat",
        locality="high (consumer tiles)",
        parameters={"slice_lines": slice_lines,
                    "iterations": iterations})
    return Workload("ProducerConsumer", cpu_traces, gpu_traces, {}, meta)


MICROBENCHMARKS = {
    "Indirection": make_indirection,
    "ReuseO": make_reuse_o,
    "ReuseS": make_reuse_s,
    "ProducerConsumer": make_producer_consumer,
}
