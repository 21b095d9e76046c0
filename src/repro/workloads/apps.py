"""Collaborative CPU-GPU applications (paper §IV-B.2, Table VII, Fig 3).

Six trace generators reproducing the communication patterns of the
Pannotia (BC, PR) and Chai (HSTI, TRNS, RSCT, TQH) applications the
paper evaluates.  The paper's binaries run on x86/CUDA testbeds; here
each generator synthesizes the documented pattern — partitioning, sync
granularity, sharing shape, and locality — on deterministic inputs (see
DESIGN.md substitution table).

Dynamic work distribution (queue pops) is approximated statically: each
thread pops a precomputed number of tasks, but every pop still performs
the atomic, so synchronization cost flows through the protocols.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..coherence.messages import atomic_add
from ..sim.lifetime import gc_paused
from .base import (BarrierFactory, Workload, WorkloadMeta, chunk,
                   dense_addrs)
from .graph import community_graph
from .trace import AddressSpace, Op, Trace


# ---------------------------------------------------------------------------
# BC — Betweenness Centrality (push-based, atomics with temporal locality)
# ---------------------------------------------------------------------------
@gc_paused
def make_bc(num_cpus: int = 4, num_gpus: int = 4, warps_per_cu: int = 2,
            num_vertices: int = 480, rounds: int = 2,
            seed: int = 21) -> Workload:
    """Each thread pushes atomic centrality updates to the neighbors of
    its vertices.  Community hubs receive most updates, so atomics have
    high temporal locality — the dimension where GPU DeNovo ownership
    shines (paper §V-B)."""
    gpu_threads = num_gpus * warps_per_cu
    total = num_cpus + gpu_threads
    graph = community_graph(num_vertices=num_vertices,
                            num_communities=total, seed=seed)
    space = AddressSpace()
    barriers = BarrierFactory(space)

    centrality = space.alloc_words(num_vertices)
    edges_base = space.alloc_words(graph.num_edges + num_vertices)

    # edge array layout: vertex rows packed sequentially
    row_addr: Dict[int, int] = {}
    cursor = edges_base
    for v in range(num_vertices):
        row_addr[v] = cursor
        cursor += 4 * max(1, len(graph.adj[v]))

    round_barriers = [barriers.make(total)[1] for _ in range(rounds)]

    def thread_ops(community: int) -> Trace:
        ops: List[Op] = []
        vertices = graph.vertices_of(community)
        for r in range(rounds):
            for v in vertices:
                row = row_addr[v]
                for k, neighbor in enumerate(graph.adj[v]):
                    ops.append(Op.load(row + 4 * k))       # edge read
                    ops.append(Op.rmw(4 * neighbor + centrality,
                                      atomic_add(1)))
            ops.extend(round_barriers[r]())
        return ops

    cpu_traces = [thread_ops(c) for c in range(num_cpus)]
    gpu_traces: List[List[Trace]] = []
    community = num_cpus
    for _cu in range(num_gpus):
        warps = []
        for _w in range(warps_per_cu):
            warps.append(thread_ops(community))
            community += 1
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="Pannotia", partitioning="data",
        synchronization="fine-grain", sharing="flat", locality="high",
        parameters={"vertices": num_vertices, "edges": graph.num_edges,
                    "rounds": rounds})
    return Workload("BC", cpu_traces, gpu_traces, {}, meta)


# ---------------------------------------------------------------------------
# PR — PageRank (pull-based, data loads, throughput bound)
# ---------------------------------------------------------------------------
@gc_paused
def make_pr(num_cpus: int = 4, num_gpus: int = 4, warps_per_cu: int = 2,
            num_vertices: int = 480, iterations: int = 3,
            seed: int = 23) -> Workload:
    """Each thread pulls its vertices' neighbors' ranks and writes its
    own ranks; double-buffered across iterations so only barriers
    synchronize.  Memory throughput bound — the dimension where the
    flat Spandex LLC wins (paper §V-B)."""
    gpu_threads = num_gpus * warps_per_cu
    total = num_cpus + gpu_threads
    graph = community_graph(num_vertices=num_vertices,
                            num_communities=total, hub_bias=0.35,
                            seed=seed)
    space = AddressSpace()
    barriers = BarrierFactory(space)
    rank = [space.alloc_words(num_vertices) for _ in range(2)]
    round_barriers = [barriers.make(total)[1] for _ in range(iterations)]

    def thread_ops(community: int, vector: bool) -> Trace:
        ops: List[Op] = []
        vertices = graph.vertices_of(community)
        for it in range(iterations):
            src, dst = rank[it % 2], rank[(it + 1) % 2]
            gathered: List[int] = []
            for v in vertices:
                gathered.extend(src + 4 * n for n in graph.adj[v])
            if vector:
                for group in chunk(gathered, 8):
                    ops.append(Op.load(group))
                for group in chunk([dst + 4 * v for v in vertices], 8):
                    ops.append(Op.store(group, it + 1))
            else:
                for addr in gathered:
                    ops.append(Op.load(addr))
                for v in vertices:
                    ops.append(Op.store(dst + 4 * v, it + 1))
            ops.extend(round_barriers[it]())
        return ops

    cpu_traces = [thread_ops(c, vector=False) for c in range(num_cpus)]
    gpu_traces: List[List[Trace]] = []
    community = num_cpus
    for _cu in range(num_gpus):
        warps = []
        for _w in range(warps_per_cu):
            warps.append(thread_ops(community, vector=True))
            community += 1
        gpu_traces.append(warps)

    initial = {rank[0] + 4 * v: 1 for v in range(num_vertices)}
    meta = WorkloadMeta(
        suite="Pannotia", partitioning="data",
        synchronization="coarse-grain", sharing="flat",
        locality="moderate",
        parameters={"vertices": num_vertices, "edges": graph.num_edges,
                    "iterations": iterations})
    return Workload("PR", cpu_traces, gpu_traces, initial, meta)


# ---------------------------------------------------------------------------
# HSTI — input-partitioned histogram (Chai)
# ---------------------------------------------------------------------------
@gc_paused
def make_hsti(num_cpus: int = 4, num_gpus: int = 4, warps_per_cu: int = 2,
              blocks_per_thread: int = 10, lines_per_block: int = 2,
              bins: int = 64, updates_per_block: int = 8,
              seed: int = 29) -> Workload:
    """Threads pop image blocks from a shared queue (fine-grain atomic),
    stream the block (low data locality), and atomically update
    histogram bins (high atomic locality, high spatial locality: 16
    bins per line)."""
    rng = random.Random(seed)
    gpu_threads = num_gpus * warps_per_cu
    total = num_cpus + gpu_threads
    space = AddressSpace()
    queue_idx = space.alloc_words(1)
    histogram = space.alloc_words(bins)
    total_blocks = total * blocks_per_thread
    input_base = space.alloc_lines(total_blocks * lines_per_block)

    def thread_ops(tid: int, vector: bool) -> Trace:
        ops: List[Op] = []
        for b in range(blocks_per_thread):
            ops.append(Op.rmw(queue_idx, atomic_add(1)))   # pop
            block = (tid * blocks_per_thread + b)
            base = input_base + block * lines_per_block * 64
            words = dense_addrs(base, lines_per_block * 16)
            if vector:
                for group in chunk(words, 8):
                    ops.append(Op.load(group))
            else:
                for addr in words:
                    ops.append(Op.load(addr))
            for _ in range(updates_per_block):
                bin_index = rng.randrange(bins)
                ops.append(Op.rmw(histogram + 4 * bin_index,
                                  atomic_add(1)))
        return ops

    cpu_traces = [thread_ops(t, vector=False) for t in range(num_cpus)]
    gpu_traces: List[List[Trace]] = []
    tid = num_cpus
    for _cu in range(num_gpus):
        warps = []
        for _w in range(warps_per_cu):
            warps.append(thread_ops(tid, vector=True))
            tid += 1
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="Chai", partitioning="data", synchronization="fine-grain",
        sharing="flat", locality="data: low, atomic: high",
        parameters={"blocks": total_blocks, "bins": bins})
    return Workload("HSTI", cpu_traces, gpu_traces, {}, meta)


# ---------------------------------------------------------------------------
# TRNS — in-place transposition (Chai)
# ---------------------------------------------------------------------------
@gc_paused
def make_trns(num_cpus: int = 4, num_gpus: int = 4, warps_per_cu: int = 2,
              blocks_per_thread: int = 12, pad_flags: bool = False,
              seed: int = 31) -> Workload:
    """Block-wise in-place transpose: every block move is arbitrated by
    a per-block flag; flags pack 16 to a line, so line-granularity
    ownership false-shares them while DeNovo's word ownership does not.
    Data accesses are strided with low locality.

    ``pad_flags=True`` puts each flag in its own line, removing the
    false sharing entirely (used by the granularity ablation).
    """
    gpu_threads = num_gpus * warps_per_cu
    total = num_cpus + gpu_threads
    space = AddressSpace()
    nblocks = total * blocks_per_thread
    if pad_flags:
        flag_addrs = [space.alloc_words(1, align=64)
                      for _ in range(nblocks)]
    else:
        base = space.alloc_words(nblocks)        # 16 flags per line
        flag_addrs = [base + 4 * b for b in range(nblocks)]
    data = space.alloc_lines(nblocks)

    def thread_ops(tid: int, vector: bool) -> Trace:
        ops: List[Op] = []
        for b in range(blocks_per_thread):
            block = tid + b * total     # interleaved: flags false-share
            flag = flag_addrs[block]
            base = data + block * 64
            ops.append(Op.rmw(flag, atomic_add(1)))      # claim
            words = dense_addrs(base, 16)
            if vector:
                for group in chunk(words, 8):
                    ops.append(Op.load(group))
                for group in chunk(words, 8):
                    ops.append(Op.store(group, tid + 1))
            else:
                for addr in words:
                    ops.append(Op.load(addr))
                    ops.append(Op.store(addr, tid + 1))
            ops.append(Op.rmw(flag, atomic_add(1)))      # release claim
        return ops

    cpu_traces = [thread_ops(t, vector=False) for t in range(num_cpus)]
    gpu_traces: List[List[Trace]] = []
    tid = num_cpus
    for _cu in range(num_gpus):
        warps = []
        for _w in range(warps_per_cu):
            warps.append(thread_ops(tid, vector=True))
            tid += 1
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="Chai", partitioning="data", synchronization="fine-grain",
        sharing="flat", locality="low",
        parameters={"blocks": nblocks})
    return Workload("TRNS", cpu_traces, gpu_traces, {}, meta)


# ---------------------------------------------------------------------------
# RSCT — random sample consensus (Chai, task partitioned)
# ---------------------------------------------------------------------------
@gc_paused
def make_rsct(num_cpus: int = 4, num_gpus: int = 4, warps_per_cu: int = 2,
              tasks: int = 5, input_lines: int = 48,
              param_words: int = 16, seed: int = 37) -> Workload:
    """CPU 0 produces a parameter set per task and publishes it with a
    released flag; every GPU warp consumes the parameters and densely
    reads the *same* input matrix.  Sharing is hierarchical: all GPU
    cores read identical data, which an intermediate GPU L2 can filter
    (the baseline's best case, paper §V-B)."""
    gpu_threads = num_gpus * warps_per_cu
    space = AddressSpace()
    input_base = space.alloc_lines(input_lines)
    input_words = dense_addrs(input_base, input_lines * 16)
    params = [space.alloc_words(param_words) for _ in range(tasks)]
    flags = [space.alloc_words(1) for _ in range(tasks)]
    done = [space.alloc_words(1) for _ in range(tasks)]

    producer: Trace = []
    for t in range(tasks):
        # sparse CPU reads of the input matrix
        for k in range(0, len(input_words), 37):
            producer.append(Op.load(input_words[k]))
        for w in range(param_words):
            producer.append(Op.store(params[t] + 4 * w, t * 100 + w))
        producer.append(Op.rmw(flags[t], atomic_add(1), release=True))
        producer.append(Op.spin_ge(done[t], gpu_threads))
    cpu_traces: List[Trace] = [producer]
    for _ in range(1, num_cpus):
        cpu_traces.append([])     # RSCT uses 1 CPU thread (Table VII)

    gpu_traces: List[List[Trace]] = []
    for _cu in range(num_gpus):
        warps = []
        for _w in range(warps_per_cu):
            ops: List[Op] = []
            for t in range(tasks):
                ops.append(Op.spin_ge(flags[t], 1))
                for w in range(param_words):
                    ops.append(Op.load(params[t] + 4 * w))
                for group in chunk(input_words, 8):
                    ops.append(Op.load(group))
                ops.append(Op.rmw(done[t], atomic_add(1), release=True))
            warps.append(ops)
        gpu_traces.append(warps)

    initial = {addr: (i % 97) for i, addr in enumerate(input_words)}
    meta = WorkloadMeta(
        suite="Chai", partitioning="task", synchronization="fine-grain",
        sharing="hierarchical", locality="data: high, atomic: low",
        parameters={"tasks": tasks, "input_lines": input_lines})
    return Workload("RSCT", cpu_traces, gpu_traces, initial, meta)


# ---------------------------------------------------------------------------
# TQH — task queue histogram (Chai, task partitioned)
# ---------------------------------------------------------------------------
@gc_paused
def make_tqh(num_cpus: int = 4, num_gpus: int = 4, warps_per_cu: int = 2,
             tasks_per_cu: int = 8, lines_per_task: int = 2,
             bins: int = 64, updates_per_task: int = 6,
             seed: int = 41) -> Workload:
    """CPU threads push tasks onto per-CU queues; each CU's warps pop
    with a CU-local atomic and stream a private partition of the input
    (hierarchical sharing is minimal), then atomically update a shared
    histogram (high atomic locality)."""
    rng = random.Random(seed)
    gpu_threads = num_gpus * warps_per_cu
    space = AddressSpace()
    histogram = space.alloc_words(bins)
    tails = [space.alloc_words(1) for _ in range(num_gpus)]
    heads = [space.alloc_words(1) for _ in range(num_gpus)]
    queues = [space.alloc_words(tasks_per_cu * 2) for _ in range(num_gpus)]
    input_base = space.alloc_lines(num_gpus * tasks_per_cu * lines_per_task)

    # CPUs share pushing duty round-robin over CU queues.
    cpu_traces: List[Trace] = [[] for _ in range(num_cpus)]
    for cu in range(num_gpus):
        pusher = cpu_traces[cu % num_cpus]
        for t in range(tasks_per_cu):
            task_id = cu * tasks_per_cu + t
            pusher.append(Op.store(queues[cu] + 8 * t, task_id))
            pusher.append(Op.store(queues[cu] + 8 * t + 4, task_id * 3))
            pusher.append(Op.rmw(tails[cu], atomic_add(1), release=True))

    gpu_traces: List[List[Trace]] = []
    for cu in range(num_gpus):
        warps = []
        per_warp = tasks_per_cu // warps_per_cu
        for w in range(warps_per_cu):
            ops: List[Op] = []
            for k in range(per_warp):
                # wait for enough pushed tasks, then pop CU-locally
                needed = w * per_warp + k + 1
                ops.append(Op.spin_ge(tails[cu], needed))
                ops.append(Op.rmw(heads[cu], atomic_add(1)))
                task_id = cu * tasks_per_cu + w * per_warp + k
                ops.append(Op.load(queues[cu] + 8 * (w * per_warp + k)))
                base = input_base + task_id * lines_per_task * 64
                for group in chunk(dense_addrs(base, lines_per_task * 16),
                                   8):
                    ops.append(Op.load(group))
                for _ in range(updates_per_task):
                    bin_index = rng.randrange(bins)
                    ops.append(Op.rmw(histogram + 4 * bin_index,
                                      atomic_add(1)))
            warps.append(ops)
        gpu_traces.append(warps)

    meta = WorkloadMeta(
        suite="Chai", partitioning="task", synchronization="fine-grain",
        sharing="hierarchical", locality="data: low, atomic: high",
        parameters={"tasks": num_gpus * tasks_per_cu, "bins": bins})
    return Workload("TQH", cpu_traces, gpu_traces, {}, meta)


APPLICATIONS = {
    "BC": make_bc,
    "PR": make_pr,
    "HSTI": make_hsti,
    "TRNS": make_trns,
    "RSCT": make_rsct,
    "TQH": make_tqh,
}
