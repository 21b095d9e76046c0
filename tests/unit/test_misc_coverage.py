"""Additional coverage: latency sampling, network edge cases, graph
parameters, store-buffer iteration, and representation helpers."""

import pytest

from repro.coherence.messages import Message, MsgKind
from repro.mem.store_buffer import StoreBuffer
from repro.network.noc import LatencyModel
from repro.system import build_system, scaled_config
from repro.workloads import community_graph, make_pr
from repro.workloads.trace import Op


def test_mean_load_latency_reported():
    workload = make_pr(num_cpus=2, num_gpus=2, warps_per_cu=1)
    system = build_system(scaled_config("SDD", 2, 2))
    system.load_workload(workload)
    result = system.run(max_events=30_000_000)
    assert result.mean_load_latency("cpu") > 0
    assert result.mean_load_latency("gpu") > 0
    # misses dominate a streaming workload: well above the 1-cycle hit
    assert result.mean_load_latency("gpu") >= 1.0


def test_mean_load_latency_zero_when_unused():
    system = build_system(scaled_config("SDD", 1, 1))
    result = system.run()
    assert result.mean_load_latency("cpu") == 0.0


def test_latency_model_pairs_and_default():
    model = LatencyModel(default=9)
    model.set_pair("a", "b", 3)
    assert model.latency("a", "b") == 3
    assert model.latency("b", "a") == 3        # symmetric by default
    assert model.latency("a", "c") == 9
    model.set_pair("a", "c", 5, symmetric=False)
    assert model.latency("a", "c") == 5
    assert model.latency("c", "a") == 9


def test_message_repr_and_traffic_class():
    msg = Message(MsgKind.REQ_O_DATA, 0x1000, 0b11, "a", "b",
                  data={0: 1})
    text = repr(msg)
    assert "ReqO+data" in text and "0x1000" in text
    assert msg.traffic_class == "ReqO+data"


def test_op_repr():
    assert "load" in repr(Op.load(0x104))
    assert "(+1)" in repr(Op.load([0x104, 0x108]))


def test_store_buffer_iteration_order():
    buffer = StoreBuffer(64)
    for i, line in enumerate((0x100, 0x200, 0x300)):
        buffer.push(line, 0b1, {0: i})
    assert [e.line for e in buffer.entries.values()] == \
        [0x100, 0x200, 0x300]


def test_graph_edge_budget():
    graph = community_graph(num_vertices=100, num_communities=5,
                            out_degree=4, seed=9)
    # self-loops are dropped, so slightly under vertices * degree
    assert 300 <= graph.num_edges <= 400


def test_graph_inter_community_edges_exist():
    graph = community_graph(num_vertices=120, num_communities=6,
                            inter_fraction=0.3, seed=10)
    cross = sum(1 for v in range(graph.num_vertices)
                for t in graph.adj[v]
                if graph.community[v] != graph.community[t])
    assert cross > 0.1 * graph.num_edges


def test_graph_determinism():
    a = community_graph(num_vertices=60, num_communities=3, seed=5)
    b = community_graph(num_vertices=60, num_communities=3, seed=5)
    assert a.adj == b.adj
    c = community_graph(num_vertices=60, num_communities=3, seed=6)
    assert a.adj != c.adj


def test_workload_meta_defaults():
    from repro.workloads import WorkloadMeta
    meta = WorkloadMeta()
    assert meta.partitioning == "data"
    assert meta.sharing == "flat"


def test_run_result_read_word():
    system = build_system(scaled_config("SDD", 1, 1))
    system.dram.poke(0x4000, {2: 55})
    result = system.run()
    assert result.read_word(0x4008) == 55
