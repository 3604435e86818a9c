import numpy as np
import pytest

from motionseg.maxflow import SINK, SOURCE, FlowNetwork, min_cut

from helpers import random_flow_network
from oracles import brute_force_min_cut, cut_capacity


def _build(node_count, terminals, edges):
    net = FlowNetwork(node_count)
    for i, (src, snk) in enumerate(terminals):
        net.add_terminal(i, src, snk)
    for i, j, cap_ij, cap_ji in edges:
        net.add_edge(i, j, cap_ij, cap_ji)
    return net


def test_two_node_example():
    terminals = [(3.0, 2.0), (2.0, 3.0)]
    edges = [(0, 1, 1.0, 0.0)]
    res = min_cut(_build(2, terminals, edges))
    want, _ = brute_force_min_cut(2, terminals, edges)
    assert want == 5.0
    assert abs(res.flow_value - 5.0) < 1e-12


def test_single_node_zero_source_capacity():
    net = FlowNetwork(1)
    net.add_terminal(0, 0.0, 7.0)
    res = min_cut(net)
    assert res.flow_value == 0.0
    # a node the source cannot reach in the residual graph is SINK side
    assert res.side[0] == SINK


def test_single_node_source_side():
    net = FlowNetwork(1)
    net.add_terminal(0, 7.0, 0.0)
    res = min_cut(net)
    assert res.flow_value == 0.0
    assert res.side[0] == SOURCE


def test_empty_graph():
    res = min_cut(FlowNetwork(0))
    assert res.flow_value == 0.0
    assert res.side.shape == (0,)


def test_terminal_capacities_accumulate():
    net = FlowNetwork(1)
    net.add_terminal(0, 1.0, 0.0)
    net.add_terminal(0, 1.5, 4.0)
    res = min_cut(net)
    assert abs(res.flow_value - 2.5) < 1e-12


def test_symmetric_graph_under_node_swap():
    terminals = [(4.0, 1.0), (1.0, 4.0)]
    edges = [(0, 1, 2.0, 2.0)]
    a = min_cut(_build(2, terminals, edges))
    b = min_cut(_build(2, list(reversed(terminals)),
                       [(1, 0, 2.0, 2.0)]))
    assert abs(a.flow_value - b.flow_value) < 1e-12


def test_rejects_bad_capacities():
    net = FlowNetwork(2)
    with pytest.raises(ValueError):
        net.add_terminal(0, -1.0, 0.0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, float("inf"), 0.0)
    with pytest.raises(ValueError):
        net.add_edge(0, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        net.add_terminals([1.0, 2.0], [0.0, float("nan")])
    with pytest.raises(ValueError):
        net.add_terminals([-1.0], [0.0], nodes=[1])
    with pytest.raises(ValueError):
        net.add_edges([0, 1], [1, 0], [1.0, float("inf")], [0.0, 0.0])
    with pytest.raises(ValueError):
        net.add_edges([0, 1], [1, 0], [1.0, 1.0], [-0.5, 0.0])
    with pytest.raises(ValueError):
        net.add_edges([0, 1], [1, 1], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(IndexError):
        net.add_edges([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0])
    # a rejected bulk call adds nothing, not even its valid entries
    assert net.arc_head == [] and net.arc_cap == []
    assert not net.source_cap.any() and not net.sink_cap.any()


def _prepend_lists(net):
    """Per-node arc lists as built by prepending each arc in index order."""
    first = [-1] * net.node_count
    arc_next = []
    for a in range(len(net.arc_head)):
        tail = net.arc_head[a ^ 1]
        arc_next.append(first[tail])
        first[tail] = a
    return first, arc_next


def test_bulk_build_matches_per_edge_layout():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n, terminals, edges = random_flow_network(rng)
        single = _build(n, terminals, edges)
        bulk = FlowNetwork(n)
        bulk.add_terminals(*np.array(terminals).T)
        split = int(rng.integers(0, len(edges) + 1))
        for part in (edges[:split], edges[split:]):  # two calls, one may be empty
            cols = np.array(part, dtype=np.float64).reshape(-1, 4)
            bulk.add_edges(cols[:, 0].astype(int), cols[:, 1].astype(int),
                           cols[:, 2], cols[:, 3])
        assert bulk.source_cap.tolist() == single.source_cap.tolist()
        assert bulk.sink_cap.tolist() == single.sink_cap.tolist()
        assert bulk.arc_head == single.arc_head
        assert bulk.arc_cap == single.arc_cap
        assert bulk.links() == single.links() == _prepend_lists(single)
        a, b = min_cut(bulk), min_cut(single)
        assert a.flow_value == b.flow_value
        assert np.array_equal(a.side, b.side)


def test_bulk_terminals_accumulate_over_repeated_nodes():
    bulk = FlowNetwork(3)
    bulk.add_terminals([1.0, 0.5, 2.0], [0.0, 4.0, 0.25], nodes=[2, 0, 2])
    single = FlowNetwork(3)
    for i, src, snk in ((2, 1.0, 0.0), (0, 0.5, 4.0), (2, 2.0, 0.25)):
        single.add_terminal(i, src, snk)
    assert bulk.source_cap.tolist() == single.source_cap.tolist() == [0.5, 0, 3]
    assert bulk.sink_cap.tolist() == single.sink_cap.tolist() == [4, 0, 0.25]


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n, terminals, edges = random_flow_network(rng, max_nodes=8)
        res = min_cut(_build(n, terminals, edges))
        want, _ = brute_force_min_cut(n, terminals, edges)
        assert abs(res.flow_value - want) <= 1e-9
        # the returned side labeling really is a minimum cut
        got = cut_capacity(res.side, terminals, edges)
        assert abs(got - want) <= 1e-9


def test_flow_invariant_under_edge_permutation():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n, terminals, edges = random_flow_network(rng, max_nodes=8)
        base = min_cut(_build(n, terminals, edges)).flow_value
        perm = [edges[k] for k in rng.permutation(len(edges))]
        assert abs(min_cut(_build(n, terminals, perm)).flow_value
                   - base) <= 1e-9


def test_source_side_is_residual_reachable_set():
    # chain src -> 0 -> 1 -> sink with a bottleneck in the middle
    net = FlowNetwork(2)
    net.add_terminal(0, 5.0, 0.0)
    net.add_terminal(1, 0.0, 5.0)
    net.add_edge(0, 1, 1.0, 0.0)
    res = min_cut(net)
    assert abs(res.flow_value - 1.0) < 1e-12
    assert res.side[0] == SOURCE and res.side[1] == SINK
