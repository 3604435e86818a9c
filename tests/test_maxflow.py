import hashlib

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from motionseg.core import GridAdjacency
from motionseg.maxflow import SINK, SOURCE, ArcLayout, FlowNetwork, min_cut

from helpers import flow_network, random_flow_network, unaries_decide
from oracles import brute_force_min_cut, cut_capacity


def test_two_node_example():
    terminals = [(3.0, 2.0), (2.0, 3.0)]
    edges = [(0, 1, 1.0, 0.0)]
    res = min_cut(flow_network(2, terminals, edges))
    want, _ = brute_force_min_cut(2, terminals, edges)
    assert want == 5.0
    assert abs(res.flow_value - 5.0) < 1e-12


def test_single_node_zero_source_capacity():
    res = min_cut(FlowNetwork([0.0], [7.0], ArcLayout(1, [], [])))
    assert res.flow_value == 0.0
    # a node the source cannot reach in the residual graph is SINK side
    assert res.side[0] == SINK


def test_single_node_source_side():
    res = min_cut(FlowNetwork([7.0], [0.0], ArcLayout(1, [], [])))
    assert res.flow_value == 0.0
    assert res.side[0] == SOURCE


def test_empty_graph():
    res = min_cut(FlowNetwork([], [], ArcLayout(0, [], [])))
    assert res.flow_value == 0.0
    assert res.side.shape == (0,)


def test_symmetric_graph_under_node_swap():
    terminals = [(4.0, 1.0), (1.0, 4.0)]
    edges = [(0, 1, 2.0, 2.0)]
    a = min_cut(flow_network(2, terminals, edges))
    b = min_cut(flow_network(2, list(reversed(terminals)),
                             [(1, 0, 2.0, 2.0)]))
    assert abs(a.flow_value - b.flow_value) < 1e-12


def test_rejects_bad_capacities():
    good = {"source_cap": [1.0, 2.0], "sink_cap": [0.0, 0.5],
            "layout": ArcLayout(2, [0, 1], [1, 0]), "cap": [1.0, 1.0],
            "rev_cap": [0.0, 0.0]}
    FlowNetwork(**good)
    inf, nan = float("inf"), float("nan")
    for bad in ({"source_cap": [-1.0, 0.0]}, {"sink_cap": [0.0, nan]},
                {"sink_cap": inf}, {"cap": [1.0, inf]},
                {"rev_cap": [-0.5, 0.0]}, {"cap": nan}):
        with pytest.raises(ValueError):
            FlowNetwork(**{**good, **bad})
    with pytest.raises(ValueError, match="self-edge at node 1"):
        ArcLayout(2, [0, 1], [1, 1])
    for heads in ([1, 2], [-1, 0]):
        with pytest.raises(IndexError):
            ArcLayout(2, [0, 1], heads)


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n, terminals, edges = random_flow_network(rng, max_nodes=8)
        # floored to integers, capacities tie and vanish often, so the
        # minimum cut is seldom unique and some nodes stay free
        floored = ([(float(np.floor(s)), float(np.floor(t)))
                    for s, t in terminals],
                   [(i, j, float(np.floor(c)), float(np.floor(r)))
                    for i, j, c, r in edges])
        for terms, arcs in ((terminals, edges), floored):
            net = flow_network(n, terms, arcs)
            assert len(net.arc_head) == len(net.arc_cap) == 2 * len(arcs)
            _assert_matches_brute_force(net, n, terms, arcs)


def _assert_matches_brute_force(net, n, terms, arcs):
    res = min_cut(net)
    want, minimizers = brute_force_min_cut(n, terms, arcs)
    assert abs(res.flow_value - want) <= 1e-9
    # the returned side labeling really is a minimum cut
    got = cut_capacity(res.side, terms, arcs)
    assert abs(got - want) <= 1e-9
    # and the smallest one: SOURCE holds exactly the nodes that every
    # minimum cut puts on the source side
    assert np.array_equal(res.side == SOURCE, (minimizers == 0).all(axis=0))
    return res


def test_decided_networks_match_brute_force():
    # zeroing every arc out of the source-excess nodes leaves a network its
    # unaries decide; one of those arcs made positive again needs the search
    rng = np.random.default_rng(18)
    searched = 0
    for _ in range(60):
        n, terminals, edges = random_flow_network(rng, max_nodes=8)
        # about one node in four has exactly zero excess
        terms = [(s, s) if rng.random() < 0.25 else (s, t)
                 for s, t in terminals]
        excess = np.array([s - t for s, t in terms])
        out = excess > 0.0
        arcs = [(i, j, 0.0 if out[i] and not out[j] else c,
                 0.0 if out[j] and not out[i] else r)
                for i, j, c, r in edges]
        net = flow_network(n, terms, arcs)
        assert unaries_decide(net)
        res = _assert_matches_brute_force(net, n, terms, arcs)
        folded = float(np.minimum(net.source_cap, net.sink_cap).sum())
        assert res.flow_value == folded
        assert np.array_equal(res.side == SOURCE, out)
        # reopen one zeroed arc into a sink-excess node: it must carry flow
        # (edge, field of its arc out of `out`: 2 for i -> j, 3 for j -> i)
        reopen = [(k, 2 if out[i] else 3) for k, (i, j, _, _) in enumerate(arcs)
                  if out[i] and excess[j] < 0.0 or out[j] and excess[i] < 0.0]
        if not reopen:
            continue
        k, field = reopen[int(rng.integers(len(reopen)))]
        arcs[k] = arcs[k][:field] + (1.5,) + arcs[k][field + 1:]
        net = flow_network(n, terms, arcs)
        assert not unaries_decide(net)
        res = _assert_matches_brute_force(net, n, terms, arcs)
        assert res.flow_value > folded
        searched += 1
    assert searched >= 20


def test_flow_invariant_under_edge_permutation():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n, terminals, edges = random_flow_network(rng, max_nodes=8)
        base = min_cut(flow_network(n, terminals, edges)).flow_value
        perm = [edges[k] for k in rng.permutation(len(edges))]
        assert abs(min_cut(flow_network(n, terminals, perm)).flow_value
                   - base) <= 1e-9


def test_source_side_is_residual_reachable_set():
    # chain src -> 0 -> 1 -> sink with a bottleneck in the middle
    res = min_cut(FlowNetwork([5.0, 0.0], [0.0, 5.0], ArcLayout(2, [0], [1]),
                              [1.0], [0.0]))
    assert abs(res.flow_value - 1.0) < 1e-12
    assert res.side[0] == SOURCE and res.side[1] == SINK


def test_rejects_node_ids_that_are_not_integers():
    # 0.6 and 1.9 used to be truncated to the edges (0, 1) and (1, 2)
    with pytest.raises(TypeError, match="got 0.6"):
        ArcLayout(3, [0.6, 1.9], [1.4, 2.2])
    with pytest.raises(TypeError, match="got True"):
        ArcLayout(2, [0], [True])
    # integer ids of any width pass, and so do empty ones of any dtype
    layout = ArcLayout(2, np.array([0], np.uint8), np.array([1], np.int32))
    assert layout.arc_head.tolist() == [1, 0]
    assert ArcLayout(1, [], []).arc_head.shape == (0,)


def _drained_grid(rng, height, width):
    """A ``height`` x ``width`` grid network whose first columns hold source
    excess, its last column sink excess and the columns between none (some
    of their nodes with equal nonzero terminals). Each row's arcs towards
    the sink column carry more than all of that row's source excess, so no
    set of nodes keeps any: the whole block drains, and the minimal source
    side is empty. The other arcs are random, about half of them 0, so many
    block roots start with no arc out of the block. Returns the node count,
    terminals and edges of ``brute_force_min_cut``."""
    block_cols = int(rng.integers(1, width - 1))
    col = np.arange(height * width) % width
    terminals = []
    for c in col:
        if c < block_cols:
            terminals.append((float(rng.uniform(0.1, 1.0)), 0.0))
        elif c == width - 1:
            terminals.append((0.0, 50.0))
        else:
            t = float(rng.uniform(0.0, 1.0)) * (rng.random() < 0.5)
            terminals.append((t, t))
    edges = []
    for i in range(height * width):
        if col[i] + 1 < width:
            edges.append((i, i + 1, block_cols + float(rng.uniform(0.0, 0.2)),
                          float(rng.uniform(0.0, 4.0)) * (rng.random() < 0.5)))
        if i + width < height * width:
            caps = (float(rng.uniform(0.0, 4.0)), 0.0)
            edges.append((i, i + width, *caps[::int(rng.choice([1, -1]))]))
    return height * width, terminals, edges


def test_a_drained_source_block_matches_brute_force():
    # only the block roots with an arc into a zero-excess column start the
    # search; the others feed it once drained roots are re-hung below them
    # and adoption frees their neighbours. 2x5 grid, nodes 0-4 the top row:
    # 2 and 7 start, 0, 1, 5 and 6 have no arc out of the block, and the
    # search must regrow from the drained root 2 after 6 and 7 are freed.
    excess = [0.5, 0.9, 0.5, 0.0, -50.0, 0.7, 0.7, 0.8, 0.0, -50.0]
    cases = [(10, [(max(x, 0.0), max(-x, 0.0)) for x in excess],
              [(0, 1, 3.6, 0.0), (0, 5, 0.0, 4.9), (1, 2, 2.4, 0.0),
               (1, 6, 0.5, 3.6), (2, 3, 2.1, 0.0), (2, 7, 4.6, 1.3),
               (3, 4, 2.4, 0.0), (3, 8, 0.0, 4.4), (4, 9, 2.1, 0.6),
               (5, 6, 3.2, 0.0), (6, 7, 3.3, 2.0), (7, 8, 2.8, 0.0),
               (8, 9, 2.8, 4.1)])]
    rng = np.random.default_rng(28)
    for _ in range(150):
        shape = [(2, 4), (3, 4), (2, 5), (2, 6), (3, 3), (4, 3)][
            rng.integers(6)]
        cases.append(_drained_grid(rng, *shape))
    for n, terms, arcs in cases:
        net = flow_network(n, terms, arcs)
        assert not unaries_decide(net)
        res = _assert_matches_brute_force(net, n, terms, arcs)
        assert (res.side == SINK).all()
        drained = sum(s for s, _ in terms)  # block excess and equal pairs
        assert res.flow_value == pytest.approx(drained, rel=1e-12)
        assert cut_capacity(res.side, terms, arcs) == pytest.approx(
            drained, rel=1e-12)


def _wide_caps(rng, size):
    """Capacities spread over 16 decades, about one in seven exactly 0."""
    return (rng.random(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
            * (rng.random(size) > 0.15))


def test_cut_bits_are_pinned():
    # flows are only compared within 1e-9 above; the exact flow bits also
    # pin the arc order and the search order of the solver, which decide
    # the order the flow is summed in. The sides are pinned apart: they are
    # the minimal source side of a minimum cut, so no search order that
    # solves the cut exactly may change them. 19 of the 200 networks are
    # decided by their unaries and return before the search, so the digests
    # pin both paths.
    rng = np.random.default_rng(16)
    sides, flows = hashlib.sha256(), hashlib.sha256()
    for _ in range(200):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 4 * n))
        tails = rng.integers(0, n, m)
        heads = (tails + rng.integers(1, n, m)) % n
        source, sink = _wide_caps(rng, n), _wide_caps(rng, n)
        cap, rev_cap = _wide_caps(rng, m), _wide_caps(rng, m)
        res = min_cut(FlowNetwork(source, sink, ArcLayout(n, tails, heads),
                                  cap, rev_cap))
        sides.update(res.side.tobytes())
        flows.update(res.flow_value.hex().encode())
    assert sides.hexdigest() == (
        "15bd474a72bc11149a06c5654f77048d325fcdf6bbb3efea2c1fd9a6a1181155")
    assert flows.hexdigest() == (
        "73cdb7013f356ca8fef77551c24953954295dde0ea108cd6ca79aae66fcee5a2")


def _grid_network(rng, height, width, bands=0, decided=False):
    """Terminals, ``GridAdjacency(width, height)``'s edges and their (cap,
    rev_cap), with wide magnitudes (``_wide_caps``). Both capacities are 0 on
    the edges inside each of ``bands`` random rectangles, as on a boundary
    band; with ``decided``, every arc out of the source-excess nodes is 0
    too, so the unaries decide the cut."""
    n = height * width
    edges = GridAdjacency(width, height).edges()
    source, sink = _wide_caps(rng, n), _wide_caps(rng, n)
    ties = rng.random(n) < 0.1
    sink[ties] = source[ties]
    cap, rev_cap = _wide_caps(rng, len(edges)), _wide_caps(rng, len(edges))
    row, col = np.divmod(np.arange(n), width)
    for _ in range(bands):
        r0, r1 = np.sort(rng.integers(0, height + 1, 2))
        c0, c1 = np.sort(rng.integers(0, width + 1, 2))
        inside = (r0 <= row) & (row <= r1) & (c0 <= col) & (col <= c1)
        zero = inside[edges[:, 0]] & inside[edges[:, 1]]
        cap[zero] = rev_cap[zero] = 0.0
    if decided:
        out = source > sink
        cap[out[edges[:, 0]] & ~out[edges[:, 1]]] = 0.0
        rev_cap[out[edges[:, 1]] & ~out[edges[:, 0]]] = 0.0
    return source, sink, edges, cap, rev_cap


def _filtered_cut(source, sink, edges, cap, rev_cap):
    """The cut of the network without the edges of capacity 0 both ways."""
    keep = (cap > 0.0) | (rev_cap > 0.0)
    layout = ArcLayout(len(source), edges[keep, 0], edges[keep, 1])
    return min_cut(FlowNetwork(source, sink, layout, cap[keep], rev_cap[keep]))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0, False, 0)
@example(1, 12, 1, False, 1)
@example(12, 1, 1, False, 2)
@example(12, 12, 3, True, 3)
def test_the_grid_layout_cuts_like_the_filtered_edges(height, width, bands,
                                                      decided, seed):
    # the grid layout keeps the arcs of capacity 0 both ways, which the
    # search never takes; the other arcs keep their order in every node's
    # list, so the search makes the same moves and sums the same flows
    args = _grid_network(np.random.default_rng(seed), height, width, bands,
                         decided)
    source, sink, _, cap, rev_cap = args
    net = FlowNetwork(source, sink, GridAdjacency(width, height).arc_layout(),
                      cap, rev_cap)
    event("decided" if unaries_decide(net) else "searched")
    assert unaries_decide(net) or not decided
    event("zero arcs" if ((cap == 0.0) & (rev_cap == 0.0)).any()
          else "no zero arc")
    res, want = min_cut(net), _filtered_cut(*args)
    assert res.side.tobytes() == want.side.tobytes()
    assert res.flow_value.hex() == want.flow_value.hex()


def test_the_grid_layout_is_shared_and_read_only():
    layout = GridAdjacency(7, 5).arc_layout()
    assert GridAdjacency(7, 5).arc_layout() is layout
    assert GridAdjacency(5, 7).arc_layout() is not layout
    assert layout.node_count == 35 and len(layout.arc_head) == 2 * 58
    links = layout.links
    assert [len(m) for m in links] == [35, 116, 116]
    for view in (layout.arc_head, *(np.frombuffer(m, np.int64)
                                    for m in links)):
        with pytest.raises(ValueError):
            view[0] = 1
    for m in links:
        with pytest.raises(TypeError):
            m[0] = 1
    # the memoryview of the heads reads the bytes numpy sees
    assert np.array_equal(np.frombuffer(links[2], np.int64), layout.arc_head)


def test_cuts_through_cached_layouts_leak_no_state():
    # two grid sizes interleaved, one network repeated: each cut equals
    # the cut through a layout of its own, and the links never change
    rng = np.random.default_rng(31)
    shapes = [(6, 9), (9, 6), (6, 9), (9, 6), (6, 9)]
    nets = [_grid_network(rng, h, w, bands=1) for h, w in shapes[:4]]
    nets.append(nets[0])
    before = {s: [bytes(m) for m in GridAdjacency(s[1], s[0]).arc_layout()
                  .links] for s in set(shapes)}
    alone = []
    for source, sink, edges, cap, rev_cap in nets:
        own = ArcLayout(len(source), edges[:, 0], edges[:, 1])
        alone.append(min_cut(FlowNetwork(source, sink, own, cap, rev_cap)))
    searched = 0
    for (h, w), (source, sink, _, cap, rev_cap), want in zip(shapes, nets,
                                                              alone):
        net = FlowNetwork(source, sink, GridAdjacency(w, h).arc_layout(),
                          cap, rev_cap)
        searched += not unaries_decide(net)
        res = min_cut(net)
        assert res.side.tobytes() == want.side.tobytes()
        assert res.flow_value.hex() == want.flow_value.hex()
    assert searched == len(nets)
    for (h, w), links in before.items():
        assert [bytes(m) for m in GridAdjacency(w, h).arc_layout().links] \
            == links


def test_the_layout_must_fit_the_network():
    layout = GridAdjacency(3, 2).arc_layout()
    with pytest.raises(ValueError, match="layout has 6 nodes, not 5"):
        FlowNetwork(np.ones(5), np.zeros(5), layout, 1.0, 1.0)
    # one capacity per layout edge
    with pytest.raises(ValueError, match="broadcast"):
        FlowNetwork(np.ones(6), np.zeros(6), layout, [1.0, 2.0], 1.0)
