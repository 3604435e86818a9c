"""Exact s-t min cut / max flow on sparse graphs.

This is the computational kernel under all the energy minimization in the
package. The solver is Boykov-Kolmogorov with one search tree, grown from
the source against the sink-excess nodes as fixed roots and reused between
augmentations. The search starts only at the source roots on the contested
boundary; ``min_cut`` says why that suffices and why the search ends at the
minimal source side.

A network is built once, in one constructor call, from a per-node pair of
terminal capacity vectors and the ``ArcLayout`` of its edges with a
capacity vector for each direction. Capacities are 64-bit floats (the
unaries are log-likelihoods, so no integer scaling is applied). Terminal
capacities are folded into a single per-node residual before the search,
which shifts the flow by a constant that is added back at the end.

A network's arcs and each node's list of them form an ``ArcLayout``, built
from its edge list or shared, as ``GridAdjacency.arc_layout`` shares one per
frame size (1.1 MB at 96x160, 5.5 MB at 240x320; 4 sizes kept). Unless the
unaries decide the cut, ``min_cut`` reads the links in place and copies its
mutable state into typed ``array`` buffers: one buffer copy each, where a
list would make one Python object per element. The doubles keep their IEEE
values, so the arithmetic is the same.
"""

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SOURCE = 0
SINK = 1

# parent-arc sentinels; free nodes and orphans alike have no parent
_TERMINAL = -1
_NO_PARENT = -2

_FREE, _S, _T = 0, 1, 2


def _check_caps(cap, shape):
    cap = np.broadcast_to(np.asarray(cap, dtype=np.float64), shape)
    bad = ~(np.isfinite(cap) & (cap >= 0.0))
    if bad.any():
        raise ValueError(
            f"capacities must be finite and >= 0, got {cap[bad][0]}")
    return cap


class ArcLayout:
    """The arcs of edges (tails[e], heads[e]) over ``node_count`` nodes: arc
    ``2e`` runs tails[e] -> heads[e] and ``2e + 1`` back, so ``a ^ 1`` is
    ``a`` reversed. ``arc_head`` is a read-only int64 array; ``links``, made
    on first use, are the read-only memoryviews ``(first, nxt, head)``:
    node i's arcs, highest id first, are first[i], nxt[first[i]], ... to -1.
    """

    def __init__(self, node_count, tails, heads):
        for ids in map(np.asarray, (tails, heads)):
            if ids.size and not np.issubdtype(ids.dtype, np.integer):
                raise TypeError(f"edge node ids must be integers, got "
                                f"{ids.ravel().tolist()[0]!r}")
        ends = np.stack([tails, heads], axis=1).astype(np.int64).reshape(-1, 2)
        loops = ends[ends[:, 0] == ends[:, 1], 0]
        if loops.size:
            raise ValueError(f"self-edge at node {loops[0]}")
        if ends.size and not 0 <= ends.min() <= ends.max() < node_count:
            raise IndexError(f"edge node outside [0, {node_count})")
        self.node_count, self.edge_count = node_count, len(ends)
        self._head = ends[:, ::-1].tobytes()
        self.arc_head = np.frombuffer(self._head, np.int64)

    @cached_property
    def links(self) -> tuple:
        tail = self.arc_head.reshape(-1, 2)[:, ::-1].ravel()
        first = np.full(self.node_count, -1, np.int64)
        np.maximum.at(first, tail, np.arange(len(tail)))
        order = np.argsort(tail, kind="stable")
        same = tail[order[1:]] == tail[order[:-1]]
        nxt = np.full(len(tail), -1, np.int64)
        nxt[order[1:][same]] = order[:-1][same]
        return tuple(memoryview(b).cast("q")
                     for b in (first.tobytes(), nxt.tobytes(), self._head))


class FlowNetwork:
    """Sparse s-t network, built once from arrays.

    Node i has capacity ``source_cap[i]`` from the source and
    ``sink_cap[i]`` to the sink; edge e of the ``ArcLayout`` ``layout``
    adds its arc tails[e] -> heads[e] with capacity ``cap[e]`` and the
    reverse arc with ``rev_cap[e]``. Scalar capacities broadcast. The node
    count is ``len(source_cap)`` and must be the layout's. ``source_cap``,
    ``sink_cap``, the layout's ``arc_head`` and the per-arc ``arc_cap``
    (float64) are read-only arrays.
    """

    def __init__(self, source_cap, sink_cap, layout, cap=(), rev_cap=()):
        n = len(source_cap)
        self.node_count = n
        self.source_cap, self.sink_cap = (
            _check_caps(c, (n,)).copy() for c in (source_cap, sink_cap))
        if layout.node_count != n:
            raise ValueError(f"layout has {layout.node_count} nodes, not {n}")
        self.layout, self.arc_head = layout, layout.arc_head
        caps = [_check_caps(c, layout.edge_count) for c in (cap, rev_cap)]
        self.arc_cap = np.stack(caps, axis=1).ravel()
        for a in (self.source_cap, self.sink_cap, self.arc_cap):
            a.setflags(write=False)


@dataclass(frozen=True)
class MinCutResult:
    flow_value: float
    side: np.ndarray  # (node_count,), SOURCE or SINK

    def __post_init__(self):
        self.side.setflags(write=False)


def min_cut(net: FlowNetwork) -> MinCutResult:
    """Compute the max flow and a minimum cut of ``net``.

    The returned flow equals the capacity of the cut induced by ``side``,
    and no cut has smaller capacity. Only the source tree grows, from the
    source-excess nodes to the sink-excess roots (a saturated root may be
    re-hung below a sink-tree neighbour). It starts active only at the
    source roots with a positive-capacity arc to a node outside the
    source-excess set: from any other root every residual arc leads to a
    source root, so scanning it would grow nothing. Such a root is
    activated when adoption frees a neighbour it has a residual arc to,
    as any source-tree node is. SOURCE is the final source tree:
    with no node active it is closed under residual arcs and holds no sink
    excess, so no augmenting path is left, and its nodes reach the source
    along residual arcs: it is the residual reachable set of the source,
    the minimal source side of a minimum cut (Picard & Queyranne, 1980).
    If no arc of positive capacity leaves the source-excess nodes, the search
    would grow no node and make no augmentation: its tree would stay that
    set and its flow the folded terminal sum, so both are returned at once.
    The search reads ``net.layout``'s links in place and copies only the
    mutable state: ``parent``, ``rescap``, ``tr``, ``tree`` and ``in_active``.
    Arcs of capacity 0 both ways are never residual, so keeping them in the
    layout changes no step of the search if the other arcs keep their order.
    """
    # fold terminal capacities: excess (tr) > 0 means residual from source,
    # < 0 residual to sink; min(src, snk) flows immediately
    excess = net.source_cap - net.sink_cap
    flow = float(np.minimum(net.source_cap, net.sink_cap).sum())
    pos = excess > 0.0
    ends = pos[net.arc_head].reshape(-1, 2)  # pos at edge e's head, tail
    out_cap = np.where(ends[:, 1], net.arc_cap[::2], net.arc_cap[1::2])
    leaving = (ends[:, 0] != ends[:, 1]) & (out_cap > 0.0)
    if not leaving.any():
        return MinCutResult(flow, np.where(pos, SOURCE, SINK).astype(np.uint8))
    # the source roots such an arc leaves start the search (see above)
    boundary = np.zeros(net.node_count, dtype=bool)
    boundary[net.arc_head.reshape(-1, 2)[leaving]] = True
    boundary &= pos

    first, nxt, head = net.layout.links
    # every node with terminal residual is a root; only source roots grow
    tree = np.select([pos, excess < 0.0], [_S, _T], _FREE)
    parent = array("q", np.where(excess != 0.0, _TERMINAL, _NO_PARENT)
                   .astype(np.int64).tobytes())
    rescap, tr = (array("d", a.tobytes()) for a in (net.arc_cap, excess))
    tree = array("b", tree.astype(np.int8).tobytes())
    in_active = bytearray(boundary.tobytes())
    active = deque(np.flatnonzero(boundary).tolist())
    orphans = deque()

    def activate(i):
        if not in_active[i]:
            in_active[i] = True
            active.append(i)

    def origin_is_terminal(q):
        # walk up to a node without a parent arc: a root or an orphan
        while (p := parent[q]) >= 0:
            q = head[p]
        return p == _TERMINAL

    def adopt():
        while orphans:
            x = orphans.popleft()
            side_tree = tree[x]
            new_parent = -1
            a = first[x]
            while a != -1:
                q = head[a]
                if tree[q] == side_tree:
                    res = rescap[a ^ 1] if side_tree == _S else rescap[a]
                    if res > 0.0 and origin_is_terminal(q):
                        new_parent = a
                        break
                a = nxt[a]
            if new_parent != -1:
                parent[x] = new_parent
                continue
            # no parent found: x leaves the tree; S neighbours may regrow
            a = first[x]
            while a != -1:
                q = head[a]
                if tree[q] == side_tree:
                    if side_tree == _S and rescap[a ^ 1] > 0.0:
                        activate(q)
                    pq = parent[q]
                    if pq >= 0 and head[pq] == x:
                        parent[q] = _NO_PARENT
                        orphans.append(q)
                a = nxt[a]
            tree[x] = _FREE  # its parent is _NO_PARENT since it was orphaned

    def augment(ca):
        nonlocal flow
        # ca points from the S side to the T side
        s_start = head[ca ^ 1]
        t_start = head[ca]

        bottleneck = rescap[ca]
        x = s_start
        while parent[x] != _TERMINAL:
            a = parent[x]
            if rescap[a ^ 1] < bottleneck:
                bottleneck = rescap[a ^ 1]
            x = head[a]
        s_root = x
        if tr[s_root] < bottleneck:
            bottleneck = tr[s_root]
        x = t_start
        while parent[x] != _TERMINAL:
            a = parent[x]
            if rescap[a] < bottleneck:
                bottleneck = rescap[a]
            x = head[a]
        t_root = x
        if -tr[t_root] < bottleneck:
            bottleneck = -tr[t_root]

        rescap[ca] -= bottleneck
        rescap[ca ^ 1] += bottleneck
        x = s_start
        while parent[x] != _TERMINAL:
            a = parent[x]
            rescap[a ^ 1] -= bottleneck
            rescap[a] += bottleneck
            if rescap[a ^ 1] <= 0.0:
                parent[x] = _NO_PARENT
                orphans.append(x)
            x = head[a]
        tr[s_root] -= bottleneck
        if tr[s_root] <= 0.0:
            parent[s_root] = _NO_PARENT
            orphans.append(s_root)
        x = t_start
        while parent[x] != _TERMINAL:
            a = parent[x]
            rescap[a] -= bottleneck
            rescap[a ^ 1] += bottleneck
            if rescap[a] <= 0.0:
                parent[x] = _NO_PARENT
                orphans.append(x)
            x = head[a]
        tr[t_root] += bottleneck
        if tr[t_root] >= 0.0:
            parent[t_root] = _NO_PARENT
            orphans.append(t_root)

        flow += bottleneck

    while active:
        p = active.popleft()
        in_active[p] = False
        if tree[p] == _FREE:  # an active node is in the source tree or free
            continue
        connecting = -1
        a = first[p]
        while a != -1:
            if rescap[a] > 0.0:
                q = head[a]
                tq = tree[q]
                if tq == _FREE:
                    tree[q] = _S
                    parent[q] = a ^ 1
                    activate(q)
                elif tq == _T:
                    connecting = a
                    break
            a = nxt[a]
        if connecting != -1:
            activate(p)  # p may have further growth after the augmentation
            augment(connecting)
            adopt()

    side = np.where(np.frombuffer(tree, np.int8) == _S, SOURCE, SINK)
    return MinCutResult(float(flow), side.astype(np.uint8))
