"""Exact s-t min cut / max flow on sparse graphs.

This is the computational kernel under all the energy minimization in the
package. The solver is the Boykov-Kolmogorov augmenting-path algorithm:
two search trees are grown from source and sink, reused between
augmentations, with orphaned subtrees re-adopted instead of rebuilt.

A network is built once, in one constructor call, from a per-node pair of
terminal capacity vectors and an edge list with a capacity vector for
each direction. Capacities are 64-bit floats (the unaries are
log-likelihoods, so no integer scaling is applied). Terminal capacities
are folded into a single per-node residual before the search, which
shifts the flow by a constant that is added back at the end.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

SOURCE = 0
SINK = 1

# parent-arc sentinels
_TERMINAL = -1
_NO_PARENT = -2
_ORPHAN = -3

_FREE, _S, _T = 0, 1, 2


def _check_caps(cap, shape):
    cap = np.broadcast_to(np.asarray(cap, dtype=np.float64), shape)
    bad = ~(np.isfinite(cap) & (cap >= 0.0))
    if bad.any():
        raise ValueError(
            f"capacities must be finite and >= 0, got {cap[bad][0]}")
    return cap


class FlowNetwork:
    """Sparse s-t network, built once from arrays.

    Node i has capacity ``source_cap[i]`` from the source and
    ``sink_cap[i]`` to the sink; edge e adds the arc tails[e] -> heads[e]
    with capacity ``cap[e]`` and the reverse arc with ``rev_cap[e]``.
    Scalar capacities broadcast. The node count is ``len(source_cap)``.
    Arcs are stored in sister pairs (arc ``a`` and ``a ^ 1`` point in
    opposite directions), the layout the solver operates on directly.
    """

    def __init__(self, source_cap, sink_cap, tails=(), heads=(), cap=(),
                 rev_cap=()):
        n = len(source_cap)
        self.node_count = n
        self.source_cap, self.sink_cap = (
            _check_caps(c, (n,)).copy() for c in (source_cap, sink_cap))
        ends = np.stack([tails, heads], axis=1).astype(np.int64).reshape(-1, 2)
        loops = ends[ends[:, 0] == ends[:, 1], 0]
        if loops.size:
            raise ValueError(f"self-edge at node {loops[0]}")
        if ends.size and not 0 <= ends.min() <= ends.max() < n:
            raise IndexError(f"edge node outside [0, {n})")
        caps = [_check_caps(c, len(ends)) for c in (cap, rev_cap)]
        # lists, as the solver indexes them one element at a time
        self.arc_head = ends[:, ::-1].ravel().tolist()
        self.arc_cap = np.stack(caps, axis=1).ravel().tolist()

    def links(self):
        """Each node's arc list as ``(first, arc_next)``: node i's arcs are
        first[i], arc_next[first[i]], ... up to -1, highest arc id first."""
        head = np.asarray(self.arc_head, dtype=np.int64).reshape(-1, 2)
        tail = head[:, ::-1].ravel()
        first = np.full(self.node_count, -1)
        np.maximum.at(first, tail, np.arange(len(tail)))
        order = np.argsort(tail, kind="stable")
        same = tail[order[1:]] == tail[order[:-1]]
        arc_next = np.full(len(tail), -1)
        arc_next[order[1:][same]] = order[:-1][same]
        return first.tolist(), arc_next.tolist()


@dataclass(frozen=True)
class MinCutResult:
    flow_value: float
    side: np.ndarray  # (node_count,), SOURCE or SINK

    def __post_init__(self):
        self.side.setflags(write=False)


def min_cut(net: FlowNetwork) -> MinCutResult:
    """Compute the max flow and a minimum cut of ``net``.

    The returned flow equals the capacity of the cut induced by ``side``,
    and no cut has smaller capacity. Nodes reachable from the source in
    the final residual graph are labeled SOURCE; in particular free nodes
    fall on the SINK side.
    """
    n = net.node_count
    if n == 0:
        return MinCutResult(0.0, np.zeros(0, dtype=np.uint8))

    first, nxt = net.links()
    head = net.arc_head
    rescap = list(net.arc_cap)

    # fold terminal capacities: tr > 0 means residual from source,
    # tr < 0 residual to sink; min(src, snk) flows immediately
    excess = net.source_cap - net.sink_cap
    tr = excess.tolist()
    flow = float(np.minimum(net.source_cap, net.sink_cap).sum())

    # every node with terminal residual starts active in its own tree
    tree = np.select([excess > 0.0, excess < 0.0], [_S, _T], _FREE).tolist()
    parent = np.where(excess != 0.0, _TERMINAL, _NO_PARENT).tolist()
    in_active = (excess != 0.0).tolist()
    active = deque(np.flatnonzero(excess).tolist())
    orphans = deque()

    def activate(i):
        if not in_active[i]:
            in_active[i] = True
            active.append(i)

    def origin_is_terminal(q):
        # walk to the root; valid parents only (orphans sever the walk)
        while True:
            p = parent[q]
            if p == _TERMINAL:
                return True
            if p < 0:  # _NO_PARENT or _ORPHAN
                return False
            q = head[p]

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
            # no parent found: x leaves the tree
            a = first[x]
            while a != -1:
                q = head[a]
                if tree[q] == side_tree:
                    res = rescap[a ^ 1] if side_tree == _S else rescap[a]
                    if res > 0.0:
                        activate(q)
                    pq = parent[q]
                    if pq >= 0 and head[pq] == x:
                        parent[q] = _ORPHAN
                        orphans.append(q)
                a = nxt[a]
            tree[x] = _FREE
            parent[x] = _NO_PARENT

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
                parent[x] = _ORPHAN
                orphans.append(x)
            x = head[a]
        tr[s_root] -= bottleneck
        if tr[s_root] <= 0.0:
            parent[s_root] = _ORPHAN
            orphans.append(s_root)
        x = t_start
        while parent[x] != _TERMINAL:
            a = parent[x]
            rescap[a] -= bottleneck
            rescap[a ^ 1] += bottleneck
            if rescap[a] <= 0.0:
                parent[x] = _ORPHAN
                orphans.append(x)
            x = head[a]
        tr[t_root] += bottleneck
        if tr[t_root] >= 0.0:
            parent[t_root] = _ORPHAN
            orphans.append(t_root)

        flow += bottleneck

    while active:
        p = active.popleft()
        in_active[p] = False
        if tree[p] == _FREE:
            continue
        connecting = -1
        a = first[p]
        if tree[p] == _S:
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
        else:
            while a != -1:
                if rescap[a ^ 1] > 0.0:
                    q = head[a]
                    tq = tree[q]
                    if tq == _FREE:
                        tree[q] = _T
                        parent[q] = a ^ 1
                        activate(q)
                    elif tq == _S:
                        connecting = a ^ 1
                        break
                a = nxt[a]
        if connecting != -1:
            activate(p)  # p may have further growth after the augmentation
            augment(connecting)
            adopt()

    # label sides by residual reachability from the source
    from_source = np.asarray(tr) > 0.0
    side = np.where(from_source, SOURCE, SINK).astype(np.uint8)
    bfs = deque(np.flatnonzero(from_source).tolist())
    while bfs:
        u = bfs.popleft()
        a = first[u]
        while a != -1:
            if rescap[a] > 0.0:
                v = head[a]
                if side[v] == SINK:
                    side[v] = SOURCE
                    bfs.append(v)
            a = nxt[a]
    return MinCutResult(float(flow), side)
