"""Small builders shared across test modules."""

import numpy as np
from hypothesis import strategies as st

import motionseg.energy
from motionseg.core import GridAdjacency, RgbImage, ScoreMap
from motionseg.energy import EnergyModel
from motionseg.gmm import DEFAULT_COMPONENTS, fit_fgbg, motion_color_samples
from motionseg.loss import weighted_nll_loss
from motionseg.maxflow import SINK, ArcLayout, FlowNetwork
from motionseg.predictor import predict


@st.composite
def binary_masks(draw):
    """Boolean (h, w) masks with sides of 1 to 12 pixels."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=bool).reshape(h, w)


def random_image(rng, height, width):
    return RgbImage(rng.random((height, width, 3)))


def random_scores(rng, height, width, channels):
    raw = rng.random((height, width, channels)) + 0.05
    return ScoreMap(raw / raw.sum(axis=2, keepdims=True))


def random_model(rng, height, width, labels, unary_scale=1.0, pairwise_scale=0.3,
                 nonnegative=False):
    """A random Potts EnergyModel on a small grid.

    With ``nonnegative`` the unaries are uniform in [0, unary_scale], so
    every labeling has nonnegative energy and multiplicative approximation
    bounds are meaningful.
    """
    adjacency = GridAdjacency(width, height)
    if nonnegative:
        unary = unary_scale * rng.random((height * width, len(labels)))
    else:
        unary = unary_scale * rng.standard_normal((height * width, len(labels)))
    pairwise = pairwise_scale * rng.random(adjacency.edge_count)
    return EnergyModel(tuple(labels), unary, pairwise, adjacency)


def random_flow_network(rng, max_nodes=12, max_extra_edges=20):
    """Random terminals and edges for a small flow network."""
    n = int(rng.integers(1, max_nodes + 1))
    terminals = [(float(rng.random() * 4), float(rng.random() * 4))
                 for _ in range(n)]
    edges = []
    if n >= 2:
        for _ in range(int(rng.integers(0, max_extra_edges + 1))):
            i, j = rng.choice(n, size=2, replace=False)
            edges.append((int(i), int(j),
                          float(rng.random() * 3), float(rng.random() * 3)))
    return n, terminals, edges


def flow_network(n, terminals, edges):
    """The FlowNetwork of ``random_flow_network``'s lists: ``terminals``
    holds (source, sink) per node, ``edges`` (i, j, cap_ij, cap_ji)."""
    source, sink = np.array(terminals, dtype=np.float64).reshape(n, 2).T
    tails, heads, cap, rev_cap = np.array(
        edges, dtype=np.float64).reshape(-1, 4).T
    layout = ArcLayout(n, tails.astype(np.int64), heads.astype(np.int64))
    return FlowNetwork(source, sink, layout, cap, rev_cap)


def recorded_cuts(monkeypatch):
    """Record every (network, result) the energy module's cuts solve."""
    cuts = []
    solve = motionseg.energy.min_cut

    def record(net):
        res = solve(net)
        cuts.append((net, res))
        return res

    monkeypatch.setattr(motionseg.energy, "min_cut", record)
    return cuts


def cut_capacity_of(net, side):
    """Capacity of the s-t cut that ``side`` induces in a FlowNetwork."""
    sink = np.asarray(side) == SINK
    tail = net.arc_head.reshape(-1, 2)[:, ::-1].ravel()
    crossing = net.arc_cap[~sink[tail] & sink[net.arc_head]].sum()
    return float(net.source_cap[sink].sum() + net.sink_cap[~sink].sum()
                 + crossing)


def unaries_decide(net):
    """Whether no positive-capacity arc runs from a node with source excess
    to a node without: then the source-excess nodes are the minimal source
    side and the flow is the folded terminal sum."""
    has_excess = net.source_cap > net.sink_cap
    tails, heads = net.arc_head[1::2], net.arc_head[::2]
    forward = has_excess[tails] & ~has_excess[heads] & (net.arc_cap[::2] > 0.0)
    backward = (has_excess[heads] & ~has_excess[tails]
                & (net.arc_cap[1::2] > 0.0))
    return not (forward | backward).any()


def fit_fgbg_from_motion(frames, target_index, n_components=DEFAULT_COMPONENTS,
                         seed=0):
    """Foreground/background GMMs for one frame of a batch of
    (RgbImage, MotionMask) pairs: ``fit_fgbg`` on the batch's motion color
    samples, weighted 1/(1+|t-t'|) towards the target frame t."""
    return fit_fgbg(*motion_color_samples(frames, target_index),
                    n_components, seed)


def batch_loss(model, batch, cw):
    """Mean per-pixel weighted loss of (RgbImage, LabelMap) pairs."""
    total, pixels = 0.0, 0
    for img, labeling in batch:
        loss, _ = weighted_nll_loss(predict(model, img), labeling, cw)
        total += loss
        pixels += labeling.labels.size
    return total / pixels
