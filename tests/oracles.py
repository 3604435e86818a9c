"""Independent oracles the tests compare the library against.

Everything here is deliberately naive: exhaustive enumeration, explicit
loops, textbook formulas. No code is shared with the package beyond its
public data types, so agreement is meaningful evidence; the two
exceptions, ``expansion_full_sweeps`` and ``reference_fit_gmm``, say why.
"""

import numpy as np
from scipy import ndimage
from scipy.special import logsumexp

from motionseg.errors import NoClasses


def all_labelings(site_count, label_count):
    """Every labeling of `site_count` sites as a (label_count**n, n) array."""
    total = label_count ** site_count
    idx = np.arange(total)
    out = np.empty((total, site_count), dtype=np.int64)
    for s in range(site_count - 1, -1, -1):
        out[:, s] = idx % label_count
        idx //= label_count
    return out


def potts_energies(unary, edges, weights, labelings):
    """Energy of each labeling: sum of unaries plus Potts pairwise terms.

    `unary` is (n, L) in column space; `labelings` holds column indices.
    """
    n = unary.shape[0]
    en = unary[np.arange(n)[None, :], labelings].sum(axis=1)
    for (i, j), w in zip(edges, weights):
        en = en + w * (labelings[:, i] != labelings[:, j])
    return en


def enumerate_minimum(unary, edges, weights, label_count):
    """Exhaustive Potts minimum; returns (best labeling, best energy)."""
    labs = all_labelings(unary.shape[0], label_count)
    en = potts_energies(unary, edges, weights, labs)
    best = int(np.argmin(en))
    return labs[best], float(en[best])


def model_columns(model, labeling):
    """Map a LabelMap back to column indices of an EnergyModel."""
    allowed = np.asarray(model.allowed_labels)
    return np.searchsorted(allowed, labeling.labels.ravel())


def potts_weight(z_i, z_j, i, j, band, p):
    """Pairwise weight between 4-neighbor pixels i=(row,col), j=(row,col).

    Zero when both pixels lie in the (H, W) bool `band`, otherwise
    p.smoothness * exp(-p.contrast_scale * |z_i - z_j|^2) / |i - j| for
    the PairwiseParams `p`. The label indicator [x_i != x_j] is left out.
    """
    if band[i] and band[j]:
        return 0.0
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    d2 = float(((z_i - z_j) ** 2).sum())
    dist = float(np.hypot(i[0] - j[0], i[1] - j[1]))
    return p.smoothness * np.exp(-p.contrast_scale * d2) / dist


def expansion_full_sweeps(m, init=None, sweeps=5, energy_trace=None):
    """Expansion moves in whole sweeps over the labels of EnergyModel
    ``m``, ending after ``sweeps`` sweeps or after a sweep without a strict
    decrease; returns the column labeling.

    Unlike the rest of this module it reuses the package's move solver and
    energy (looked up on the module at call time, so recorded cuts see its
    moves): it checks only when the package's move loop may stop.
    """
    import motionseg.energy as energy
    cols = (np.argmin(m.unary, axis=1) if init is None
            else model_columns(m, init))
    edges = m.adjacency.edges()
    e0, e1 = edges[:, 0], edges[:, 1]
    best = energy._energy_of_columns(m.unary, edges, m.pairwise, cols)
    for _ in range(sweeps):
        improved = False
        for a in range(len(m.allowed_labels)):
            ci, cj = cols[e0], cols[e1]
            theta0 = m.unary[np.arange(len(cols)), cols]
            theta1 = m.unary[:, a].copy()
            w_keep = m.pairwise * (ci != cj)
            w_i = m.pairwise * (ci != a)
            w_j = m.pairwise * (cj != a)
            np.add.at(theta1, e0, w_j - w_keep)
            np.add.at(theta1, e1, -w_j)
            y = energy._solve_binary_columns(theta0, theta1, edges[:, ::-1],
                                             w_i + w_j - w_keep, 0.0)
            candidate = np.where(y, a, cols)
            cand_energy = energy._energy_of_columns(m.unary, edges,
                                                    m.pairwise, candidate)
            if cand_energy < best:
                cols, best, improved = candidate, cand_energy, True
            if energy_trace is not None:
                energy_trace.append(best)
        if not improved:
            break
    return cols


def seed_centers(img, rows, cols):
    """SLIC seed centers by a direct loop over the rows x cols grid: each
    stratum midpoint moves to the first strictly lower-gradient pixel of
    its 3x3 neighborhood in (dy, dx) scan order, else stays fractional."""
    h, w = img.height, img.width
    px = img.pixels
    grad = np.zeros((h, w))
    if w > 2:
        grad[:, 1:-1] += ((px[:, 2:] - px[:, :-2]) ** 2).sum(axis=2)
    if h > 2:
        grad[1:-1, :] += ((px[2:, :] - px[:-2, :]) ** 2).sum(axis=2)
    centers = []
    for r in range(rows):
        for c in range(cols):
            fy = (r + 0.5) * h / rows - 0.5
            fx = (c + 0.5) * w / cols - 0.5
            iy = int(np.clip(round(fy), 0, h - 1))
            ix = int(np.clip(round(fx), 0, w - 1))
            best = (iy, ix)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    y, x = iy + dy, ix + dx
                    if 0 <= y < h and 0 <= x < w and grad[y, x] < grad[best]:
                        best = (y, x)
            centers.append((fy, fx) if best == (iy, ix) else best)
    return centers


def slic_assign(px, c_pos, c_col, step, compactness):
    """SLIC's assignment step as a loop over the centers: center ``j``
    takes each pixel of its (2*step+1)-square window, clipped to the frame,
    that it is strictly nearer than every earlier center; -1 where no
    window reaches. The distance is 100**2 times the color SSD plus
    compactness**2 times the squared pixel distance over step**2."""
    h, w = px.shape[:2]
    pos_y, pos_x = np.mgrid[:h, :w]
    dist = np.full((h, w), np.inf)
    ids = np.full((h, w), -1, dtype=np.int32)
    for j in range(len(c_pos)):
        cy, cx = c_pos[j]
        y0, y1 = max(0, int(cy) - step), min(h, int(cy) + step + 1)
        x0, x1 = max(0, int(cx) - step), min(w, int(cx) + step + 1)
        dc = ((px[y0:y1, x0:x1] - c_col[j]) ** 2).sum(axis=2)
        ds = ((pos_y[y0:y1, x0:x1] - cy) ** 2
              + (pos_x[y0:y1, x0:x1] - cx) ** 2)
        d = 100.0 ** 2 * dc + compactness ** 2 * ds / step ** 2
        win = dist[y0:y1, x0:x1]
        better = d < win
        win[better] = d[better]
        ids[y0:y1, x0:x1][better] = j
    return ids


def brute_force_min_cut(node_count, terminals, edges):
    """Minimum s-t cut capacity by enumerating all 2^n side assignments.

    `terminals` is a list of (source_cap, sink_cap) per node; `edges` a
    list of (i, j, cap_ij, cap_ji). Side bit 1 means SINK. Returns
    (min capacity, side bits of every minimizer, one per row), where a
    minimizer is an assignment within 1e-9 of the minimum.
    """
    count = 1 << node_count
    side = (np.arange(count)[:, None] >> np.arange(node_count)[None, :]) & 1
    src = np.array([t[0] for t in terminals], dtype=np.float64)
    snk = np.array([t[1] for t in terminals], dtype=np.float64)
    cost = side @ src + (1 - side) @ snk
    for i, j, cap_ij, cap_ji in edges:
        cost = cost + cap_ij * ((1 - side[:, i]) * side[:, j])
        cost = cost + cap_ji * ((1 - side[:, j]) * side[:, i])
    best = cost.min()
    return float(best), side[cost <= best + 1e-9]


def cut_capacity(side, terminals, edges):
    """Capacity of the cut induced by a side labeling (1 = SINK)."""
    total = 0.0
    for i, (src, snk) in enumerate(terminals):
        total += src if side[i] == 1 else snk
    for i, j, cap_ij, cap_ji in edges:
        if side[i] == 0 and side[j] == 1:
            total += cap_ij
        if side[j] == 0 and side[i] == 1:
            total += cap_ji
    return total


def weighted_ce_loss(logits, labeling, weights):
    """Class-weighted cross entropy straight from the log-softmax formula.

    `logits` is (H, W, C), `labeling` (H, W) ints, `weights` length C.
    """
    lse = logsumexp(logits, axis=2)
    h, w = labeling.shape
    rows, cols = np.mgrid[:h, :w]
    true_logit = logits[rows, cols, labeling]
    return float((np.asarray(weights)[labeling] * (lse - true_logit)).sum())


def fd_loss_gradient(logits, labeling, weights, step=1e-4):
    """Central finite differences of weighted_ce_loss over every logit."""
    grad = np.zeros_like(logits)
    it = np.nditer(logits, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = logits.copy()
        bumped[idx] += step
        hi = weighted_ce_loss(bumped, labeling, weights)
        bumped[idx] -= 2 * step
        lo = weighted_ce_loss(bumped, labeling, weights)
        grad[idx] = (hi - lo) / (2 * step)
    return grad


def prune_oracle(fractions, min_frames=20, lo=0.025, hi=0.50, min_run=20):
    """Longest in-bounds run by direct scan; None when the shot fails."""
    fractions = list(fractions)
    if len(fractions) < min_frames:
        return None
    best_len, best_start = 0, None
    run_start = None
    for idx in range(len(fractions) + 1):
        ok = idx < len(fractions) and lo <= fractions[idx] <= hi
        if ok and run_start is None:
            run_start = idx
        elif not ok and run_start is not None:
            length = idx - run_start
            if length > best_len:
                best_len, best_start = length, run_start
            run_start = None
    if best_start is None or best_len < min_run:
        return None
    return best_start, best_start + best_len


def sample_oracle(length, count):
    """Midpoint-of-stratum sampling by direct formula."""
    return [int(np.floor((k + 0.5) * length / count)) for k in range(count)]


def select_oracle(overlaps, threshold=0.2):
    """Per-video best shot at or above threshold, first shot on ties."""
    picks = {}
    for video, shots in overlaps.items():
        best_shot, best_val = None, -1.0
        for shot, val in shots.items():
            if val > best_val:
                best_shot, best_val = shot, val
        picks[video] = best_shot if best_val >= threshold else None
    return picks


def gaussian_mixture_nll(weights, means, covs, color):
    """Direct dense evaluation of the mixture negative log-likelihood."""
    likelihood = 0.0
    for w, mu, cov in zip(weights, means, covs):
        if w == 0.0:
            continue
        diff = np.asarray(color, dtype=np.float64) - mu
        quad = diff @ np.linalg.inv(cov) @ diff
        norm = np.sqrt((2 * np.pi) ** 3 * np.linalg.det(cov))
        likelihood += w * np.exp(-0.5 * quad) / norm
    return -np.log(likelihood)


def weighted_gaussians(colors, weights, resp, floor):
    """Mixing weights, means and eigenvalue-floored covariances from soft
    assignments, one component at a time. A component without mass keeps
    weight 0, mean 0 and covariance floor * I."""
    k = resp.shape[1]
    mix, means = np.zeros(k), np.zeros((k, 3))
    covs = np.tile(floor * np.eye(3), (k, 1, 1))
    for j in range(k):
        r = resp[:, j] * weights
        mass = r.sum()
        mix[j] = mass / weights.sum()
        if mass == 0.0:
            continue
        means[j] = (r[:, None] * colors).sum(axis=0) / mass
        dev = colors - means[j]
        cov = (r[:, None, None] * dev[:, :, None] * dev[:, None, :]).sum(axis=0)
        vals, vecs = np.linalg.eigh(cov / mass)
        covs[j] = vecs @ np.diag(np.maximum(vals, floor)) @ vecs.T
    return mix, means, covs


def reference_fit_gmm(colors, weights, n_components, seed,
                      return_history=False):
    """``fit_gmm`` as EM in full: a float lexsort of the colors, k-means++
    even for one component, and E- and M-steps until the weighted NLL
    moves by less than ``EM_TOL`` per unit weight or ``EM_MAX_ITER``
    steps. It takes the package's steps, which the tests check on their
    own against ``weighted_gaussians``, ``nll`` and scipy's log-sum-exp:
    the Cholesky E-step and direct M-step of one component, the feature
    steps of more. So a byte comparison tests only what the package's fit
    skips or reorders around them.
    """
    from motionseg.gmm import (EM_MAX_ITER, EM_TOL, _features, _log_terms,
                               _logsumexp, _m_step, _moment_e_step,
                               _moment_gmm, _moment_m_step)
    colors = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    n = len(colors)
    order = np.lexsort((colors[:, 2], colors[:, 1], colors[:, 0]))
    colors, weights = colors[order], weights[order]
    rng = np.random.default_rng(seed)
    probs = weights / weights.sum()
    centers = np.empty((n_components, 3))
    centers[0] = colors[rng.choice(n, p=probs)]
    d2 = ((colors - centers[0]) ** 2).sum(axis=1)
    for j in range(1, n_components):
        scores = weights * d2
        total = scores.sum()
        p = probs if total <= 0.0 else scores / total
        centers[j] = colors[rng.choice(n, p=p)]
        d2 = np.minimum(d2, ((colors - centers[j]) ** 2).sum(axis=1))
    d2 = ((colors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    resp = np.zeros((n_components, n))  # (K, N)
    resp[np.argmin(d2, axis=1), np.arange(n)] = 1.0
    if n_components == 1:
        def m_step(r):
            assert (r == 1.0).all()  # one component takes every sample
            return _m_step(colors, weights)

        def e_step(params):
            terms = _log_terms(_moment_gmm(*params), colors)
            norm = _logsumexp(terms)
            return np.exp(terms - norm), float(-(weights * norm).sum())
    else:
        feats = _features(colors)

        def m_step(r):
            return _moment_m_step(feats, weights, r)

        def e_step(params):
            return _moment_e_step(feats, weights, *params)
    params = m_step(resp)
    tol = EM_TOL * weights.sum()
    history, prev = [], None
    for _ in range(EM_MAX_ITER):
        resp, cur = e_step(params)
        history.append(cur)
        if prev is not None and abs(prev - cur) < tol:
            break
        prev = cur
        params = m_step(resp)
    g = _moment_gmm(*params)
    return (g, history) if return_history else g


def motion_samples(frames, target_index):
    """(fg_colors, fg_weights, bg_colors, bg_weights) of (RgbImage,
    MotionMask) pairs, one frame at a time: a frame t' adds its masked
    colors, then its unmasked ones, each of weight 1/(1+|t-t'|)."""
    fg_c, fg_w, bg_c, bg_w = [], [], [], []
    for t, (img, mask) in enumerate(frames):
        w = 1.0 / (1.0 + abs(target_index - t))
        for pixel, m in zip(img.pixels.reshape(-1, 3), mask.mask.ravel()):
            (fg_c if m else bg_c).append(pixel)
            (fg_w if m else bg_w).append(w)
    return (np.array(fg_c).reshape(-1, 3), np.array(fg_w, dtype=float),
            np.array(bg_c).reshape(-1, 3), np.array(bg_w, dtype=float))


def mean_iou_loop(acc):
    """Mean IoU as a per-class loop: each class with nonzero union adds its
    intersection / union, in class order; NoClasses if none has one."""
    ious = []
    for cls in range(len(acc.union)):
        if acc.union[cls] > 0:
            ious.append(acc.intersection[cls] / acc.union[cls])
    if not ious:
        raise NoClasses("no class has nonzero union")
    return float(np.mean(ious))


def label_iou(predicted, truth, label):
    """Plain intersection-over-union of one label between two maps."""
    p = predicted == label
    t = truth == label
    union = np.logical_or(p, t).sum()
    return float(np.logical_and(p, t).sum() / union) if union else float("nan")


def flood_label(ids):
    """4-connected equal-value components by breadth-first search, labelled
    in raster order of discovery; returns (label map, component count)."""
    h, w = ids.shape
    out = np.full((h, w), -1, dtype=np.int32)
    next_label = 0
    for sy in range(h):
        for sx in range(w):
            if out[sy, sx] >= 0:
                continue
            old = ids[sy, sx]
            stack = [(sy, sx)]
            out[sy, sx] = next_label
            head = 0
            while head < len(stack):
                y, x = stack[head]
                head += 1
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if (0 <= ny < h and 0 <= nx < w and out[ny, nx] == -1
                            and ids[ny, nx] == old):
                        out[ny, nx] = next_label
                        stack.append((ny, nx))
            next_label += 1
    return out, next_label


def merge_bounded(out, count, min_size, lower, upper):
    """Merge components into their largest neighbor, smallest first, finding
    each victim's neighbors with a full-frame 4-connected dilation.

    Below ``min_size`` merges while more than ``lower`` remain, any merges
    while more than ``upper`` remain; ties go to the lowest id. Returns the
    compacted (label map, count)."""
    out = out.copy()
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    sizes = np.bincount(out.ravel(), minlength=count).astype(np.int64)
    alive = sizes > 0
    while int(alive.sum()) > 1:
        live = np.nonzero(alive)[0]
        smallest = int(live[np.argmin(sizes[live])])
        if len(live) > upper:
            victim = smallest
        elif len(live) > lower and sizes[smallest] < min_size:
            victim = smallest
        else:
            break
        member = out == victim
        ring = ndimage.binary_dilation(member, structure=four)
        neighbors = np.unique(out[ring & ~member])
        if len(neighbors) == 0:
            break
        target = int(neighbors[np.argmax(sizes[neighbors])])
        out[member] = target
        sizes[target] += sizes[victim]
        sizes[victim] = 0
        alive[victim] = False
    vals, inv = np.unique(out, return_inverse=True)
    return inv.reshape(out.shape).astype(np.int32), len(vals)


def cluster_means(ids, count, pixels):
    """Per-label pixel count, mean (row, col) and mean color, one boolean
    mask per label; labels without pixels get zero means."""
    pos_y, pos_x = np.mgrid[:ids.shape[0], :ids.shape[1]]
    counts = np.zeros(count, dtype=np.int64)
    pos, col = np.zeros((count, 2)), np.zeros((count, 3))
    for j in range(count):
        member = ids == j
        counts[j] = member.sum()
        if counts[j]:
            pos[j] = (pos_y[member].mean(), pos_x[member].mean())
            col[j] = pixels[member].mean(axis=0)
    return counts, pos, col
