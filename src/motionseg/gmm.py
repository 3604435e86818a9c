"""Weighted Gaussian mixtures over RGB color.

These provide the motion-derived appearance unaries: the foreground mixture
is fit on colors of pixels marked as moving foreground, the background
mixture on the rest, and a pixel's unary cost is the negative log-likelihood
under the corresponding mixture.

Fitting is weighted EM; each step evaluates and re-estimates all K
components at once, as batched (K, ...) array operations. EM stops when
the weighted NLL per unit of sample weight moves by less than ``EM_TOL``
nats in one step (scikit-learn's default tolerance), or after
``EM_MAX_ITER`` steps. Initialization is k-means++ with the caller's seed,
run on samples sorted lexicographically by color so the fit does not
depend on sample order. Covariances are floored so flat color regions
cannot produce singular matrices. The log-sum-exp over components, in the
E-step and in :func:`nll`, is a plain numpy reduction that gives the same
bits as scipy's on these inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBackground, EmptyForeground, TooFewSamples

# Smallest eigenvalue any covariance is allowed to have.
VARIANCE_FLOOR = 1e-6

DEFAULT_COMPONENTS = 5

# Stopping rule of fit_gmm: nats of mean NLL per step, and the step cap.
EM_TOL = 1e-3
EM_MAX_ITER = 100

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Gmm:
    """A K-component Gaussian mixture over 3-D color."""

    weights: np.ndarray      # (K,), nonnegative, sums to 1
    means: np.ndarray        # (K, 3)
    covariances: np.ndarray  # (K, 3, 3), eigenvalues >= VARIANCE_FLOOR

    def __post_init__(self):
        for name in ("weights", "means", "covariances"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_components(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class FgBgGmm:
    foreground: Gmm
    background: Gmm


def _log_terms(g: Gmm, colors: np.ndarray) -> np.ndarray:
    """log(w_k N_k(colors)) as a (K, N) array; dead components give -inf.
    Solves L_k y = x - mu_k row by row with every component's Cholesky L_k."""
    with np.errstate(divide="ignore"):
        logw = np.log(g.weights)
    chol = np.linalg.cholesky(g.covariances)  # (K, 3, 3)
    x, mu = colors.T, g.means[:, :, None]      # (3, N), (K, 3, 1)
    y0 = (x[0] - mu[:, 0]) / chol[:, 0, 0, None]
    y1 = (x[1] - mu[:, 1] - chol[:, 1, 0, None] * y0) / chol[:, 1, 1, None]
    y2 = (x[2] - mu[:, 2] - chol[:, 2, 0, None] * y0
          - chol[:, 2, 1, None] * y1) / chol[:, 2, 2, None]
    maha = y0 * y0 + y1 * y1 + y2 * y2
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return logw[:, None] - 0.5 * (3.0 * _LOG_2PI + logdet[:, None] + maha)


def _logsumexp(terms: np.ndarray) -> np.ndarray:
    """log(sum(exp(terms), axis=0)) for a (K, N) array whose every column
    has a finite maximum. Takes the steps of scipy.special's log-sum-exp
    over axis 0 (scipy 1.17), so the bits agree, without its array-API
    overhead and its second ``exp`` pass.

    Every :class:`Gmm` has a live component and the covariance floor keeps
    its terms finite, so columns of ``_log_terms`` always qualify; dead
    components give -inf entries, which add nothing.
    """
    top = terms.max(axis=0)
    at_top = terms == top
    count = at_top.sum(axis=0, dtype=np.float64)
    # the maxima add exactly count; only the other terms go through exp
    rest = np.exp(np.where(at_top, -np.inf, terms) - top).sum(axis=0)
    rest = np.where(rest == 0, rest, rest / count)
    return np.log1p(rest) + np.log(count) + top


def nll(g: Gmm, color) -> float | np.ndarray:
    """Negative log-likelihood of a color (3,) or a batch of colors (N, 3).

    Finite for every input: the covariance floor bounds the density away
    from both zero and infinity on the color cube.
    """
    color = np.asarray(color, dtype=np.float64)
    out = -_logsumexp(_log_terms(g, np.atleast_2d(color)))
    return float(out[0]) if color.ndim == 1 else out


def check_components(n_components) -> None:
    """Refuse a mixture of fewer than one component."""
    if n_components < 1:
        raise ValueError("n_components must be >= 1")


def check_seed(seed) -> None:
    """Refuse a seed that ``np.random.default_rng`` would refuse."""
    if seed < 0:
        raise ValueError("seed must be >= 0")


def fit_gmm(colors, weights=None, n_components=DEFAULT_COMPONENTS, seed=0,
            return_history=False):
    """Fit a weighted GMM to (N, 3) colors with positive sample weights.

    Runs EM until the weighted NLL per unit of sample weight changes by
    less than ``EM_TOL`` nats in one step, or for ``EM_MAX_ITER`` steps,
    so scaling all weights alike does not change when it stops. The
    weighted NLL is non-increasing across iterations (up to the covariance
    floor, which only activates on degenerate clusters).

    With ``return_history`` also returns the per-iteration weighted NLL,
    evaluated on the parameters entering each iteration.
    """
    colors = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    n = len(colors)
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(weights) != n:
        raise ValueError("colors and weights disagree in length")
    if np.any(weights <= 0):
        raise ValueError("sample weights must be positive")
    check_components(n_components)
    if n < n_components:
        raise TooFewSamples(f"{n} samples for {n_components} components")

    # order-independent init: sort by color, then seed k-means++
    order = np.lexsort((colors[:, 2], colors[:, 1], colors[:, 0]))
    colors = colors[order]
    weights = weights[order]
    centers = _kmeanspp_centers(colors, weights, n_components,
                                np.random.default_rng(seed))

    # hard assignment to the nearest center bootstraps the first M-step
    d2 = ((colors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    resp = np.zeros((n, n_components))
    resp[np.arange(n), np.argmin(d2, axis=1)] = 1.0
    g = _m_step(colors, weights, resp)

    tol = EM_TOL * weights.sum()
    history = []
    prev = None
    for _ in range(EM_MAX_ITER):
        resp, cur_nll = _e_step(g, colors, weights)
        history.append(cur_nll)
        if prev is not None and abs(prev - cur_nll) < tol:
            break
        prev = cur_nll
        g = _m_step(colors, weights, resp)

    if return_history:
        return g, history
    return g


def _kmeanspp_centers(colors, weights, k, rng):
    n = len(colors)
    probs = weights / weights.sum()
    centers = np.empty((k, 3))
    centers[0] = colors[rng.choice(n, p=probs)]
    if k == 1:
        return centers
    d2 = ((colors - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        scores = weights * d2
        total = scores.sum()
        if total <= 0.0:
            # every point already coincides with a chosen center
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.choice(n, p=scores / total)
        centers[j] = colors[idx]
        d2 = np.minimum(d2, ((colors - centers[j]) ** 2).sum(axis=1))
    return centers


def _e_step(g, colors, weights):
    """Responsibilities and weighted NLL under the current parameters."""
    terms = _log_terms(g, colors)
    norm = _logsumexp(terms)
    resp = np.exp(terms - norm).T  # (N, K)
    return resp, float(-(weights * norm).sum())


def _m_step(colors, weights, resp):
    wresp = resp * weights[:, None]         # (N, K)
    mass = wresp.sum(axis=0)                # (K,)
    live = mass > 0.0  # dead components keep weight 0, mean 0, floor * I
    m = mass[live, None, None]
    means = np.zeros((len(mass), 3))
    means[live] = (wresp.T @ colors)[live] / m[:, 0]
    dev = colors.T - means[live][:, :, None]            # (L, 3, N)
    scatter = (wresp.T[live][:, None, :] * dev) @ dev.transpose(0, 2, 1) / m
    vals, vecs = np.linalg.eigh(scatter)
    vals = np.maximum(vals, VARIANCE_FLOOR)
    covs = np.tile(VARIANCE_FLOOR * np.eye(3), (len(mass), 1, 1))
    covs[live] = (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)
    return Gmm(weights=mass / weights.sum(), means=means, covariances=covs)


def frame_distance_weight(t: int, t_prime: int) -> float:
    """Weight of a sample from frame t' when fitting for frame t."""
    return 1.0 / (1.0 + abs(t - t_prime))


def motion_color_samples(frames, target_index):
    """Colors split by motion mask, weighted by frame distance.

    ``frames`` is a list of (RgbImage, MotionMask) pairs; colors of frame
    t' carry weight 1/(1+|t-t'|) relative to the target frame. Returns
    (fg_colors, fg_weights, bg_colors, bg_weights).
    """
    if not 0 <= target_index < len(frames):
        raise IndexError(f"target_index {target_index} out of range")
    fg_colors, fg_w, bg_colors, bg_w = [], [], [], []
    for t, (img, mask) in enumerate(frames):
        w = frame_distance_weight(target_index, t)
        flat = img.pixels.reshape(-1, 3)
        fg = mask.mask.reshape(-1) == 1
        fg_colors.append(flat[fg])
        fg_w.append(np.full(int(fg.sum()), w))
        bg_colors.append(flat[~fg])
        bg_w.append(np.full(int((~fg).sum()), w))
    fg_colors, bg_colors = np.concatenate(fg_colors), np.concatenate(bg_colors)
    if not len(fg_colors):
        raise EmptyForeground("no foreground pixel in any frame of the batch")
    if not len(bg_colors):
        raise EmptyBackground("no background pixel in any frame of the batch")
    return fg_colors, np.concatenate(fg_w), bg_colors, np.concatenate(bg_w)


def fit_fgbg(fg_colors, fg_weights, bg_colors, bg_weights,
             n_components=DEFAULT_COMPONENTS, seed=0) -> FgBgGmm:
    """Foreground/background GMMs, each with the same component count:
    ``n_components`` capped at the smaller side's sample count, so tiny
    frames remain fittable. ``None`` weights are all ones."""
    k = min(n_components, len(fg_colors), len(bg_colors))
    return FgBgGmm(foreground=fit_gmm(fg_colors, fg_weights, k, seed),
                   background=fit_gmm(bg_colors, bg_weights, k, seed))

