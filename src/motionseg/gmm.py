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
depend on sample order (on radix-sorted uint8 keys when every color is
an 8-bit ``q / 255``). EM's loop runs on one (9, N) matrix per fit, the
colors and their six distinct products: each M-step and E-step is one
matrix product with it. One component takes a single direct M-step, and
:func:`nll` solves with each covariance's Cholesky factor. Covariances
are floored so flat color regions cannot produce singular matrices. The
log-sum-exp over components, in the E-step and in :func:`nll`, is a
plain numpy reduction that gives the same bits as scipy's on these inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _read_only
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
            object.__setattr__(self, name,
                               _read_only(getattr(self, name), np.float64))

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
    """Fit a weighted GMM to finite (N, 3) colors with positive weights.

    Runs EM until the weighted NLL per unit of sample weight changes by
    less than ``EM_TOL`` nats in one step, or for ``EM_MAX_ITER`` steps,
    so scaling all weights alike does not change when it stops. The
    weighted NLL is non-increasing across iterations (up to the covariance
    floor, which only activates on degenerate clusters).

    With one component every responsibility is exactly 1, the hard
    assignment, so the first M-step is EM's fixed point and is returned;
    its history repeats that NLL as EM's loop would.

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
    if not np.isfinite(colors).all():
        raise ValueError("colors must be finite")
    # NaN fails > 0; an inf weight or an overflowing sum fails isfinite
    with np.errstate(over="ignore"):
        positive = (weights > 0).all() and np.isfinite(weights.sum())
    if not positive:
        raise ValueError("sample weights must be positive, with a finite sum")
    check_components(n_components)
    if n < n_components:
        raise TooFewSamples(f"{n} samples for {n_components} components")

    # order-independent fit: sort by color. q -> q / 255 is increasing, so
    # on the 8-bit lattice the stable sort of q gives the same permutation
    q = np.rint(np.clip(colors, 0.0, 1.0) * 255.0)
    keys = q.astype(np.uint8) if (q / 255.0 == colors).all() else colors
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    colors, weights = colors[order], weights[order]
    tol = EM_TOL * weights.sum()

    if n_components == 1:
        g = _moment_gmm(*_m_step(colors, weights))
        if not return_history:
            return g
        # EM's loop stops at its second step, where the NLL repeats, unless
        # tol underflows to 0 or the NLL is not finite
        cur_nll = float(-(weights * _logsumexp(_log_terms(g, colors))).sum())
        steps = 2 if math.isfinite(cur_nll) and tol > 0 else EM_MAX_ITER
        return g, [cur_nll] * steps

    centers = _kmeanspp_centers(colors, weights, n_components,
                                np.random.default_rng(seed))

    # hard assignment to the nearest center bootstraps the first M-step
    d2 = ((colors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    resp = (np.argmin(d2, axis=1) == np.arange(n_components)[:, None]) * 1.0
    feats = _features(colors)
    params = _moment_m_step(feats, weights, resp)

    history = []
    prev = None
    for _ in range(EM_MAX_ITER):
        resp, cur_nll = _moment_e_step(feats, weights, *params)
        history.append(cur_nll)
        if prev is not None and abs(prev - cur_nll) < tol:
            break
        prev = cur_nll
        params = _moment_m_step(feats, weights, resp)

    g = _moment_gmm(*params)
    if return_history:
        return g, history
    return g


def _kmeanspp_centers(colors, weights, k, rng):
    n = len(colors)
    probs = weights / weights.sum()
    centers = np.empty((k, 3))
    centers[0] = colors[rng.choice(n, p=probs)]
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


# The loop's features: a color's channels, then its products x_i x_j over
# the upper triangle (_ROWS, _COLS). _SECOND[i, j] is x_i x_j's feature,
# and -0.5 x^T P x is _QUAD_SCALE times P's upper triangle, dotted with them.
_ROWS, _COLS = np.triu_indices(3)
_SECOND = np.array([[3, 4, 5], [4, 6, 7], [5, 7, 8]])
_QUAD_SCALE = np.where(_ROWS == _COLS, -0.5, -1.0)


def _features(colors):
    """(9, N): each color's channels, then its six distinct products."""
    x = colors.T
    return np.concatenate([x, x[_ROWS] * x[_COLS]])


def _moment_m_step(feats, weights, resp):
    """M-step from (K, N) responsibilities, as one product with the
    features: mixing weights, means, and each covariance's floored
    eigenvalues (K, 3) and eigenvectors (K, 3, 3). The scatter is
    E[xx^T] - mu mu^T; a dead component keeps weight 0, mean 0 and
    floor * I."""
    wresp = resp * weights                  # (K, N)
    mass = wresp.sum(axis=1)                # (K,)
    live = mass > 0.0
    moments = np.divide(wresp @ feats.T, mass[:, None], where=live[:, None],
                        out=np.zeros((len(mass), 9)))
    means = moments[:, :3]
    scatter = moments[:, _SECOND] - means[:, :, None] * means[:, None, :]
    vals, vecs = np.linalg.eigh(scatter)
    vals[~live], vecs[~live] = 0.0, np.eye(3)
    return mass / weights.sum(), means, np.maximum(vals, VARIANCE_FLOOR), vecs


def _moment_e_step(feats, weights, mix, means, vals, vecs):
    """(K, N) responsibilities and the weighted NLL, with each log term
    quadratic in the features: one (K, 9) @ (9, N) product plus a
    constant per component, the precision and log-determinant coming
    from the eigenpairs."""
    prec = (vecs / vals[:, None, :]) @ vecs.transpose(0, 2, 1)   # (K, 3, 3)
    lin = (prec @ means[:, :, None])[:, :, 0]                      # (K, 3)
    coef = np.concatenate([lin, _QUAD_SCALE * prec[:, _ROWS, _COLS]], 1)
    with np.errstate(divide="ignore"):
        logw = np.log(mix)
    const = logw - 0.5 * (3.0 * _LOG_2PI + np.log(vals).sum(axis=1)
                          + (means * lin).sum(axis=1))
    terms = coef @ feats + const[:, None]
    norm = _logsumexp(terms)
    return np.exp(terms - norm), float(-(weights * norm).sum())


def _moment_gmm(mix, means, vals, vecs):
    """The Gmm of the loop's last M-step."""
    covs = (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)
    return Gmm(weights=mix, means=means, covariances=covs)


def _m_step(colors, weights):
    """The one-component M-step, straight from the colors: mixing weight,
    mean, and the covariance's floored eigenvalues and eigenvectors, each
    with a leading axis of one component."""
    w = weights[None, :]                    # (1, N)
    mass = w.sum(axis=1)                    # (1,)
    means = (w @ colors) / mass[:, None]    # (1, 3)
    dev = colors.T - means[:, :, None]      # (1, 3, N)
    scatter = (w[:, None, :] * dev) @ dev.transpose(0, 2, 1)
    vals, vecs = np.linalg.eigh(scatter / mass[:, None, None])
    return mass / weights.sum(), means, np.maximum(vals, VARIANCE_FLOOR), vecs


def frame_distance_weight(t: int, t_prime: int) -> float:
    """Weight of a sample from frame t' when fitting for frame t."""
    return 1.0 / (1.0 + abs(t - t_prime))


def motion_color_samples(frames, target_index):
    """Colors split by motion mask, weighted by frame distance.

    ``frames`` is a list of (RgbImage, MotionMask) pairs; colors of frame
    t' carry weight 1/(1+|t-t'|) relative to the target frame. Returns
    (fg_colors, fg_weights, bg_colors, bg_weights), each side in frame
    order, then pixel order; a side may be empty.
    """
    if not 0 <= target_index < len(frames):
        raise IndexError(f"target_index {target_index} out of range")
    colors = np.concatenate([img.pixels.reshape(-1, 3) for img, _ in frames])
    fg = np.concatenate([mask.mask.reshape(-1) == 1 for _, mask in frames])
    t_prime = np.repeat(np.arange(len(frames)), [m.mask.size for _, m in frames])
    weights = frame_distance_weight(target_index, t_prime)
    return colors[fg], weights[fg], colors[~fg], weights[~fg]


def fit_fgbg(fg_colors, fg_weights, bg_colors, bg_weights,
             n_components=DEFAULT_COMPONENTS, seed=0) -> FgBgGmm:
    """Foreground/background GMMs, each with the same component count:
    ``n_components`` capped at the smaller side's sample count, so tiny
    frames remain fittable. ``None`` weights are all ones. A side without
    a sample raises EmptyForeground or EmptyBackground."""
    if not len(fg_colors):
        raise EmptyForeground("no foreground color sample to fit")
    if not len(bg_colors):
        raise EmptyBackground("no background color sample to fit")
    k = min(n_components, len(fg_colors), len(bg_colors))
    return FgBgGmm(foreground=fit_gmm(fg_colors, fg_weights, k, seed),
                   background=fit_gmm(bg_colors, bg_weights, k, seed))

