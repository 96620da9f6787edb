"""Dense numeric primitives: probability ops, RBF kernel, MMD, and their gradients.

All values travel as 2-D row-major float64 numpy arrays ("Tensor2"). A
probability vector is a 1xC Tensor2 whose entries are in [0, 1] and sum to 1.
"""

import numpy as np

from .errors import EmptyInput, InvalidInput, ShapeError

# Arguments of log are clamped to at least this, bounding worst-case losses.
LOG_CLAMP = 1e-12


def as_tensor2(x) -> np.ndarray:
    """Coerce to a 2-D float64 array (1-D input becomes a single row)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={a.ndim}")
    return a


def check_finite(a: np.ndarray, name: str = "input") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains NaN/Inf")
    return a


# ---------------------------------------------------------------------------
# probability primitives


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = as_tensor2(z)
    check_finite(z, "logits")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax(logits) -> np.ndarray:
    """Softmax of a single row of logits; returns a 1xC probability vector."""
    row = as_tensor2(logits)
    if row.shape[0] != 1:
        raise ShapeError(f"softmax expects a single row, got {row.shape[0]}")
    return softmax_rows(row)


def check_probvec(p: np.ndarray) -> np.ndarray:
    p = as_tensor2(p)
    if p.shape[0] != 1:
        raise InvalidInput("probability vector must be a single row")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise InvalidInput("probabilities outside [0, 1]")
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvalidInput(f"probabilities sum to {p.sum()}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy in nats, with the convention 0*log(0) = 0."""
    p = check_probvec(p)
    q = p[p > 0]
    return float(-(q * np.log(q)).sum())


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats of a matrix of probability rows."""
    p = as_tensor2(p)
    q = np.where(p > 0, p, 1.0)
    return -(p * np.log(q)).sum(axis=1)


def kl_div(p, q) -> float:
    """KL(p || q) in nats; q is clamped elementwise to LOG_CLAMP before the log."""
    p = check_probvec(p)
    q = check_probvec(q)
    if p.shape != q.shape:
        raise ShapeError(f"length mismatch: {p.shape[1]} vs {q.shape[1]}")
    qc = np.maximum(q, LOG_CLAMP)
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(qc[mask]))).sum())


# ---------------------------------------------------------------------------
# kernels and MMD


def rbf_kernel(x, y, sigma: float) -> float:
    """Gaussian RBF kernel exp(-||x - y||^2 / (2 sigma^2)) of two rows."""
    if sigma <= 0:
        raise InvalidInput(f"sigma must be > 0, got {sigma}")
    x, y = as_tensor2(x), as_tensor2(y)
    if x.shape != y.shape:
        raise ShapeError(f"dim mismatch: {x.shape} vs {y.shape}")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, rows of a vs rows of b."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    d2 = aa + bb - 2.0 * a @ b.T
    return np.maximum(d2, 0.0)


def _check_mmd_inputs(v, u):
    v, u = as_tensor2(v), as_tensor2(u)
    if v.shape[0] == 0 or u.shape[0] == 0:
        raise EmptyInput("mmd2 requires at least one row per set")
    if v.shape[1] != u.shape[1]:
        raise ShapeError(f"dim mismatch: {v.shape[1]} vs {u.shape[1]}")
    return v, u


def mmd2(v, u, sigmas) -> float:
    """Biased (V-statistic) squared MMD between row sets, summed over sigmas.

    Per bandwidth: mean_ij k(v_i, v_j) + mean_ij k(u_i, u_j)
    - 2 mean_ij k(v_i, u_j). Zero when the two sets are equal multisets.
    """
    v, u = _check_mmd_inputs(v, u)
    dvv, duu, dvu = _sq_dists(v, v), _sq_dists(u, u), _sq_dists(v, u)
    total = 0.0
    for s in sigmas:
        if s <= 0:
            raise InvalidInput(f"sigma must be > 0, got {s}")
        g = 1.0 / (2.0 * s * s)
        total += (
            np.exp(-g * dvv).mean()
            + np.exp(-g * duu).mean()
            - 2.0 * np.exp(-g * dvu).mean()
        )
    return float(total)


def pooled_sq_dists(v, u) -> np.ndarray:
    """Squared distances among the pooled rows [v; u], a (m+n) x (m+n) matrix."""
    v, u = _check_mmd_inputs(v, u)
    pooled = np.vstack([v, u])
    return _sq_dists(pooled, pooled)


def mmd2_value_grad(v, u, sigmas, d2=None):
    """mmd2 together with its gradients w.r.t. every row of v and of u.

    `d2` is `pooled_sq_dists(v, u)`, computed here when not given. Sigmas
    are treated as constants (no gradient through a bandwidth heuristic).
    Returns (value, dv, du) with dv, du shaped like v, u.
    """
    v, u = _check_mmd_inputs(v, u)
    m, n = v.shape[0], u.shape[0]
    if d2 is None:
        d2 = pooled_sq_dists(v, u)
    elif d2.shape != (m + n, m + n):
        raise ShapeError(f"d2 is {d2.shape}, expected {(m + n, m + n)}")
    # The gradient is linear in each kernel matrix: per block, sum c * K
    # over the bandwidths first (d k(x, y) / dx = c * k * (y - x), with
    # c = 1 / sigma^2), then multiply once.
    blocks = (d2[:m, :m], d2[m:, m:], d2[:m, m:])
    w = [np.zeros_like(b) for b in blocks]
    means = np.zeros((len(sigmas), 3))
    for j, blk in enumerate(blocks):
        k = np.empty_like(blk)
        for i, s in enumerate(sigmas):
            g = 1.0 / (2.0 * s * s)
            np.exp(np.multiply(blk, -g, out=k), out=k)
            means[i, j] = k.mean()
            k *= 2.0 * g
            w[j] += k
    value = sum(kvv + kuu - 2.0 * kvu for kvv, kuu, kvu in means)
    wvv, wuu, wvu = w
    # within-set terms (1/m^2) sum_ij k(v_i, v_j): both arguments vary;
    # cross term -(2/(m n)) sum_ij k(v_i, u_j)
    dv = (2.0 / (m * m)) * (wvv @ v - wvv.sum(axis=1)[:, None] * v)
    dv -= (2.0 / (m * n)) * (wvu @ u - wvu.sum(axis=1)[:, None] * v)
    du = (2.0 / (n * n)) * (wuu @ u - wuu.sum(axis=1)[:, None] * u)
    du -= (2.0 / (m * n)) * (wvu.T @ v - wvu.sum(axis=0)[:, None] * u)
    return float(value), dv, du


def median_sigmas(d2, factors=(0.5, 1.0, 2.0)):
    """Bandwidths `factors` times the median pairwise distance, read from the
    strict upper triangle of a squared-distance matrix (`pooled_sq_dists`).

    Falls back to sigma = 1 when the median distance is zero. Equals
    np.median(np.sqrt(pairs)) exactly: sqrt is monotone, so one partition of
    the squared distances finds the middle pair.
    """
    p = d2.shape[0]
    if d2.shape != (p, p):
        raise ShapeError(f"expected a square distance matrix, got {d2.shape}")
    x = d2[~np.tri(p, p, 0, dtype=bool)]
    med = 0.0
    if x.size:
        k = x.size // 2
        x.partition(k)
        med = float(np.sqrt(x[k]))
        if x.size % 2 == 0:
            med = (float(np.sqrt(x[:k].max())) + med) / 2.0
    if med <= 0.0:
        med = 1.0
    return [med * f for f in factors]


def softmax_backward(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Backprop dL/dq through row-wise softmax with output q; returns dL/dz."""
    return q * (dq - (dq * q).sum(axis=1, keepdims=True))
