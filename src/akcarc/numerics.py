"""Dense numeric primitives: row-wise softmax and entropy, pairwise
distances, the RBF-kernel MMD, and their gradients.

All values travel as 2-D row-major float64 numpy arrays ("Tensor2").
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


def check_finite(a: np.ndarray, name: str) -> np.ndarray:
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


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats of a matrix of probability rows."""
    p = as_tensor2(p)
    q = np.where(p > 0, p, 1.0)
    return -(p * np.log(q)).sum(axis=1)


# ---------------------------------------------------------------------------
# distances and MMD


def _sq_dists(a, aa, b, bb) -> np.ndarray:
    """Pairwise squared euclidean distances, rows of a vs rows of b, given
    the squared row norms aa of a and bb of b."""
    d2 = aa[:, None] + bb[None, :] - 2.0 * a @ b.T
    return np.maximum(d2, 0.0, out=d2)


def _check_mmd_inputs(v, u):
    v, u = as_tensor2(v), as_tensor2(u)
    if v.shape[0] == 0 or u.shape[0] == 0:
        raise EmptyInput("mmd2 requires at least one row per set")
    if v.shape[1] != u.shape[1]:
        raise ShapeError(f"dim mismatch: {v.shape[1]} vs {u.shape[1]}")
    return v, u


def sq_dist_blocks(v, u):
    """The three distinct blocks (vv, uu, vu) of the squared distances among
    the pooled rows [v; u]. The fourth block, uv, is vu transposed."""
    v, u = _check_mmd_inputs(v, u)
    nv, nu = (v * v).sum(axis=1), (u * u).sum(axis=1)
    return _sq_dists(v, nv, v, nv), _sq_dists(u, nu, u, nu), _sq_dists(v, nv, u, nu)


def _check_blocks(blocks, m, n):
    shapes = tuple(b.shape for b in blocks)
    if shapes != ((m, m), (n, n), (m, n)):
        raise ShapeError(f"distance blocks are {shapes}, expected {((m, m), (n, n), (m, n))}")


def mmd2(v, u, sigmas) -> float:
    """Biased (V-statistic) squared MMD between row sets, summed over sigmas.

    Per bandwidth: mean_ij k(v_i, v_j) + mean_ij k(u_i, u_j)
    - 2 mean_ij k(v_i, u_j). Zero when the two sets are equal multisets.
    """
    dvv, duu, dvu = sq_dist_blocks(v, u)
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


def mmd2_value_grad(v, u, sigmas, blocks, tail):
    """mmd2 together with its gradients w.r.t. the last rows of v and of u.

    `blocks` is `sq_dist_blocks(v, u)`. `tail = (tv, tu)` asks for the
    gradients of the last tv rows of v and the last tu rows of u; the value
    always covers every pair. Sigmas are treated as constants (no gradient
    through a bandwidth heuristic). Returns (value, dv, du) with dv, du
    shaped like v[m - tv:], u[n - tu:].

    Bandwidths are taken from largest to smallest. One that is exactly half
    the one before it takes its kernel as the previous kernel to the 4th
    power (gamma = 1 / (2 sigma^2) grows 4x); any other takes one exp.
    """
    v, u = _check_mmd_inputs(v, u)
    m, n = v.shape[0], u.shape[0]
    _check_blocks(blocks, m, n)
    tv, tu = tail
    if not (0 <= tv <= m and 0 <= tu <= n):
        raise ShapeError(f"tail {(tv, tu)} outside the {(m, n)} rows")
    sigmas = sorted(sigmas, reverse=True)
    if sigmas and sigmas[-1] <= 0:
        raise InvalidInput(f"sigma must be > 0, got {sigmas[-1]}")
    # The gradient is linear in each kernel matrix: sum c * K over the
    # bandwidths first (d k(x, y) / dx = c * k * (y - x), with
    # c = 1 / sigma^2), only over the rows and columns of the tail, then
    # multiply once. wvu holds the vu rows of the v tail, wuv the vu
    # columns of the u tail.
    wvv, wuu = np.zeros((tv, m)), np.zeros((tu, n))
    wvu, wuv = np.zeros((tv, n)), np.zeros((m, tu))
    value = 0.0
    for blk, sign, parts in (
        (blocks[0], 1.0, ((wvv, np.s_[m - tv:]),)),
        (blocks[1], 1.0, ((wuu, np.s_[n - tu:]),)),
        (blocks[2], -2.0, ((wvu, np.s_[m - tv:]), (wuv, np.s_[:, n - tu:]))),
    ):
        k = np.empty_like(blk)
        prev = None
        for s in sigmas:
            g = 1.0 / (2.0 * s * s)
            if prev == 2.0 * s:
                k *= k
                k *= k
            else:
                np.exp(np.multiply(blk, -g, out=k), out=k)
            prev = s
            value += sign * k.mean()
            for w, rows in parts:
                w += (2.0 * g) * k[rows]
    vt, ut = v[m - tv:], u[n - tu:]
    # within-set terms (1/m^2) sum_ij k(v_i, v_j): both arguments vary;
    # cross term -(2/(m n)) sum_ij k(v_i, u_j)
    dv = (2.0 / (m * m)) * (wvv @ v - wvv.sum(axis=1)[:, None] * vt)
    dv -= (2.0 / (m * n)) * (wvu @ u - wvu.sum(axis=1)[:, None] * vt)
    du = (2.0 / (n * n)) * (wuu @ u - wuu.sum(axis=1)[:, None] * ut)
    du -= (2.0 / (m * n)) * (wuv.T @ v - wuv.sum(axis=0)[:, None] * ut)
    return float(value), dv, du


def median_sigmas(blocks):
    """Bandwidths [0.5, 1, 2] times the median pairwise distance among the
    pooled rows, read from `sq_dist_blocks(v, u)`: the strict upper
    triangles of vv and uu plus all of vu, each pair once.

    Falls back to sigma = 1 when the median distance is zero. Equals
    np.median(np.sqrt(pairs)) exactly: sqrt is monotone, so one partition of
    the squared distances finds the middle pair.
    """
    m, n = blocks[0].shape[0], blocks[1].shape[0]
    _check_blocks(blocks, m, n)
    x = np.concatenate([
        blocks[0][~np.tri(m, m, 0, dtype=bool)],
        blocks[1][~np.tri(n, n, 0, dtype=bool)],
        blocks[2].ravel(),
    ])
    med = 0.0
    if x.size:
        k = x.size // 2
        x.partition(k)
        med = float(np.sqrt(x[k]))
        if x.size % 2 == 0:
            med = (float(np.sqrt(x[:k].max())) + med) / 2.0
    if med <= 0.0:
        med = 1.0
    return [0.5 * med, med, 2.0 * med]


def softmax_backward(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Backprop dL/dq through row-wise softmax with output q; returns dL/dz."""
    return q * (dq - (dq * q).sum(axis=1, keepdims=True))
