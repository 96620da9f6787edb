"""Dense numeric primitives: row-wise softmax and entropy, and the
RBF-kernel MMD of ARC's windows with its gradient and bandwidths.

All values travel as 2-D row-major float64 numpy arrays ("Tensor2").
"""

import numpy as np

from .errors import InvalidInput, ShapeError

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
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains NaN/Inf")
    return a


# ---------------------------------------------------------------------------
# probability primitives


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = as_tensor2(z)
    check_finite(z, "logits")
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats of a matrix of probability rows."""
    p = as_tensor2(p)
    q = np.where(p > 0, p, 1.0)
    return -(p * np.log(q)).sum(axis=1)


# ---------------------------------------------------------------------------
# MMD


def mmd2_value_grad(v, u, sigmas, pairs):
    """The biased (V-statistic) squared MMD between the row sets v and u,
    summed over the RBF bandwidths `sigmas`: per bandwidth, mean_ij
    k(v_i, v_j) + mean_ij k(u_i, u_j) - 2 mean_ij k(v_i, u_j); and its
    gradients w.r.t. the new rows of v and of u.

    `pairs` is ARC's `consistency.ArcState` after the push that made v and
    u its windows: it gives the squared distances of every pair, and the
    slabs of the new rows at the slots new = (sv, su) against every row of
    [v; u]; the gradient reads its rows from v and u. The value always
    covers every pair. Sigmas are treated as constants (no gradient through
    a bandwidth heuristic). Returns (value, dv, du) with dv, du shaped like
    v[sv], u[su].

    The gradient reads only the slabs and the value only the pool's
    distances, so each runs over its own working set, one after the other.
    Bandwidths are taken from largest to smallest. One that is exactly half
    the one before it takes its kernel as the previous kernel to the 4th
    power (gamma = 1 / (2 sigma^2) grows 4x); any other takes one exp per
    working set.
    """
    (m, n), (sv, su), slab = (len(v), len(u)), pairs.new, pairs.slab
    if (m, n) != pairs.fill:
        raise ShapeError(f"windows of {(m, n)} rows are not those of the "
                         f"last push, {pairs.fill}")
    if m < 2 or n < 2:
        raise ShapeError(f"the pool's MMD needs 2 rows per window, has {(m, n)}")
    sigmas = sorted(sigmas, reverse=True)
    if not sigmas or sigmas[-1] <= 0:
        raise InvalidInput(f"sigmas must be > 0 and at least one, got {sigmas}")
    # gradient first: of the two orders, this one measured the lower and
    # steadier process peak RSS in benchmark runs
    dv, du = _slab_grad(v, u, sv, su, slab, sigmas)
    value = _pool_value(pairs.parts(), m, n, sigmas)
    return value, dv, du


def _ladder(srcs, outs, work, sigmas):
    """For each of the descending `sigmas`, write the RBF kernel of the
    squared distances `srcs` into `work`, whose views `outs` match them,
    then yield the bandwidth."""
    prev = None
    for s in sigmas:
        if prev == 2.0 * s:
            work *= work
            work *= work
        else:
            for src, out in zip(srcs, outs):
                np.multiply(src, -0.5 / (s * s), out=out)
            np.exp(work, out=work)
        prev = s
        yield s


def _pool_value(parts, m, n, sigmas):
    """The MMD value from the kernels of every pair: `parts` are the
    distances of the v triangle, the u triangle and the n x m block."""
    segments = (0, parts[0].size, parts[0].size + parts[1].size)
    k_pairs = np.empty(segments[2] + m * n)
    cells = (k_pairs[:segments[1]], k_pairs[segments[1]:segments[2]],
             k_pairs[segments[2]:].reshape(n, m))
    value = 0.0
    for _ in _ladder(parts, cells, k_pairs, sigmas):
        # within-set terms: twice the upper triangle plus the diagonal
        s_v, s_u, s_vu = np.add.reduceat(k_pairs, segments).tolist()
        value += ((2.0 * s_v + m) / (m * m) + (2.0 * s_u + n) / (n * n)
                  - 2.0 * s_vu / (m * n))
    return value


def _slab_grad(v, u, sv, su, slab, sigmas):
    """The gradients of the new rows v[sv], u[su] from the kernels of their
    `slab` of distances to every row of [v; u]."""
    (m, n), tv = (len(v), len(u)), sv.size
    k_slab, acc, tmp = (np.empty(slab.shape) for _ in range(3))
    # acc holds sum_i K_i / sigma_i^2; the first bandwidth writes it
    for i, s in enumerate(_ladder((slab,), (k_slab,), k_slab, sigmas)):
        if i:
            acc += np.multiply(k_slab, 1.0 / (s * s), out=tmp)
        else:
            np.multiply(k_slab, 1.0 / (s * s), out=acc)
    # w = 2 acc scaled by the term's 1/m^2, 1/n^2 or -1/(m n); per new row
    # r of z = [v; u], dz_r = sum_j w_rj z_j - (sum_j w_rj) z_r
    acc[:tv, :m] *= 2.0 / (m * m)
    acc[:tv, m:] *= -2.0 / (m * n)
    acc[tv:, :m] *= -2.0 / (m * n)
    acc[tv:, m:] *= 2.0 / (n * n)
    grad = acc[:, :m] @ v
    grad += acc[:, m:] @ u
    grad -= acc.sum(axis=1)[:, None] * np.concatenate((v[sv], u[su]))
    return grad[:tv], grad[tv:]


def median_sigmas(pairs):
    """Bandwidths [0.5, 1, 2] times the median pairwise distance among the
    pooled rows [v; u] of the last push into ARC's `consistency.ArcState`
    `pairs`, each pair once: the within-set pairs of v and of u and every
    pair between them.

    Falls back to sigma = 1 when the median distance is zero. Equals the
    numpy median of the square roots of those pairs' squared distances
    exactly: sqrt is monotone, so one partition of the squared distances
    finds the middle pair.
    """
    x = np.concatenate(pairs.parts(), axis=None)
    med = 0.0
    if x.size:
        k = x.size // 2
        # one partition, then a max over the lower half for an even count:
        # on numpy 2.4 a two-kth partition((k - 1, k)) of 130816 values took
        # 1136 us against 220 us
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
