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


def _sq_dists(a, b) -> np.ndarray:
    """Pairwise squared euclidean distances, rows of a vs rows of b."""
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * a @ b.T
    return np.maximum(d2, 0.0, out=d2)


def mmd2(v, u, sigmas) -> float:
    """Biased (V-statistic) squared MMD between row sets, summed over sigmas.

    Per bandwidth: mean_ij k(v_i, v_j) + mean_ij k(u_i, u_j)
    - 2 mean_ij k(v_i, u_j). Zero when the two sets are equal multisets.
    """
    v, u = as_tensor2(v), as_tensor2(u)
    if v.shape[0] == 0 or u.shape[0] == 0:
        raise EmptyInput("mmd2 requires at least one row per set")
    if v.shape[1] != u.shape[1]:
        raise ShapeError(f"dim mismatch: {v.shape[1]} vs {u.shape[1]}")
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


def mmd2_value_grad(v, u, sigmas, pairs):
    """mmd2 together with its gradients w.r.t. the new rows of v and of u.

    `pairs` is the `PairPool` whose last push was `push(v, u, new)`: it
    gives the squared distances of every pair, and the slabs of the new rows
    new = (sv, su) against every row of [v; u]; the gradient reads its rows
    from v and u. The value always covers every pair. Sigmas are treated as
    constants (no gradient through a bandwidth heuristic). Returns (value,
    dv, du) with dv, du shaped like v[sv], u[su].

    Bandwidths are taken from largest to smallest. One that is exactly half
    the one before it takes its kernel as the previous kernel to the 4th
    power (gamma = 1 / (2 sigma^2) grows 4x); any other takes one exp.
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
    tv = sv.size
    segments = (0, _tri(m), _tri(m) + _tri(n))
    p = segments[2] + m * n
    work = np.empty(p + slab.size)
    k_pairs, k_slab = work[:p], work[p:].reshape(slab.shape)
    cells = (k_pairs[:segments[1]], k_pairs[segments[1]:segments[2]],
             k_pairs[segments[2]:].reshape(n, m), k_slab)
    # One ladder over the pool and the slabs: the pool gives the value, the
    # slabs the gradient of the new rows. acc holds sum_i K_i / sigma_i^2.
    acc, tmp = np.zeros(slab.shape), np.empty(slab.shape)
    value, prev = 0.0, None
    for s in sigmas:
        if prev == 2.0 * s:
            work *= work
            work *= work
        else:
            for src, out in zip(pairs.parts() + (slab,), cells):
                np.multiply(src, -0.5 / (s * s), out=out)
            np.exp(work, out=work)
        prev = s
        acc += np.multiply(k_slab, 1.0 / (s * s), out=tmp)
        # within-set terms: twice the upper triangle plus the diagonal
        s_v, s_u, s_vu = np.add.reduceat(k_pairs, segments).tolist()
        value += ((2.0 * s_v + m) / (m * m) + (2.0 * s_u + n) / (n * n)
                  - 2.0 * s_vu / (m * n))
    # w = 2 acc scaled by the term's 1/m^2, 1/n^2 or -1/(m n); per new row
    # r of z = [v; u], dz_r = sum_j w_rj z_j - (sum_j w_rj) z_r
    acc[:tv, :m] *= 2.0 / (m * m)
    acc[:tv, m:] *= -2.0 / (m * n)
    acc[tv:, :m] *= -2.0 / (m * n)
    acc[tv:, m:] *= 2.0 / (n * n)
    grad = acc[:, :m] @ v
    grad += acc[:, m:] @ u
    grad -= acc.sum(axis=1)[:, None] * np.concatenate((v[sv], u[su]))
    return float(value), grad[:tv], grad[tv:]


def median_sigmas(pairs):
    """Bandwidths [0.5, 1, 2] times the median pairwise distance among the
    pooled rows [v; u] of the last push into the `PairPool` `pairs`, each
    pair once: the within-set pairs of v and of u and every pair between
    them.

    Falls back to sigma = 1 when the median distance is zero. Equals the
    numpy median of the square roots of those pairs' squared distances
    exactly: sqrt is monotone, so one partition of the squared distances
    finds the middle pair.
    """
    x = np.concatenate(pairs.parts(), axis=None)
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


def _tri(n: int) -> int:
    """Pairs among n rows."""
    return n * (n - 1) // 2


class PairPool:
    """The squared distances among the rows of two windows of at most w rows
    each (ARC's fetched labeled set v and unlabeled set u, in slot order:
    row i is the row in slot i), kept from push to push so that each push
    computes only the distances of its new rows.

    `d2` is allocated once and holds every pair once, by slot: the strict
    upper triangle of the v window (pair i < j at j(j - 1)/2 + i), the same
    for the u window, the w x w block between them, and a last cell that
    takes each new row's pair with itself. A window of m < w rows fills its
    first m slots. The block is u slot major because a push writes its new
    rows' cells as rows and columns of it, rows write faster, and ARC's
    unlabeled window takes more new rows per step than its labeled one.

    `push(v, u, new)` computes the slabs (the rows at the slots
    new = (sv, su) against every row of [v; u]), writes them into their
    cells and keeps them as `slab` for the gradient of the same step;
    `parts()` gives the cells of the last push's pairs.
    """

    def __init__(self, w: int):
        self.w = w
        self.d2 = np.empty(2 * _tri(w) + w * w + 1)
        self.fill = (0, 0)
        self.new = self.slab = None

    def push(self, v, u, new):
        """Record the windows v and u after a push whose new rows sit at the
        slots new = (sv, su); every other row must be the one its slot held
        before."""
        (m, n), w = (v.shape[0], u.shape[0]), self.w
        sv, su = (np.asarray(s, dtype=np.intp) for s in new)
        if max(m, n) > w or any(s.size and not 0 <= s.min() <= s.max() < k
                                for s, k in ((sv, m), (su, n))):
            raise ShapeError(f"windows of {(m, n)} rows do not fit {w} slots, "
                             "or a new slot lies outside its window")
        if m and n and v.shape[1] != u.shape[1]:
            raise ShapeError(f"dim mismatch: {v.shape[1]} vs {u.shape[1]}")
        d = (v if m else u).shape[1]
        z = np.concatenate((v.reshape(m, d), u.reshape(n, d)))
        zz = np.einsum("ij,ij->i", z, z)
        rows = np.concatenate((sv, m + su))
        slab = -2.0 * z[rows] @ z.T
        slab += zz[rows][:, None]
        slab += zz
        np.maximum(slab, 0.0, out=slab)

        tv, t, d2 = sv.size, _tri(w), self.d2
        # within-set pairs by slot; each new row's pair with itself goes to
        # the last cell (contiguous values scatter faster)
        for s, k, off, blk in ((sv, m, 0, slab[:tv, :m]), (su, n, t, slab[tv:, m:])):
            c, col = np.arange(k), s[:, None]
            start = c * (c - 1) // 2 + off  # cell of pair (0, c)
            pos = start[np.maximum(col, c)]
            pos += np.minimum(col, c)
            pos[np.arange(s.size), s] = d2.size - 1
            d2[pos] = np.ascontiguousarray(blk)
        cross = d2[2 * t:-1].reshape(w, w)
        cross[su, :m] = slab[tv:, :m]
        cross[:n, sv] = slab[:tv, m:].T
        self.fill, self.new, self.slab = (m, n), (sv, su), slab

    def parts(self):
        """The cells of the last push's pairs: the v triangle, the u
        triangle and the n x m block between them."""
        (m, n), w, t = self.fill, self.w, _tri(self.w)
        cross = self.d2[2 * t:-1].reshape(w, w)
        return self.d2[:_tri(m)], self.d2[t:t + _tri(n)], cross[:n, :m]


def softmax_backward(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Backprop dL/dq through row-wise softmax with output q; returns dL/dz."""
    return q * (dq - (dq * q).sum(axis=1, keepdims=True))
