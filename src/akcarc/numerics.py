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


def mmd2_value_grad(v, u, sigmas, pairs, tail):
    """mmd2 together with its gradients w.r.t. the last rows of v and of u.

    `pairs` is the `PairPool` whose last push was `push(v, u, tail)`; it
    holds the squared distances and the rows. `tail = (tv, tu)` asks for
    the gradients of the last tv rows of v and the last tu rows of u; the
    value always covers every pair. Sigmas are treated as constants (no
    gradient through a bandwidth heuristic). Returns (value, dv, du) with
    dv, du shaped like v[m - tv:], u[n - tu:].

    Bandwidths are taken from largest to smallest. One that is exactly half
    the one before it takes its kernel as the previous kernel to the 4th
    power (gamma = 1 / (2 sigma^2) grows 4x); any other takes one exp.
    """
    sigmas = sorted(sigmas, reverse=True)
    if sigmas and sigmas[-1] <= 0:
        raise InvalidInput(f"sigma must be > 0, got {sigmas[-1]}")
    return pairs._value_grad(v.shape[0], u.shape[0], sigmas, tail)


def median_sigmas(pairs):
    """Bandwidths [0.5, 1, 2] times the median pairwise distance among the
    pooled rows [v; u] of the last push into the `PairPool` `pairs`, each
    pair once: the within-set pairs of v and of u and every pair between
    them.

    Falls back to sigma = 1 when the median distance is zero. Equals
    np.median(np.sqrt(pairs.d2)) exactly: sqrt is monotone, so one
    partition of the squared distances finds the middle pair.
    """
    x = pairs.d2.copy()
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


def _ring(start: int, count: int, size: int):
    """(slots, rows) slice pairs that cover `count` consecutive slots from
    `start` on a ring of `size` slots: one pair, or two when the run wraps."""
    k = min(count, size - start)
    if k == count:
        return ((slice(start, start + k), slice(0, k)),)
    return ((slice(start, size), slice(0, k)), (slice(0, count - k), slice(k, count)))


class PairPool:
    """The squared distances among the rows of two windows of at most w rows
    each (ARC's fetched labeled set v and unlabeled set u, oldest first),
    kept from push to push so that each push computes only the distances of
    its new rows.

    A row keeps the slot (its insertion index) mod w for as long as it
    stays in its window. `d2` holds every pair once, in three parts: the
    strict upper triangle of the v window by slot (pair i < j at
    j(j - 1)/2 + i), the same for the u window, and the m x n block between
    them (v slot major). While a window fills its slots are a prefix, and
    `d2` grows with it.

    `push(v, u, tail)` computes the slabs (the last tv rows of v and the
    last tu rows of u against every row of [v; u]), writes them into their
    slots and keeps them for the gradient of the same step.
    """

    def __init__(self, w: int):
        self.w = w
        self.fill = (0, 0)
        self._cells = np.empty(1)  # d2 and a last cell for self-pairs
        self.d2 = self._cells[:-1]
        self._pushed = [0, 0]  # rows that entered each window, mod w
        self._tri_start = self._slots = np.zeros(0, dtype=np.intp)
        self._tail = (0, 0)
        self._z = self._new = self._slab = None

    def push(self, v, u, tail):
        """Record the windows v and u after a push whose new rows are the
        last tail = (tv, tu) of each; every other row must have been in the
        window before."""
        (m, n), (tv, tu), w = (v.shape[0], u.shape[0]), tail, self.w
        (m0, n0) = self.fill
        if not (m0 <= m <= w and n0 <= n <= w and m - tv <= m0 and n - tu <= n0
                and 0 <= tv <= m and 0 <= tu <= n):
            raise ShapeError(f"windows {(m0, n0)} cannot become {(m, n)} "
                             f"with {(tv, tu)} new rows")
        if m and n and v.shape[1] != u.shape[1]:
            raise ShapeError(f"dim mismatch: {v.shape[1]} vs {u.shape[1]}")
        if (m, n) != (m0, n0):
            self._grow(m, n)
        d = (v if m else u).shape[1]
        z = np.concatenate((v.reshape(m, d), u.reshape(n, d)))
        zz = np.einsum("ij,ij->i", z, z)
        new = np.concatenate((z[m - tv:m], z[m + n - tu:]))
        slab = -2.0 * new @ z.T
        slab += np.concatenate((zz[m - tv:m], zz[m + n - tu:]))[:, None]
        slab += zz
        np.maximum(slab, 0.0, out=slab)

        starts = []
        for i, (k, t) in enumerate(((m, tv), (n, tu))):
            self._pushed[i] = (self._pushed[i] + t) % w
            starts.append((self._pushed[i] - k) % w)
        (sv, su), cells, tl = starts, self._cells, _tri(m)
        # within-set pairs by slot; each new row's pair with itself goes to
        # the last cell (contiguous values scatter faster)
        for start, k, t, off, blk in ((sv, m, tv, 0, slab[:tv, :m]),
                                      (su, n, tu, tl, slab[tv:, m:])):
            c = self._slots[start:start + k]
            pos = self._tri_start[np.maximum(c[k - t:, None], c)]
            pos += np.minimum(c[k - t:, None], c)
            pos.ravel()[k - t::k + 1] = cells.size - 1 - off
            cells[off:][pos] = np.ascontiguousarray(blk)
        cross = self.d2[tl + _tri(n):].reshape(m, n)
        for rs, ra in _ring((sv + m - tv) % w, tv, w):
            for cs, cb in _ring(su, n, w):
                cross[rs, cs] = slab[ra, m + cb.start:m + cb.stop]
        for cs, ra in _ring((su + n - tu) % w, tu, w):
            for rs, cb in _ring(sv, m, w):
                cross[rs, cs] = slab[tv + ra.start:tv + ra.stop, cb].T
        self._z, self._new, self._slab, self._tail = z, new, slab, (tv, tu)

    def _grow(self, m, n):
        (m0, n0), d2 = self.fill, self.d2
        t0, t1 = _tri(m0), _tri(n0)
        cells = np.empty(_tri(m) + _tri(n) + m * n + 1)
        cells[:t0] = d2[:t0]
        cells[_tri(m):_tri(m) + t1] = d2[t0:t0 + t1]
        cross = cells[_tri(m) + _tri(n):-1].reshape(m, n)
        cross[:m0, :n0] = d2[t0 + t1:].reshape(m0, n0)
        self._cells, self.d2, self.fill = cells, cells[:-1], (m, n)
        # pair offsets and ring slots, for the slots filled so far
        f = np.arange(2 * max(m, n))
        self._tri_start, self._slots = f * (f - 1) // 2, f % self.w

    def _value_grad(self, m, n, sigmas, tail):
        """mmd2_value_grad of the windows of the last push."""
        if (m, n) != self.fill or tail != self._tail:
            raise ShapeError(f"rows {(m, n)} and tail {tail} are not those of "
                             f"the last push, {self.fill} and {self._tail}")
        if m < 2 or n < 2:
            raise ShapeError(f"the pool's MMD needs 2 rows per window, has {(m, n)}")
        tv, tu = tail
        p, slab = self.d2.size, self._slab
        work = np.empty(p + slab.size)
        k_pairs, k_slab = work[:p], work[p:].reshape(slab.shape)
        # One ladder over the pool and the slabs: the pool gives the value,
        # the slabs the gradient of the new rows. acc holds sum_i c_i K_i / c
        # for the c = 1 / sigma^2 of the current bandwidth.
        acc = np.empty(slab.shape)
        segments = np.array((0, _tri(m), _tri(m) + _tri(n)))
        value, prev = 0.0, None
        for s in sigmas:
            if prev == 2.0 * s:
                work *= work
                work *= work
                acc *= 0.25
                acc += k_slab
            else:
                np.multiply(self.d2, -0.5 / (s * s), out=k_pairs)
                np.multiply(slab, -0.5 / (s * s), out=k_slab)
                np.exp(work, out=work)
                if prev is None:
                    np.copyto(acc, k_slab)
                else:
                    acc *= (s / prev) ** 2
                    acc += k_slab
            prev = s
            # within-set terms: twice the upper triangle plus the diagonal
            s_v, s_u, s_vu = np.add.reduceat(k_pairs, segments).tolist()
            value += ((2.0 * s_v + m) / (m * m) + (2.0 * s_u + n) / (n * n)
                      - 2.0 * s_vu / (m * n))
        if prev is None:
            acc[...] = 0.0
            prev = 1.0
        # w = acc / prev^2 scaled by the term's 1/m^2, 1/n^2 or -2/(m n);
        # per new row r, dz_r = 2 (sum_j w_rj z_j - (sum_j w_rj) z_r)
        c = 2.0 / (prev * prev)
        acc[:tv, :m] *= c / (m * m)
        acc[:tv, m:] *= -c / (m * n)
        acc[tv:, :m] *= -c / (m * n)
        acc[tv:, m:] *= c / (n * n)
        grad = acc @ self._z
        grad -= acc.sum(axis=1)[:, None] * self._new
        return float(value), grad[:tv], grad[tv:]


def softmax_backward(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Backprop dL/dq through row-wise softmax with output q; returns dL/dz."""
    return q * (dq - (dq * q).sum(axis=1, keepdims=True))
