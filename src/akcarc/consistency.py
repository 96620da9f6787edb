"""Adaptive knowledge consistency (AKC) and adaptive representation
consistency (ARC): entropy-gated sample selection, the replay buffer, and
the two regularization losses. Each loss is a function of extractor
features that returns its value and its gradient w.r.t. those features.

AKC penalizes divergence between frozen-source and target extractor
features on confidently recognized inputs. ARC penalizes MMD between the
representation distributions of confidently predicted labeled and
unlabeled examples, stabilized by replay buffers of recent selections;
`ArcState` carries the buffers and the pair distances of their windows
from step to step.
"""

import numpy as np

from .errors import EmptyInput, InvalidInput, ShapeError
from .numerics import (
    LOG_CLAMP,
    as_tensor2,
    entropy_rows,
    median_sigmas,
    mmd2_value_grad,
    softmax_backward,
    softmax_rows,
)


def entropy_gate(logits, eps: float) -> np.ndarray:
    """The adaptive selection of AKC and ARC: True for each row whose
    prediction (softmax of its logits) has entropy at or below eps."""
    return entropy_rows(softmax_rows(logits)) <= eps


def akc_weights(source_model, x, eps_k: float) -> np.ndarray:
    """Binary AKC selection weights of a batch: 1 where the frozen source's
    prediction passes the entropy gate at eps_k. `source_model` is anything
    whose `forward` maps `x` to source logits: the source `Classifier` on
    inputs, or its `LinearHead` on source features already computed."""
    return entropy_gate(source_model.forward(x), eps_k).astype(np.float64)


def akc_loss(features, source_features, weights, mode: str):
    """Knowledge-consistency penalty between source and target features.

    R_K = (1/B) sum_i w_i * D(F_source(x_i), F_target(x_i)), D per `mode`
    ("mse" on raw features, "kl" on softmax-normalized features), where
    `weights` are the AKC gate weights of the rows. Returns (value,
    dR_K/d`features`, selected_fraction).
    """
    f = as_tensor2(features)
    b = f.shape[0]
    if b == 0:
        raise EmptyInput("akc_loss requires a non-empty batch")
    f0 = as_tensor2(source_features)
    if f0.shape != f.shape:
        raise ShapeError(f"source features {f0.shape} != target features {f.shape}")
    w = np.asarray(weights, dtype=np.float64)
    frac = float(w.sum() / b)
    if w.sum() == 0:
        return 0.0, np.zeros_like(f), frac

    if mode == "mse":
        # squared euclidean distance per sample (summed over feature dims,
        # matching the dimensional scaling of the KL mode)
        diff = f - f0
        value = float((w * (diff * diff).sum(axis=1)).sum() / b)
        d_f = (2.0 / b) * w[:, None] * diff
    elif mode == "kl":
        p0 = softmax_rows(f0)
        q = softmax_rows(f)
        qc = np.maximum(q, LOG_CLAMP)
        per = (np.where(p0 > 0, p0 * (np.log(np.maximum(p0, LOG_CLAMP)) - np.log(qc)), 0.0)).sum(axis=1)
        value = float((w * per).sum() / b)
        d_q = np.where(q > LOG_CLAMP, -p0 / qc, 0.0)
        d_f = softmax_backward(q, d_q) * (w[:, None] / b)
    else:
        raise InvalidInput(f"unknown AKC mode {mode!r}")
    return value, d_f, frac


class ReplayBuffer:
    """Bounded FIFO of detached representation rows, stored by slot.

    The i-th row added sits in slot i mod capacity, so `rows[:len(buf)]` is
    the window of the newest min(added, capacity) rows in slot order.
    `update` copies rows in over the oldest and records in `new` the slots
    it wrote, oldest row first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidInput("capacity must be >= 1")
        self.capacity = capacity
        self.added = 0  # rows added so far
        self.rows = np.zeros((0, 0))  # (capacity, dim) from the first update
        self.new = np.zeros(0, dtype=np.intp)

    def __len__(self):
        return min(self.added, self.capacity)

    def update(self, rows):
        if not np.size(rows):
            self.new = np.zeros(0, dtype=np.intp)
            return
        rows = as_tensor2(rows)
        if not self.added:
            self.rows = np.empty((self.capacity, rows.shape[1]))
        elif rows.shape[1] != self.rows.shape[1]:
            raise ShapeError(f"row dim {rows.shape[1]} != buffer dim {self.rows.shape[1]}")
        self.added += rows.shape[0]
        kept = rows[-self.capacity:]
        self.new = np.arange(self.added - kept.shape[0], self.added) % self.capacity
        self.rows[self.new] = kept


def buffer_update_and_fetch(buf: ReplayBuffer, new_rows) -> np.ndarray:
    """Add new_rows to buf and return its window in slot order, as a view
    that callers must not write to."""
    buf.update(new_rows)
    return buf.rows[:len(buf)]


def _tri(n: int) -> int:
    """Pairs among n rows."""
    return n * (n - 1) // 2


class ArcState:
    """What ARC carries from step to step: the labeled and unlabeled replay
    buffers `buf_l` and `buf_u`, whose windows v and u hold the newest w
    rows each, and the squared distances among the rows of [v; u], kept
    from push to push so that each push computes only its new rows'.

    `d2` is allocated once and holds every pair once, by slot: the strict
    upper triangle of the v window (pair i < j at j(j - 1)/2 + i), the same
    for the u window, the w x w block between them, and a last cell that
    takes each new row's pair with itself. A window of m < w rows fills its
    first m slots. The block is u slot major because a push writes its new
    rows' cells as rows and columns of it, rows write faster, and ARC's
    unlabeled window takes more new rows per step than its labeled one.
    `cell[0]` and `cell[1]` map a slot pair of v and of u to its cell; they
    depend only on w, so they are built here once.

    `push()` reads the windows and their new slots `new` = (sv, su) from the
    buffers, computes the slabs (the new rows against every row of
    [v; u]), writes them into their cells and keeps them as `slab` for the
    gradient of the same step; `parts()` gives the cells of the last
    push's pairs.
    """

    def __init__(self, w: int):
        self.w = w
        self.buf_l, self.buf_u = ReplayBuffer(w), ReplayBuffer(w)
        t = _tri(w)
        self.d2 = np.empty(2 * t + w * w + 1)
        # built in place: no w x w temporary raises the run's peak memory
        c, cell = np.arange(w), np.empty((2, w, w), dtype=np.intp)
        np.maximum.outer(c, c, out=cell[1])
        np.take(c * (c - 1) // 2, cell[1], out=cell[0])
        cell[0] += np.minimum.outer(c, c, out=cell[1])
        np.add(cell[0], t, out=cell[1])
        # each row's pair with itself goes to the last cell (contiguous
        # values scatter faster than a masked write)
        cell[:, c, c] = self.d2.size - 1
        self.cell = cell
        self.fill = (0, 0)
        self.slab = None

    @property
    def new(self):
        """The slots (sv, su) of the last push's new rows."""
        return self.buf_l.new, self.buf_u.new

    def push(self):
        """Record the distances of the rows the buffers' last updates wrote."""
        (bl, bu), w = (self.buf_l, self.buf_u), self.w
        (m, n), (sv, su) = (len(bl), len(bu)), self.new
        v, u = bl.rows[:m], bu.rows[:n]
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

        tv, d2 = sv.size, self.d2
        d2[self.cell[0, sv, :m]] = np.ascontiguousarray(slab[:tv, :m])
        d2[self.cell[1, su, :n]] = np.ascontiguousarray(slab[tv:, m:])
        cross = d2[2 * _tri(w):-1].reshape(w, w)
        cross[su, :m] = slab[tv:, :m]
        cross[:n, sv] = slab[:tv, m:].T
        self.fill, self.slab = (m, n), slab

    def parts(self):
        """The cells of the last push's pairs: the v triangle, the u
        triangle and the n x m block between them."""
        (m, n), w, t = self.fill, self.w, _tri(self.w)
        cross = self.d2[2 * t:-1].reshape(w, w)
        return self.d2[:_tri(m)], self.d2[t:t + _tri(n)], cross[:n, :m]


def arc_loss(f_l, f_u, logits_l, logits_u, eps_r, state: ArcState):
    """Representation-consistency penalty between labeled and unlabeled streams.

    Rows of the features `f_l`, `f_u` whose matching logits pass the
    entropy gate at eps_r are pushed into the per-stream replay buffers of
    `state`, which then records their distances; the MMD is computed on
    the buffers' windows of the newest w rows each. Gradients flow only
    through current-batch selected rows (buffered rows are detached). If
    either window has fewer than 2 rows the loss is 0 with zero gradient.
    Returns (value, (dR/df_l, dR/df_u), labeled_fraction,
    unlabeled_fraction).

    The bandwidths come from the median-distance heuristic on the windows
    and are constants with respect to the gradient.
    """
    f_l, f_u = as_tensor2(f_l), as_tensor2(f_u)
    idx_l = np.flatnonzero(entropy_gate(logits_l, eps_r))
    idx_u = np.flatnonzero(entropy_gate(logits_u, eps_r))
    frac_l = len(idx_l) / max(f_l.shape[0], 1)
    frac_u = len(idx_u) / max(f_u.shape[0], 1)

    star_l = buffer_update_and_fetch(state.buf_l, f_l[idx_l])
    star_u = buffer_update_and_fetch(state.buf_u, f_u[idx_u])
    state.push()

    d_f_l, d_f_u = np.zeros_like(f_l), np.zeros_like(f_u)
    if star_l.shape[0] < 2 or star_u.shape[0] < 2:
        return 0.0, (d_f_l, d_f_u), frac_l, frac_u

    sigmas = median_sigmas(state)
    value, d_l, d_u = mmd2_value_grad(star_l, star_u, sigmas, state)
    # the rows the buffers kept are the last selected ones; only they carry
    # gradients back into the extractor
    d_f_l[idx_l[len(idx_l) - state.buf_l.new.size:]] = d_l
    d_f_u[idx_u[len(idx_u) - state.buf_u.new.size:]] = d_u
    return float(value), (d_f_l, d_f_u), frac_l, frac_u
