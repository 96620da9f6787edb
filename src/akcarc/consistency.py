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
    PairPool,
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

    A buffer serves only its newest k rows, so it keeps at most
    `capacity` = min(capacity, k) of them: the i-th row added sits in slot
    i mod capacity, and `rows[:len(buf)]` is its window in slot order.
    `update` copies rows in over the oldest; `newest(t)` names the slots of
    the newest t rows, oldest first; `get_last_k` returns the newest
    min(k, len) rows, oldest first.
    """

    def __init__(self, capacity: int, k: int):
        if capacity < 1 or k < 1:
            raise InvalidInput("capacity and k must be >= 1")
        self.capacity = min(capacity, k)
        self.added = 0  # rows added so far
        self.rows = np.zeros((0, 0))  # (capacity, dim) from the first update

    def __len__(self):
        return min(self.added, self.capacity)

    def newest(self, t: int) -> np.ndarray:
        return np.arange(self.added - t, self.added) % self.capacity

    def update(self, rows):
        if not np.size(rows):
            return
        rows = as_tensor2(rows)
        if not self.added:
            self.rows = np.empty((self.capacity, rows.shape[1]))
        elif rows.shape[1] != self.rows.shape[1]:
            raise ShapeError(f"row dim {rows.shape[1]} != buffer dim {self.rows.shape[1]}")
        self.added += rows.shape[0]
        kept = rows[-self.capacity:]
        self.rows[self.newest(kept.shape[0])] = kept

    def get_last_k(self) -> np.ndarray:
        return self.rows[self.newest(len(self))]


def buffer_update_and_fetch(buf: ReplayBuffer, new_rows) -> np.ndarray:
    """Add new_rows to buf and return its window in slot order, as a view
    that callers must not write to."""
    buf.update(new_rows)
    return buf.rows[:len(buf)]


class ArcState:
    """What ARC carries from step to step: the labeled and unlabeled replay
    buffers and a `PairPool` of the squared distances among the rows of
    their windows, with one slot per buffer slot."""

    def __init__(self, capacity: int, k: int):
        self.buf_l = ReplayBuffer(capacity, k)
        self.buf_u = ReplayBuffer(capacity, k)
        self.pairs = PairPool(self.buf_l.capacity)


def arc_loss(f_l, f_u, logits_l, logits_u, eps_r, state: ArcState):
    """Representation-consistency penalty between labeled and unlabeled streams.

    Rows of the features `f_l`, `f_u` whose matching logits pass the
    entropy gate at eps_r are pushed into the per-stream replay buffers of
    `state`, and their distances into its pair pool; the MMD is computed on
    the fetched recent-k sets. Gradients flow only through current-batch
    selected rows (buffered rows are detached). If either fetched set has
    fewer than 2 rows the loss is 0 with zero gradient. Returns (value,
    (dR/df_l, dR/df_u), labeled_fraction, unlabeled_fraction).

    The bandwidths come from the median-distance heuristic on the fetched
    sets and are constants with respect to the gradient.
    """
    f_l, f_u = as_tensor2(f_l), as_tensor2(f_u)
    idx_l = np.flatnonzero(entropy_gate(logits_l, eps_r))
    idx_u = np.flatnonzero(entropy_gate(logits_u, eps_r))
    frac_l = len(idx_l) / max(f_l.shape[0], 1)
    frac_u = len(idx_u) / max(f_u.shape[0], 1)

    star_l = buffer_update_and_fetch(state.buf_l, f_l[idx_l])
    star_u = buffer_update_and_fetch(state.buf_u, f_u[idx_u])
    # the current batch's rows that stay in the windows are the newest
    # rows; only they carry gradients back into the extractor
    n_l = min(len(idx_l), star_l.shape[0])
    n_u = min(len(idx_u), star_u.shape[0])
    state.pairs.push(star_l, star_u, (state.buf_l.newest(n_l), state.buf_u.newest(n_u)))

    d_f_l, d_f_u = np.zeros_like(f_l), np.zeros_like(f_u)
    if star_l.shape[0] < 2 or star_u.shape[0] < 2:
        return 0.0, (d_f_l, d_f_u), frac_l, frac_u

    sigmas = median_sigmas(state.pairs)
    value, d_l, d_u = mmd2_value_grad(star_l, star_u, sigmas, state.pairs)
    d_f_l[idx_l[len(idx_l) - n_l:]] = d_l
    d_f_u[idx_u[len(idx_u) - n_u:]] = d_u
    return float(value), (d_f_l, d_f_u), frac_l, frac_u
