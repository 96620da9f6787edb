import copy
import os

# One BLAS thread unless the caller chose, set before numpy loads, so the
# timed acceptance gates do not depend on how many cores a shared host
# lends; the demo and benchmark subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from akcarc import consistency, numerics
from akcarc.consistency import ArcState, akc_weights, arc_loss
from akcarc.model import Classifier, LinearHead, MlpExtractor, ModelPair


def finite_diff(params: dict, loss_fn, picks, h=1e-5, rng=None):
    """Central finite differences of loss_fn at `picks` random entries per
    parameter. Yields (name, index, fd_value)."""
    rng = rng or np.random.default_rng(0)
    for name, p in params.items():
        flat = p.reshape(-1)
        for _ in range(picks):
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + h
            hi = loss_fn()
            flat[i] = old - h
            lo = loss_fn()
            flat[i] = old
            yield name, i, (hi - lo) / (2 * h)


def assert_grads_match(params, grads, loss_fn, picks=3, rel=1e-4, abs_tol=1e-7,
                       rng=None):
    for name, i, fd in finite_diff(params, loss_fn, picks, rng=rng):
        g = grads[name].reshape(-1)[i]
        assert g == pytest.approx(fd, rel=rel, abs=abs_tol), (
            f"gradient mismatch at {name}[{i}]: analytic {g} vs fd {fd}"
        )


def term_grads(model, x, term):
    """Value and parameter gradients of a loss term written on features and
    logits, run as `total_loss` runs it: `activations`, then the term, then
    `Classifier.backward`. `term(features, logits)` returns (value,
    d_logits, d_features); either gradient may be None."""
    acts = model.extractor.activations(x)
    logits = model.head.forward(acts[-1])
    value, d_logits, d_features = term(acts[-1], logits)
    if d_logits is None:
        d_logits = np.zeros_like(logits)
    return value, model.backward(acts, d_logits, d_features)


def hold_sigmas(monkeypatch, sigmas):
    """Make `arc_loss` use the bandwidths `sigmas` in place of the median
    heuristic, so a finite difference sees them as constants."""
    monkeypatch.setattr(consistency, "median_sigmas", lambda pairs: list(sigmas))


def pushed_pool(v, u, tail):
    """A fresh `PairPool` filled as a step fills it: a first push of the
    rows outside tail = (tv, tu), then the windows v and u whose last tv
    and tu rows are new."""
    (m, n), (tv, tu) = (len(v), len(u)), tail
    pool = numerics.PairPool(max(m, n))
    pool.push(v[:m - tv], u[:n - tu], (np.arange(m - tv), np.arange(n - tu)))
    pool.push(v, u, (np.arange(m - tv, m), np.arange(n - tu, n)))
    return pool


def seeded_arc(w, rows_l, rows_u):
    """An `ArcState` of windows of w rows holding rows_l and rows_u, pushed
    as a step pushes its selections: one-class logits have entropy 0, so
    every row passes the gate."""
    state = ArcState(w)
    arc_loss(rows_l, rows_u, np.zeros((len(rows_l), 1)),
             np.zeros((len(rows_u), 1)), 0.0, state)
    return state


def frozen_source(pair, x_l, x_u, cfg):
    """The `source` argument of `total_loss` for the rows [x_l; x_u]: frozen
    source features and AKC gate weights, computed as `run_pipeline`
    computes them for the pool."""
    f0 = pair.source.extractor.forward(np.vstack([x_l, x_u]))
    return f0, akc_weights(pair.source.head, f0, cfg.eps_k(pair.source.head.n_classes))


@pytest.fixture
def small_pair():
    """Source/target pair on a 5-input, 3-feature net; target head 3 classes,
    source head 4 classes; target parameters perturbed away from source."""
    rng = np.random.default_rng(42)
    ext = MlpExtractor([5, 8, 3], rng)
    src = Classifier(ext, LinearHead(4, 3, rng))
    tgt_ext = copy.deepcopy(ext)
    for w in tgt_ext.weights:
        w += rng.normal(0, 0.05, size=w.shape)
    tgt = Classifier(tgt_ext, LinearHead(3, 3, rng))
    return ModelPair(source=src, target=tgt)


@pytest.fixture
def micro_batch():
    rng = np.random.default_rng(7)
    x_l = rng.normal(size=(6, 5))
    y_l = rng.integers(0, 3, size=6)
    x_u = rng.normal(size=(6, 5))
    return x_l, y_l, x_u
