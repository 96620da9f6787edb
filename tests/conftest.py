import copy
import csv
import os

# One BLAS thread unless the caller chose, set before numpy loads, so the
# timed acceptance gates do not depend on how many cores a shared host
# lends; the demo and benchmark subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from akcarc import consistency
from akcarc.consistency import ArcState, akc_weights, arc_loss
from akcarc.data import generate_task
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
    d_logits, d_features); either gradient may be None. The gradients are
    a copy of the model's flat gradient, keyed like `model.params()`, so a
    later backward leaves them as they are."""
    acts = model.extractor.activations(x)
    logits = model.head.forward(acts[-1])
    value, d_logits, d_features = term(acts[-1], logits)
    if d_logits is None:
        d_logits = np.zeros_like(logits)
    return value, model.named(model.backward(acts, d_logits, d_features).copy())


def hold_sigmas(monkeypatch, sigmas):
    """Make `arc_loss` use the bandwidths `sigmas` in place of the median
    heuristic, so a finite difference sees them as constants."""
    monkeypatch.setattr(consistency, "median_sigmas", lambda pairs: list(sigmas))


def pushed_pool(v, u, tail):
    """A fresh `ArcState` filled through its buffers as a step fills it: a
    first push of the rows outside tail = (tv, tu), then one of the last tv
    and tu rows, so that its windows are v and u."""
    (m, n), (tv, tu) = (len(v), len(u)), tail
    state = ArcState(max(m, n))
    for rows_l, rows_u in ((v[:m - tv], u[:n - tu]), (v[m - tv:], u[n - tu:])):
        state.buf_l.update(rows_l)
        state.buf_u.update(rows_u)
        state.push()
    return state


def rows_by_age(buf):
    """The rows of a replay buffer's window, oldest first, read from its
    slots: the i-th row added sits in slot i mod capacity."""
    return buf.rows[np.arange(buf.added - len(buf), buf.added) % buf.capacity]


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


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap `owner.<name>` for the test; the returned list gets the first
    argument of each call from now on."""
    calls, inner = [], getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return inner(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def write_csv_task(directory, spec) -> dict:
    """Write the synthetic task of `spec` as three CSV files in `directory`
    and return their paths keyed by config field: source training rows,
    target training rows and target test rows."""
    source, target = generate_task(spec)
    paths = {}
    for field, x, y in [("source_train_csv", source.labeled_x, source.labeled_y),
                        ("target_train_csv", target.labeled_x, target.labeled_y),
                        ("target_test_csv", target.test_x, target.test_y)]:
        paths[field] = os.path.join(directory, f"{field}.csv")
        with open(paths[field], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{i}" for i in range(x.shape[1])] + ["label"])
            writer.writerows([*map(repr, row), lab] for row, lab in zip(x.tolist(), y))
    return paths


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
