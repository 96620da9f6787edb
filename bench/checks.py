"""Output checks made apart from the program.

The oracles here use plain numpy (matmul, relu, argmax, a stable softmax
and entropy) on the weights the program returns or checkpoints, and the
closed-form schedule. They import nothing from the package, so a fault in
the package cannot hide itself by being reused in its own check.
"""

import csv
import math

import numpy as np

# entropies this close to the gate threshold may fall on either side of it
# under a different but equally valid order of floating-point operations
GATE_TIE = 1e-9
LOSSES = ("loss_ce", "loss_ssl", "loss_akc", "loss_arc")


def model_weights(model):
    """(extractor weights, extractor biases, head W, head b) of a
    Classifier object."""
    ext, head = model.extractor, model.head
    return list(ext.weights), list(ext.biases), head.w, head.b


def checkpoint_weights(path):
    """The same tuple read straight from a checkpoint's arrays."""
    with np.load(path) as z:
        n = sum(1 for k in z.files if k.startswith("ext__W"))
        return ([z[f"ext__W{i}"] for i in range(n)],
                [z[f"ext__b{i}"] for i in range(n)],
                z["head__W"], z["head__b"])


def forward_logits(weights, x):
    """relu MLP with a linear last layer, then the linear head."""
    ext_w, ext_b, head_w, head_b = weights
    a = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(zip(ext_w, ext_b)):
        a = a @ w + b
        if i < len(ext_w) - 1:
            a = np.maximum(a, 0.0)
    return a @ head_w.T + head_b


def accuracy(weights, x, y) -> float:
    pred = np.argmax(forward_logits(weights, x), axis=1)
    return float((pred == np.asarray(y)).mean())


def gate_fraction_range(weights, x, eps: float):
    """Lowest and highest share of rows whose softmax entropy is <= eps,
    counting rows within GATE_TIE of eps as either."""
    z = forward_logits(weights, x)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    h = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)
    n = h.shape[0]
    return (int((h <= eps - GATE_TIE).sum()) / n,
            int((h <= eps + GATE_TIE).sum()) / n)


def cosine_lr(eta0: float, t: int, total: int) -> float:
    return eta0 * math.cos(7.0 * math.pi * t / (16.0 * total))


def same_params(a, b) -> bool:
    """Byte equality of two Classifier objects' parameters."""
    wa, wb = model_weights(a), model_weights(b)
    flat = lambda w: list(w[0]) + list(w[1]) + [w[2], w[3]]
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in zip(flat(wa), flat(wb)))


def read_metrics_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_run(label, rows, facts, target_w, source_w, test_x, test_y, pool_x):
    """Failures (as strings) of one fine-tuning run's per-epoch rows.

    `facts` holds what the run was asked to do: method tokens, eta0,
    epochs, steps_per_epoch, eps_k (nats) and the target class count.
    """
    bad = []
    parts = set(facts["method"].split("+"))
    epochs, spe, eta0 = facts["epochs"], facts["steps_per_epoch"], facts["eta0"]
    if [int(r["epoch"]) for r in rows] != list(range(epochs + 1)):
        return [f"{label}: epochs logged are not 0..{epochs}"]

    for r in rows:
        e = int(r["epoch"])
        want = eta0 if e == 0 else cosine_lr(eta0, (e - 1) * spe, spe * epochs)
        if not math.isclose(r["lr"], want, rel_tol=1e-12, abs_tol=0.0):
            bad.append(f"{label}: epoch {e} lr {r['lr']!r} != {want!r}")
        for col in LOSSES:
            if not (math.isfinite(r[col]) and r[col] >= 0):
                bad.append(f"{label}: epoch {e} {col}={r[col]!r} not finite >= 0")
        unused = []
        if not parts & {"pseudo_label", "mean_teacher"}:
            unused.append("loss_ssl")
        if "akc" not in parts:
            unused.append("loss_akc")
        if "arc" not in parts:
            unused += ["loss_arc", "arc_labeled_fraction", "arc_unlabeled_fraction"]
        if e == 0:
            unused = list(LOSSES) + ["arc_labeled_fraction", "arc_unlabeled_fraction"]
        for col in unused:
            if r[col] != 0.0:
                bad.append(f"{label}: epoch {e} {col}={r[col]!r}, expected 0")

    lo, hi = gate_fraction_range(source_w, pool_x, facts["eps_k"])
    for r in rows:
        if not lo <= r["akc_fraction"] <= hi:
            bad.append(f"{label}: akc_fraction {r['akc_fraction']!r} outside the "
                       f"recomputed gate share [{lo}, {hi}]")
            break

    if epochs and all(a.tobytes() == b.tobytes() for a, b in zip(target_w[0], source_w[0])):
        bad.append(f"{label}: fine-tuning left the target extractor at its pre-trained copy")

    last = rows[-1]["test_acc"]
    acc = accuracy(target_w, test_x, test_y)
    if acc != last:
        bad.append(f"{label}: logged test_acc {last!r} != recomputed {acc!r}")
    if not last > 1.0 / facts["n_classes"]:
        bad.append(f"{label}: test_acc {last!r} not above chance")
    return bad
