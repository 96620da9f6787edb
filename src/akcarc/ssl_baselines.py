"""Supervised cross-entropy plus the plug-in semi-supervised losses:
pseudo-labeling and mean teacher. Each is a function of logits returning
(value, dL/dlogits); `Classifier.backward` turns that into parameter
gradients."""

import numpy as np

from .errors import EmptyInput, InvalidLabel
from .numerics import LOG_CLAMP, as_tensor2, softmax_backward, softmax_rows


def _nll_grad(probs, y):
    """Gradient w.r.t. the logits of the mean negative log-probability of
    classes `y` under softmax rows `probs`, written over `probs`."""
    probs[np.arange(probs.shape[0]), y] -= 1.0
    probs /= probs.shape[0]
    return probs


def _nll(probs, y):
    """Mean negative log-probability of classes `y` under softmax rows
    `probs`, and its gradient w.r.t. the logits of those rows, written over
    `probs`."""
    value = float(-np.log(np.maximum(probs[np.arange(probs.shape[0]), y],
                                     LOG_CLAMP)).mean())
    return value, _nll_grad(probs, y)


def cross_entropy_loss(logits, y):
    """Mean negative log-probability of the true class."""
    z = as_tensor2(logits)
    y = np.asarray(y, dtype=int)
    if z.shape[0] == 0:
        raise EmptyInput("cross_entropy_loss requires a non-empty batch")
    c = z.shape[1]
    if np.any(y < 0) or np.any(y >= c):
        raise InvalidLabel(f"labels must be in [0, {c})")
    return _nll(softmax_rows(z), y)


def cross_entropy_grad(logits, y):
    """The gradient of `cross_entropy_loss` w.r.t. non-empty logits,
    without its value, for a loop that would discard the value. The labels
    `y` (an int array) are not range-checked here: the caller checks them
    once for the whole set."""
    return _nll_grad(softmax_rows(logits), y)


def pseudo_label_loss(logits, pl_confidence: float):
    """Cross-entropy against the model's own confident argmax predictions.

    Examples with max softmax probability below pl_confidence are ignored;
    the loss averages over accepted examples (0 if none). The pseudo-label
    is treated as a constant.
    """
    z = as_tensor2(logits)
    if z.shape[0] == 0:
        raise EmptyInput("pseudo_label_loss requires a non-empty batch")
    probs = softmax_rows(z)
    d_logits = np.zeros_like(probs)
    accepted = np.flatnonzero(probs.max(axis=1) >= pl_confidence)
    if accepted.size == 0:
        return 0.0, d_logits
    confident = probs[accepted]
    value, d_logits[accepted] = _nll(confident, confident.argmax(axis=1))
    return value, d_logits


def noisy_views(x_unlabeled, noise_std: float, rng):
    """Student and teacher inputs for mean teacher: two independent Gaussian
    perturbations of the batch, drawn in that order (none if noise_std is 0)."""
    x = as_tensor2(x_unlabeled)
    x_s = x + rng.normal(0.0, noise_std, size=x.shape) if noise_std > 0 else x
    x_t = x + rng.normal(0.0, noise_std, size=x.shape) if noise_std > 0 else x
    return x_s, x_t


def mean_teacher_loss(student_logits, teacher_logits):
    """Mean squared difference between student and EMA-teacher softmax
    outputs. The teacher side is a constant: the gradient is w.r.t. the
    student logits only."""
    z = as_tensor2(student_logits)
    if z.shape[0] == 0:
        raise EmptyInput("mean_teacher_loss requires a non-empty batch")
    p_s = softmax_rows(z)
    diff = p_s - softmax_rows(teacher_logits)
    value = float((diff * diff).mean())
    d_p = 2.0 * diff / diff.size
    return value, softmax_backward(p_s, d_p)
