"""Reference implementations that the tests compare the package against.
They share no code with the kernels they check: the scalar ones loop one
pair of rows at a time, and the dense ones build every pair's kernel
value from coordinate differences."""

import numpy as np

from akcarc.errors import InvalidInput, ShapeError


def rbf_kernel(x, y, sigma: float) -> float:
    """Gaussian RBF kernel exp(-||x - y||^2 / (2 sigma^2)) of two rows."""
    if sigma <= 0:
        raise InvalidInput(f"sigma must be > 0, got {sigma}")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"dim mismatch: {x.shape} vs {y.shape}")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def brute_force_mmd2(v, u, sigmas) -> float:
    """Triple-loop kernel-sum oracle for the biased V-statistic MMD^2,
    summed over the bandwidths."""
    m, n = len(v), len(u)
    total = 0.0
    for s in sigmas:
        a = sum(rbf_kernel(v[i], v[j], s) for i in range(m) for j in range(m)) / (m * m)
        b = sum(rbf_kernel(u[i], u[j], s) for i in range(n) for j in range(n)) / (n * n)
        c = sum(rbf_kernel(v[i], u[j], s) for i in range(m) for j in range(n)) / (m * n)
        total += a + b - 2 * c
    return total


def pair_sq_dists(v, u):
    """Squared distances among the pooled rows [v; u]."""
    z = np.vstack([v, u])
    zz = (z * z).sum(axis=1)
    return np.maximum(zz[:, None] + zz[None, :] - 2.0 * z @ z.T, 0.0)


def dense_median_sigmas(v, u):
    """Bandwidths [0.5, 1, 2] times the numpy median of the distances of
    the pairs among [v; u] (each pair once), or times 1 if that is 0."""
    p = len(v) + len(u)
    med = np.median(np.sqrt(pair_sq_dists(v, u)[np.triu_indices(p, 1)]))
    if med <= 0:
        med = 1.0
    return [0.5 * med, med, 2.0 * med]


def dense_mmd2_value_grad(v, u, sigmas):
    """The biased MMD^2 of v and u summed over the bandwidths, with its
    gradient w.r.t. every row of v and of u: one exp per bandwidth over
    the whole pooled kernel matrix."""
    v, u = np.asarray(v, dtype=np.float64), np.asarray(u, dtype=np.float64)
    m, n = len(v), len(u)
    z = np.vstack([v, u])
    d2 = pair_sq_dists(v, u)
    value, dk = 0.0, np.zeros_like(d2)
    for s in sigmas:
        k = np.exp(d2 * (-0.5 / (s * s)))
        value += k[:m, :m].mean() + k[m:, m:].mean() - 2.0 * k[:m, m:].mean()
        dk += k / (s * s)
    # weight of pair (i, j) in the V-statistic: 1/m^2, 1/n^2 or -1/(m n)
    dk[:m, :m] /= m * m
    dk[m:, m:] /= n * n
    dk[:m, m:] /= -m * n
    dk[m:, :m] /= -m * n
    # d/dz_i of sum_ij w_ij k(z_i, z_j) = 2 sum_j w_ij k_ij (z_j - z_i) / s^2
    grad = 2.0 * (dk @ z - dk.sum(axis=1)[:, None] * z)
    return float(value), grad[:m], grad[m:]


# ---------------------------------------------------------------------------
# the per-array training step: forward, backward, momentum and EMA one
# parameter array at a time, each array its own object, as the package ran
# them before it kept a classifier's parameters in one flat vector


def reference_sampler(n, batch_size, rng):
    """Uniform batches without replacement; an epoch that runs out
    reshuffles and completes the batch from the fresh permutation."""
    order, pos = rng.permutation(n), 0
    while True:
        out, need = [], batch_size
        while need > 0:
            if pos == n:
                order, pos = rng.permutation(n), 0
            take = min(need, n - pos)
            out.append(order[pos:pos + take])
            pos += take
            need -= take
        yield np.concatenate(out)


def reference_activations(weights, biases, x):
    """[x, relu hidden..., linear features] of an MLP."""
    acts = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
    return acts


def reference_ce_grad(logits, y):
    """d/dlogits of the mean cross-entropy: (softmax - onehot) / B."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    d = e / e.sum(axis=1, keepdims=True)
    d[np.arange(len(y)), y] -= 1.0
    return d / len(y)


def reference_backward(weights, head_w, acts, d_logits):
    """Per-array gradients [dW0, db0, dW1, db1, ..., dHeadW, dHeadb]."""
    d = d_logits @ head_w
    head = [d_logits.T @ acts[-1], d_logits.sum(axis=0, keepdims=True)]
    grads = []
    for i in reversed(range(len(weights))):
        if i < len(weights) - 1:
            d = d * (acts[i + 1] > 0)
        grads = [acts[i].T @ d, d.sum(axis=0, keepdims=True)] + grads
        d = d @ weights[i].T
    return grads + head


def reference_momentum_step(params, velocity, grads, eta):
    """v <- 0.9 v + g; p <- p - eta v, array by array, in place."""
    for p, v, g in zip(params, velocity, grads):
        v *= 0.9
        v += g
        p -= eta * v


def reference_ema(teacher, student, alpha):
    """teacher <- alpha teacher + (1 - alpha) student, array by array."""
    for t, s in zip(teacher, student):
        t *= alpha
        t += (1.0 - alpha) * s


def reference_train_supervised(params, x, y, epochs, batch_size, eta0, rng):
    """Cross-entropy pre-training of the arrays `params` = [W0, b0, ...,
    head W, head b] in place, per array: the batches, cosine schedule,
    forward, backward and momentum of `train_supervised`."""
    n = x.shape[0]
    steps_per_epoch = max(1, int(np.ceil(n / batch_size)))
    total = steps_per_epoch * max(epochs, 1)
    weights, biases = params[0:-2:2], params[1:-2:2]
    head_w, head_b = params[-2], params[-1]
    velocity = [np.zeros_like(p) for p in params]
    batches = reference_sampler(n, min(batch_size, n), rng)
    for t in range(epochs * steps_per_epoch):
        idx = next(batches)
        acts = reference_activations(weights, biases, x[idx])
        d_logits = reference_ce_grad(acts[-1] @ head_w.T + head_b, y[idx])
        eta = eta0 * float(np.cos(7.0 * np.pi * t / (16.0 * total)))
        reference_momentum_step(params, velocity,
                                reference_backward(weights, head_w, acts, d_logits), eta)
