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
