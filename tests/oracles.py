"""Scalar reference implementations that the tests compare the package
against. They loop one pair of rows at a time and share no code with the
vectorized kernels they check."""

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
