"""Shared test helpers: brute-force oracles and random-instance builders."""

import numpy as np
import pytest

from dcic.data import ClassPrior, Dataset, TransitionMatrix
from dcic.kernels import gaussian_gram


def brute_force_weighted_mmd(k_ss, k_tt, k_ts, weights):
    """Double-loop evaluation of the weighted squared MMD.

    k_ts is indexed [target, source] to match the package convention.
    """
    m = k_ss.shape[0]
    n = k_tt.shape[0]
    total = 0.0
    for a in range(m):
        for b in range(m):
            total += weights[a] * weights[b] * k_ss[a, b] / (m * m)
    for t in range(n):
        for a in range(m):
            total -= 2.0 * weights[a] * k_ts[t, a] / (m * n)
    for t in range(n):
        for u in range(n):
            total += k_tt[t, u] / (n * n)
    return total


def poly2_kernel_matrix(a, b):
    """Degree-2 polynomial kernel (a.b + 1)^2, whose explicit feature map
    lets MMD values be checked against literal mean-embedding vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (a @ b.T + 1.0) ** 2


def poly2_features(x):
    """Explicit map phi with phi(x) . phi(y) = (x.y + 1)^2."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    cols = [np.ones((n, 1)), np.sqrt(2.0) * x, x ** 2]
    for i in range(d):
        for j in range(i + 1, d):
            cols.append(np.sqrt(2.0) * (x[:, i] * x[:, j])[:, None])
    return np.hstack(cols)


def dense_grad_w(w, alpha, source, target, g, sigma):
    """W gradient of the weighted MMD from full dense Grams.

    Every kernel entry k(x'_a, x'_b) contributes its quadratic-form
    coefficient times -k (x_a - x_b)(x'_a - x'_b)^T / sigma^2; summed per
    block via weighted scatter matrices. The oracle for the chunked engine.
    """
    w = np.asarray(w, dtype=np.float64)
    xs, xt = source.features, target.features
    m, n = xs.shape[0], xt.shape[0]
    v = g.weights(np.asarray(alpha, dtype=np.float64))
    sp, tp = xs @ w, xt @ w

    def pair_scatter(xa, xb, coeff_times_k):
        row = coeff_times_k.sum(axis=1)
        col = coeff_times_k.sum(axis=0)
        cross = xa.T @ (coeff_times_k @ xb)
        return ((xa * row[:, None]).T @ xa - cross - cross.T
                + (xb * col[:, None]).T @ xb)

    m_ss = (np.outer(v, v) / (m * m)) * gaussian_gram(sp, sp, sigma)
    m_ts = (-2.0 / (m * n)) * (gaussian_gram(tp, sp, sigma) * v[None, :])
    m_tt = gaussian_gram(tp, tp, sigma) / (n * n)
    scatter = (pair_scatter(xs, xs, m_ss) + pair_scatter(xt, xs, m_ts)
               + pair_scatter(xt, xt, m_tt))
    return (-1.0 / float(sigma) ** 2) * (scatter @ w)


def central_difference(fn, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += h
        minus = x.copy()
        minus[idx] -= h
        grad[idx] = (fn(plus) - fn(minus)) / (2.0 * h)
        it.iternext()
    return grad


def relative_grad_error(analytic, numeric):
    """Max componentwise error relative to the gradient's overall scale."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def random_transition(rng, c, strength=0.6):
    """Random diagonally dominant row-stochastic matrix."""
    q = rng.uniform(0.0, 1.0, size=(c, c))
    np.fill_diagonal(q, 0.0)
    q = q / q.sum(axis=1, keepdims=True) * (1.0 - strength)
    np.fill_diagonal(q, strength)
    return TransitionMatrix(q / q.sum(axis=1, keepdims=True))


def random_prior(rng, c, floor=0.1):
    p = rng.uniform(floor, 1.0, size=c)
    return ClassPrior(p / p.sum())


def random_noisy_dataset(rng, m, d, c):
    features = rng.standard_normal((m, d))
    labels = rng.integers(1, c + 1, size=m)
    labels[:c] = np.arange(1, c + 1)  # every class present
    return Dataset(features, labels, "noisy", c)


def pytest_collection_modifyitems(config, items):
    """Mark every acceptance gate ``slow``: ``-m "not slow"`` is the quick
    loop, the plain run still runs every gate."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
