"""Shared test helpers: brute-force oracles and random-instance builders."""

import csv
import os
from dataclasses import dataclass

# OpenBLAS on one thread, as the benchmark runs it: harness._WORKERS then
# follows the CPUs, so the suite runs the forked sweep pool that the
# benchmark times, and it ran in about two thirds of
# the unpinned wall time with the same gate numbers. OpenBLAS reads the
# variable when numpy loads it, hence before any import of numpy; a value
# set by the caller stands.
BLAS_PINNED_HERE = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from dcic import harness
from dcic.data import ClassPrior, Dataset, TransitionMatrix, empirical_prior
from dcic.joint import _joint_batch, _weight_decay_value
from dcic.noise import (build_g_matrix, clean_prior_from_noisy,
                        gamma_weights)


def gaussian_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for single vectors: the
    scalar oracle for the blocked Gram computations."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dim mismatch: {x.shape} vs {y.shape}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def direct_gaussian_gram(a, b, sigma):
    """k(a_i, b_j) for two row sets, exp(-sum (a - b)^2 / (2 sigma^2)) from
    per-pair differences, one column at a time: the dense oracle for the
    kernel pass, free of the augmented product's cancellation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d2 = np.zeros((len(a), len(b)))
    for col in range(a.shape[1]):
        diff = np.subtract.outer(a[:, col], b[:, col])
        d2 += np.square(diff, out=diff)
    np.divide(d2, -2.0 * sigma * sigma, out=d2)
    return np.exp(d2, out=d2)


def joint_loss(model, source_batch: Dataset, target_batch: Dataset,
               q: TransitionMatrix, alpha, cfg, sigma: float | None = None,
               noisy_prior=None):
    """Joint objective on one batch pair: corrected reweighted risk, plus
    pi1 times the hidden-layer invariance penalty, plus l2_coeff times the
    weight-decay term. Returns (loss, LossGrads).

    The batch term is ``joint._joint_batch``, the one ``fit_joint`` runs;
    the decay term is added here as a gradient, where ``fit_joint`` applies
    it inside the SGD step. gamma and the per-class source weights are
    derived from alpha, q, and ``noisy_prior`` (default: the batch's own
    label frequencies). Pass ``sigma`` to pin the bandwidth, e.g. for
    finite-difference probes; by default it is recomputed from the batch's
    hidden features as a constant.
    """
    if source_batch.labels is None:
        raise ValueError("source batch must carry labels")
    alpha_vec = alpha.p if isinstance(alpha, ClassPrior) else np.asarray(alpha, dtype=np.float64)
    c = q.n_classes
    if noisy_prior is None:
        noisy_prior = empirical_prior(source_batch.labels, c)
    gamma = gamma_weights(alpha_vec, q, noisy_prior)
    class_rows = build_g_matrix(q, clean_prior_from_noisy(noisy_prior, q))
    loss, grads, _ = _joint_batch(
        model, source_batch.features, source_batch.labels,
        target_batch.features, q.q, gamma.gamma, class_rows, alpha_vec,
        cfg.pi1, sigma)
    if cfg.l2_coeff > 0:
        loss += cfg.l2_coeff * _weight_decay_value(model)
        grads.hidden_w = grads.hidden_w + cfg.l2_coeff * model.hidden_w
        grads.out_w = grads.out_w + cfg.l2_coeff * model.out_w
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite joint loss {loss!r}")
    return loss, grads


def write_dataset_csv(data: Dataset, path) -> None:
    """Write ``data`` in the CSV layout ``read_dataset_csv`` loads: header
    f1,...,fd[,label], floats written with repr so round-trips are exact."""
    header = [f"f{i + 1}" for i in range(data.dim)]
    if data.labels is not None:
        header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n_samples):
            row = [repr(float(v)) for v in data.features[i]]
            if data.labels is not None:
                row.append(str(int(data.labels[i])))
            writer.writerow(row)


def expand_weights(class_rows, labels, alpha):
    """G alpha, the per-sample source weights that target-prior candidate
    alpha implies: the class rows' weights expanded over the 1-based noisy
    labels."""
    per_class = np.asarray(class_rows) @ np.asarray(alpha, dtype=np.float64)
    return per_class[np.asarray(labels) - 1]


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


@dataclass(frozen=True)
class GramSet:
    """The three dense Gram blocks of one source/target pair: k_ss is m x m,
    k_tt n x n, and k_ts n x m (target rows by source columns)."""

    k_ss: np.ndarray
    k_tt: np.ndarray
    k_ts: np.ndarray
    sigma: float

    @property
    def m(self) -> int:
        return self.k_ss.shape[0]

    @property
    def n(self) -> int:
        return self.k_tt.shape[0]


def build_gram(source_feats, target_feats, sigma):
    """Dense Gaussian GramSet, the oracle for the chunked kernel pass.

    Per-pair differences give the self-blocks an exact unit diagonal and
    exact symmetry; all blocks are read-only.
    """
    k_ss = direct_gaussian_gram(source_feats, source_feats, sigma)
    k_tt = direct_gaussian_gram(target_feats, target_feats, sigma)
    k_ts = direct_gaussian_gram(target_feats, source_feats, sigma)
    for k in (k_ss, k_tt, k_ts):
        k.setflags(write=False)
    return GramSet(k_ss, k_tt, k_ts, float(sigma))


def batch_mmd_hidden(h_s, h_t, v, sigma):
    """Weighted squared MMD on (hidden) rows and its gradients to them, from
    dense Grams: the oracle for ``_MmdProblem.row_grads`` at an identity W.

    Each kernel entry contributes its quadratic-form coefficient times
    -k (h_a - h_b) / sigma^2 to the a-side row (and the negative to the
    b-side row).
    """
    bs, bt = h_s.shape[0], h_t.shape[0]
    k_ss = direct_gaussian_gram(h_s, h_s, sigma)
    k_ts = direct_gaussian_gram(h_t, h_s, sigma)
    k_tt = direct_gaussian_gram(h_t, h_t, sigma)
    value = brute_force_weighted_mmd(k_ss, k_tt, k_ts, v)
    m_ss = (np.outer(v, v) / (bs * bs)) * k_ss
    m_ts = (-2.0 / (bs * bt)) * (k_ts * v[None, :])
    m_tt = k_tt / (bt * bt)
    inv = -1.0 / (sigma * sigma)
    dh_s = inv * (2.0 * (m_ss.sum(axis=1)[:, None] * h_s - m_ss @ h_s)
                  + m_ts.sum(axis=0)[:, None] * h_s - m_ts.T @ h_t)
    dh_t = inv * (2.0 * (m_tt.sum(axis=1)[:, None] * h_t - m_tt @ h_t)
                  + m_ts.sum(axis=1)[:, None] * h_t - m_ts @ h_s)
    return value, dh_s, dh_t


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


def dense_grad_w(w, alpha, source, target, class_rows, sigma):
    """W gradient of the weighted MMD from full dense Grams.

    Every kernel entry k(x'_a, x'_b) contributes its quadratic-form
    coefficient times -k (x_a - x_b)(x'_a - x'_b)^T / sigma^2; summed per
    block via weighted scatter matrices. The oracle for the chunked engine.
    """
    w = np.asarray(w, dtype=np.float64)
    xs, xt = source.features, target.features
    m, n = xs.shape[0], xt.shape[0]
    v = expand_weights(class_rows, source.labels, alpha)
    sp, tp = xs @ w, xt @ w

    def pair_scatter(xa, xb, coeff_times_k):
        row = coeff_times_k.sum(axis=1)
        col = coeff_times_k.sum(axis=0)
        cross = xa.T @ (coeff_times_k @ xb)
        return ((xa * row[:, None]).T @ xa - cross - cross.T
                + (xb * col[:, None]).T @ xb)

    m_ss = (np.outer(v, v) / (m * m)) * direct_gaussian_gram(sp, sp, sigma)
    m_ts = (-2.0 / (m * n)) * (direct_gaussian_gram(tp, sp, sigma) * v[None, :])
    m_tt = direct_gaussian_gram(tp, tp, sigma) / (n * n)
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


def pytest_collection_modifyitems(config, items):
    """Mark every acceptance gate ``slow``: ``-m "not slow"`` is the quick
    loop, the plain run still runs every gate."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def failing_rep_data(monkeypatch):
    """Every sweep repetition's data generation raises ValueError, so a
    sweep whose config validates still runs its failed-record path."""
    def fail(*args, **kwargs):
        raise ValueError("injected data-generation failure")
    monkeypatch.setattr(harness, "sample_gmm_spec", fail)
