"""Flip-rate algebra: recovering the clean prior from the noisy one, the
c class rows of the per-sample weight matrix G, the importance weights
gamma of the noisy classes under a target prior (one function,
``gamma_weights``, for every caller), and an anchor-point estimator for the
flip-rate matrix itself, which refuses non-finite posteriors and warns when
its estimate is not diagonally dominant.

Notation. Q is the row-stochastic flip-rate matrix; alpha is a candidate
target class prior. G alpha gives the noisy class ratios beta_rho that
alpha implies; the clean ratios are beta = Q beta_rho.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ClassPrior, TransitionMatrix, frozen_field

NEGATIVE_PRIOR_TOL = 1e-6
ALPHA_FLOOR = 1e-9  # keeps gamma strictly positive at simplex vertices
DEFAULT_ANCHOR_PERCENTILE = 97.0


@dataclass(frozen=True)
class GammaWeights:
    """Importance weight per noisy class: target over source noisy-label
    frequency. Strictly positive and finite."""

    gamma: np.ndarray

    def __post_init__(self):
        g = frozen_field(self, "gamma", self.gamma)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gamma must be a non-empty vector")
        if np.any(g <= 0):
            raise ValueError("gamma entries must be positive and finite")

    @property
    def n_classes(self) -> int:
        return self.gamma.size


def clean_prior_from_noisy(noisy_prior: ClassPrior, q: TransitionMatrix) -> ClassPrior:
    """Invert the row identity (clean prior) Q = (noisy prior).

    Sampling or estimation error can push a solution entry slightly below
    zero; entries in [-1e-6, 0) are clamped to zero and the vector is
    renormalized. Anything more negative means the inputs are inconsistent
    and raises.
    """
    if noisy_prior.n_classes != q.n_classes:
        raise ValueError("prior and transition matrix class counts differ")
    p = np.linalg.solve(q.q.T, noisy_prior.p)
    if p.min() < -NEGATIVE_PRIOR_TOL:
        raise ValueError(
            f"noisy prior is inconsistent with the flip rates: solved clean prior "
            f"{p} has an entry below -{NEGATIVE_PRIOR_TOL}")
    p = np.maximum(p, 0.0)
    return ClassPrior(p / p.sum())


def build_g_matrix(q: TransitionMatrix, clean_prior: ClassPrior) -> np.ndarray:
    """G's c x c class rows: row i is g_i, with
    g_i[j] = (Q^{-1})_{ij} / clean_prior[j].

    G itself has row k = g_{y_k} for noisy label y_k, that is
    class_rows[labels - 1]; the kernel engine (``linear._MmdProblem``)
    takes the class rows and the source's labels apart and never forms it.
    """
    if clean_prior.n_classes != q.n_classes:
        raise ValueError("prior and transition matrix class counts differ")
    if np.any(clean_prior.p <= 0):
        raise ValueError("clean prior must be strictly positive")
    return np.linalg.inv(q.q) / clean_prior.p[None, :]


def gamma_weights(alpha: np.ndarray, q: TransitionMatrix,
                  noisy_prior: ClassPrior) -> GammaWeights:
    """gamma_i = (alpha^T Q_{:i}) / noisy_prior_i, the ratio of target to
    source noisy-label frequency under target prior vector alpha.

    alpha is raised to ALPHA_FLOOR and renormalized first: a QP solution
    can sit exactly on a simplex vertex, where gamma would have a zero
    entry; the floor nudges it inside. Satisfies
    sum_i gamma_i * noisy_prior_i = 1 by construction.
    """
    a = np.maximum(ClassPrior(alpha).p, ALPHA_FLOOR)
    a /= a.sum()
    c = q.n_classes
    if a.size != c or noisy_prior.n_classes != c:
        raise ValueError("class count mismatch")
    if np.any(noisy_prior.p <= 0):
        raise ValueError("noisy prior must be strictly positive")
    return GammaWeights((q.q.T @ a) / noisy_prior.p)


def estimate_transition_anchor(posteriors: np.ndarray,
                               percentile: float = DEFAULT_ANCHOR_PERCENTILE
                               ) -> TransitionMatrix:
    """Anchor-point flip-rate estimate from noisy-posterior predictions.

    For each class i the anchor is the sample sitting at the given upper
    percentile of the i-th posterior column (100 = the arg-max sample;
    the 97 default resists estimation outliers). Row i of the estimate is
    that sample's posterior vector, renormalized.

    A posterior holding a NaN or an inf raises, before the simplex check,
    which a NaN would pass: every comparison with it is False. A
    degenerate estimate (near-identical rows) fails transition-matrix
    validation and raises. A diagonal entry <= 0.5 warns (UserWarning):
    the algebra stays valid, but an estimate that is not diagonally
    dominant usually signals an estimation problem.
    """
    p = np.asarray(posteriors, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ValueError("posteriors must be a non-empty (m, c) matrix")
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    if not np.isfinite(p).all():
        raise ValueError("posteriors must be finite")
    if np.abs(p.sum(axis=1) - 1.0).max() > 1e-6 or p.min() < -1e-9:
        raise ValueError("posterior rows must lie on the simplex")
    m, c = p.shape
    rows = np.empty((c, c))
    for i in range(c):
        order = np.argsort(p[:, i], kind="stable")
        rank = min(m - 1, max(0, int(np.ceil(percentile / 100.0 * m)) - 1))
        rows[i] = p[order[rank]]
    rows = np.maximum(rows, 0.0)
    rows /= rows.sum(axis=1, keepdims=True)
    q = TransitionMatrix(rows)
    if np.any(np.diag(q.q) <= 0.5):
        warnings.warn("estimated transition matrix has a diagonal entry <= 0.5 "
                      "(not diagonally dominant)", UserWarning, stacklevel=2)
    return q
