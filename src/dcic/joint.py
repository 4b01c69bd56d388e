"""End-to-end training: classification risk plus an invariance penalty on
the hidden layer plus weight decay,

    loss = R_hat + pi1 * D_hat(hidden features, alpha) + l2_coeff * Omega,

where D_hat is the weighted squared MMD between reweighted source and
target hidden responses, and alpha (the target-prior candidate driving the
weights) is refreshed by the simplex QP on full-data hidden features after
every epoch. Both come from the linear model's kernel engine
(``linear._MmdProblem``) run on hidden rows: the refresh takes its
alpha-quadratic, the penalty its value and, with an identity W, its row
gradients, which backpropagate into the hidden layer. With pi1 = 0 the
loop degenerates to plain corrected-loss training and matches
classifier.train bit for bit on the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import (INIT_STREAM, SHUFFLE_STREAM, TARGET_STREAM, MlpModel,
                         TrainConfig, _ce_grads_from_forward, _forward,
                         init_model, sgd_step)
from .data import (ClassPrior, Dataset, TransitionMatrix, empirical_prior,
                   float_field)
from .kernels import median_bandwidth
from .noise import (GMatrix, build_g_matrix, clean_prior_from_noisy,
                    gamma_weights)
from .linear import _MmdProblem, solve_alpha_qp
from .rng import child_generator


@dataclass(frozen=True)
class JointConfig(TrainConfig):
    """TrainConfig plus the invariance weight.

    pi1 weights the invariance penalty on the network's one hidden layer;
    l2_coeff weights the decay term Omega.
    """

    pi1: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "pi1", float_field("pi1", self.pi1))
        if self.pi1 < 0:
            raise ValueError("pi1 must be >= 0")


def _weight_decay_value(model: MlpModel) -> float:
    """Omega: half the squared Frobenius mass of the weight matrices."""
    return 0.5 * (float((model.hidden_w ** 2).sum())
                  + float((model.out_w ** 2).sum()))


def _bandwidth(h_s: np.ndarray, h_t: np.ndarray,
               last_sigma: float | None) -> float:
    """Median pairwise distance of the stacked hidden rows. For a degenerate
    set (identical hidden rows) it is the last bandwidth, or, when there is
    none yet, ``median_bandwidth``'s error."""
    try:
        return median_bandwidth(np.vstack([h_s, h_t]))
    except ValueError:
        if last_sigma is None:
            raise
        return last_sigma


def _joint_batch(model: MlpModel, xs, ys, xt, q_mat, gamma_vec, class_rows,
                 alpha, pi1: float, sigma: float | None,
                 last_sigma: float | None = None):
    """Corrected risk plus pi1 times the invariance penalty on one batch
    pair, without the decay term (the caller owns that, so the training
    step can apply decay exactly the way classifier.train does).

    Returns (loss, LossGrads, sigma_used). sigma None means: the batch's
    ``_bandwidth`` with fallback ``last_sigma``, treated as a constant (no
    gradient through the bandwidth).
    """
    z1s, a1s, f = _forward(model, xs)
    loss, grads = _ce_grads_from_forward(model, xs, z1s, a1s, f, ys, q_mat,
                                         gamma_vec)
    sigma_used = sigma
    if pi1 > 0:
        z1t, a1t, _ = _forward(model, xt)
        if sigma_used is None:
            sigma_used = _bandwidth(a1s, a1t, last_sigma)
        prob = _MmdProblem(a1s, a1t, GMatrix(class_rows, ys), sigma_used)
        eye = np.eye(a1s.shape[1])  # a1 @ I == a1 exactly
        loss += pi1 * prob.eval(eye, alpha)
        dh_s, dh_t = prob.row_grads(eye, alpha)
        dz1s = (pi1 * dh_s) * (z1s > 0)
        dz1t = (pi1 * dh_t) * (z1t > 0)
        grads.hidden_w = grads.hidden_w + xs.T @ dz1s + xt.T @ dz1t
        grads.hidden_b = grads.hidden_b + dz1s.sum(axis=0) + dz1t.sum(axis=0)
    return loss, grads, sigma_used


def fit_joint(cfg: JointConfig, noisy_source: Dataset, target: Dataset,
              q: TransitionMatrix):
    """Train the network on the joint objective. Returns (model, alpha,
    per-batch loss trace).

    alpha starts uniform and is refreshed by the simplex QP on full-data
    hidden features after every epoch; gamma and the source weights follow
    each refresh. With pi1 = 0 the invariance term and the
    alpha refreshes are disabled and the loop reduces to classifier.train.
    """
    if noisy_source.labels is None:
        raise ValueError("source dataset must carry labels")
    xs_all = noisy_source.features
    xt_all = target.features
    labels_all = noisy_source.labels
    m, d = xs_all.shape
    n = xt_all.shape[0]
    c = q.n_classes

    noisy_prior = empirical_prior(labels_all, c)
    clean_prior = clean_prior_from_noisy(noisy_prior, q)
    g = build_g_matrix(q, clean_prior, labels_all)
    alpha = np.full(c, 1.0 / c)
    gamma = gamma_weights(alpha, q, noisy_prior)

    model = init_model(d, cfg.hidden_units, c, child_generator(cfg.seed, INIT_STREAM))
    shuffle_rng = child_generator(cfg.seed, SHUFFLE_STREAM)
    target_rng = child_generator(cfg.seed, TARGET_STREAM)

    trace = []
    last_sigma = None
    t_order, t_ptr = target_rng.permutation(n), 0
    t_global = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(m)
        for lo in range(0, m, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            if t_ptr + cfg.batch_size > n:
                t_order, t_ptr = target_rng.permutation(n), 0
            tidx = t_order[t_ptr:t_ptr + cfg.batch_size]
            t_ptr += cfg.batch_size

            loss, grads, last_sigma = _joint_batch(
                model, xs_all[idx], labels_all[idx], xt_all[tidx], q.q,
                gamma.gamma, g.class_rows, alpha, cfg.pi1, None, last_sigma)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite joint loss {loss!r} at epoch {epoch}, step {t_global}")
            trace.append(float(loss) + cfg.l2_coeff * _weight_decay_value(model))

            # decay lives inside the step (not the grads), so the pi1=0 path
            # is arithmetic-identical to classifier.train
            sgd_step(model, grads, cfg.learning_rate, cfg.l2_coeff)
            t_global += 1

        if cfg.pi1 > 0:
            h_s = _forward(model, xs_all)[1]
            h_t = _forward(model, xt_all)[1]
            a_mat, b_vec, _ = _MmdProblem(
                h_s, h_t, g, _bandwidth(h_s, h_t, last_sigma)).terms(None)
            alpha = solve_alpha_qp(a_mat, b_vec, start=alpha).p
            gamma = gamma_weights(alpha, q, noisy_prior)
    return model, ClassPrior(alpha / alpha.sum()), np.asarray(trace)

