"""End-to-end training: classification risk plus an invariance penalty on
the hidden layer plus weight decay,

    loss = R_hat + pi1 * D_hat(hidden features, alpha) + pi2 * Omega,

where D_hat is the weighted squared MMD between reweighted source and
target hidden responses, and alpha (the target-prior candidate driving the
weights) is refreshed by the simplex QP on full-data hidden features every
``alpha_update_every`` batches. Both come from the linear model's kernel
engine (``linear._MmdProblem``) run on hidden rows: the refresh takes its
alpha-quadratic, the penalty its value and, with an identity W, its row
gradients, which backpropagate into the hidden layer. With pi1 = 0 the loop degenerates to plain
corrected-loss training and matches classifier.train bit for bit on the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import (INIT_STREAM, SHUFFLE_STREAM, TARGET_STREAM, MlpModel,
                         TrainConfig, _ce_grads_from_forward, _forward,
                         init_model, sgd_step)
from .data import ClassPrior, Dataset, TransitionMatrix, empirical_prior
from .kernels import median_bandwidth
from .noise import GMatrix, clean_prior_from_noisy, floored_gamma_weights
from .linear import _MmdProblem, build_g_matrix, solve_alpha_qp
from .rng import child_generator


@dataclass(frozen=True)
class JointConfig(TrainConfig):
    """TrainConfig plus the joint-objective knobs.

    pi1 weights the invariance penalty on the network's one hidden layer.
    l2_coeff doubles as the regularization tradeoff (exposed as ``pi2``).
    alpha_update_every counts batches; None means once per epoch. lr_decay
    switches the fixed rate to r0 * (1 + 1e-4 t)^(-0.75) in the global
    step t.
    """

    pi1: float = 1.0
    alpha_update_every: int | None = None
    lr_decay: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.pi1 < 0:
            raise ValueError("pi1 must be >= 0")
        if self.alpha_update_every is not None and self.alpha_update_every < 1:
            raise ValueError("alpha_update_every must be >= 1")

    @property
    def pi2(self) -> float:
        return self.l2_coeff


def _weight_decay_value(model: MlpModel) -> float:
    """Omega: half the squared Frobenius mass of the weight matrices."""
    return 0.5 * (float((model.hidden_w ** 2).sum())
                  + float((model.out_w ** 2).sum()))


def _joint_batch(model: MlpModel, xs, ys, xt, q_mat, gamma_vec, class_rows,
                 alpha, pi1: float, sigma: float | None):
    """Corrected risk plus pi1 times the invariance penalty on one batch
    pair, without the decay term (the caller owns that, so the training
    step can apply decay exactly the way classifier.train does).

    Returns (loss, LossGrads, sigma_used). sigma None means: median
    pairwise distance of the stacked hidden rows, treated as a constant
    (no gradient through the bandwidth).
    """
    z1s, a1s, f = _forward(model, xs)
    loss, grads = _ce_grads_from_forward(model, xs, z1s, a1s, f, ys, q_mat,
                                         gamma_vec)
    sigma_used = sigma
    if pi1 > 0:
        z1t, a1t, _ = _forward(model, xt)
        if sigma_used is None:
            sigma_used = median_bandwidth(np.vstack([a1s, a1t]))
        prob = _MmdProblem(a1s, a1t, GMatrix(class_rows, ys), sigma_used)
        eye = np.eye(a1s.shape[1])  # a1 @ I == a1 exactly
        loss += pi1 * prob.eval(eye, alpha)
        dh_s, dh_t = prob.row_grads(eye, alpha)
        dz1s = (pi1 * dh_s) * (z1s > 0)
        dz1t = (pi1 * dh_t) * (z1t > 0)
        grads.hidden_w = grads.hidden_w + xs.T @ dz1s + xt.T @ dz1t
        grads.hidden_b = grads.hidden_b + dz1s.sum(axis=0) + dz1t.sum(axis=0)
    return loss, grads, sigma_used


def joint_loss(model: MlpModel, source_batch: Dataset, target_batch: Dataset,
               q: TransitionMatrix, alpha, cfg: JointConfig,
               sigma: float | None = None, noisy_prior=None):
    """Joint objective on one batch pair: corrected reweighted risk, plus
    pi1 times the hidden-layer invariance penalty, plus pi2 times the
    weight-decay term. Returns (loss, LossGrads).

    gamma and the per-class source weights are derived from alpha, q, and
    ``noisy_prior`` (default: the batch's own label frequencies). Pass
    ``sigma`` to pin the bandwidth, e.g. for finite-difference probes;
    by default it is recomputed from the batch's hidden features as a
    constant.
    """
    if source_batch.labels is None:
        raise ValueError("source batch must carry labels")
    alpha_vec = alpha.p if isinstance(alpha, ClassPrior) else np.asarray(alpha, dtype=np.float64)
    c = q.n_classes
    if noisy_prior is None:
        noisy_prior = empirical_prior(source_batch.labels, c)
    gamma = floored_gamma_weights(alpha_vec, q, noisy_prior)
    clean_prior = clean_prior_from_noisy(noisy_prior, q)
    g = build_g_matrix(q, clean_prior, source_batch.labels)
    loss, grads, _ = _joint_batch(
        model, source_batch.features, source_batch.labels,
        target_batch.features, q.q, gamma.gamma, g.class_rows, alpha_vec,
        cfg.pi1, sigma)
    if cfg.pi2 > 0:
        loss += cfg.pi2 * _weight_decay_value(model)
        grads.hidden_w = grads.hidden_w + cfg.pi2 * model.hidden_w
        grads.out_w = grads.out_w + cfg.pi2 * model.out_w
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite joint loss {loss!r}")
    return loss, grads


def fit_joint(cfg: JointConfig, noisy_source: Dataset, target: Dataset,
              q: TransitionMatrix):
    """Train the network on the joint objective. Returns (model, alpha,
    per-batch loss trace).

    alpha starts uniform and is refreshed by the simplex QP on full-data
    hidden features every alpha_update_every batches; gamma and the source
    weights follow each refresh. With pi1 = 0 the invariance term and the
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
    gamma = floored_gamma_weights(alpha, q, noisy_prior)

    model = init_model(d, cfg.hidden_units, c, child_generator(cfg.seed, INIT_STREAM))
    shuffle_rng = child_generator(cfg.seed, SHUFFLE_STREAM)
    target_rng = child_generator(cfg.seed, TARGET_STREAM)
    batches_per_epoch = (m + cfg.batch_size - 1) // cfg.batch_size
    update_every = cfg.alpha_update_every or batches_per_epoch

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

            try:
                loss, grads, last_sigma = _joint_batch(
                    model, xs_all[idx], labels_all[idx], xt_all[tidx],
                    q.q, gamma.gamma, g.class_rows, alpha, cfg.pi1, None)
            except ValueError:
                # degenerate batch (identical hidden rows): reuse the last bandwidth
                if last_sigma is None:
                    raise
                loss, grads, _ = _joint_batch(
                    model, xs_all[idx], labels_all[idx], xt_all[tidx],
                    q.q, gamma.gamma, g.class_rows, alpha, cfg.pi1, last_sigma)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite joint loss {loss!r} at epoch {epoch}, step {t_global}")
            trace.append(float(loss) + cfg.pi2 * _weight_decay_value(model))

            lr = cfg.learning_rate
            if cfg.lr_decay:
                lr = cfg.learning_rate * (1.0 + 1e-4 * t_global) ** -0.75
            # decay lives inside the step (not the grads), so the pi1=0 path
            # is arithmetic-identical to classifier.train
            sgd_step(model, grads, lr, cfg.l2_coeff)
            t_global += 1

            if cfg.pi1 > 0 and t_global % update_every == 0:
                h_s = _forward(model, xs_all)[1]
                h_t = _forward(model, xt_all)[1]
                try:
                    sig_full = median_bandwidth(np.vstack([h_s, h_t]))
                except ValueError:
                    sig_full = last_sigma
                if sig_full is not None:
                    # not bound to a name: the problem and its kernel-pass
                    # buffer are freed before the next epoch's batches
                    a_mat, b_vec, _ = _MmdProblem(h_s, h_t, g,
                                                  sig_full).terms(None)
                    alpha = solve_alpha_qp(a_mat, b_vec, start=alpha).p
                    gamma = floored_gamma_weights(alpha, q, noisy_prior)
    return model, ClassPrior(alpha / alpha.sum()), np.asarray(trace)

