"""Importance-reweighted softmax classifier for noisily labeled features.

One hidden rectifier layer. The training loss composes the network output
with the flip-rate matrix, so the raw head estimates clean-class
posteriors while the loss is scored against the noisy labels:

    loss_k = -gamma(y_k) * log[(Q^T f(x_k))_{y_k}]

with gamma the per-noisy-class importance weights. Prediction uses the
uncorrected head. Plain mini-batch SGD at a fixed rate keeps runs exactly
reproducible from the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import TransitionMatrix, float_field, int_field
from .noise import GammaWeights
from .rng import child_generator

PROB_CLAMP = 1e-12

INIT_STREAM, SHUFFLE_STREAM, TARGET_STREAM = 0, 1, 2


@dataclass
class MlpModel:
    """Weights of the two-layer net; arrays stay writable for in-place SGD."""

    hidden_w: np.ndarray  # (d, h)
    hidden_b: np.ndarray  # (h,)
    out_w: np.ndarray     # (h, c)
    out_b: np.ndarray     # (c,)

    def __post_init__(self):
        self.hidden_w = np.asarray(self.hidden_w, dtype=np.float64)
        self.hidden_b = np.asarray(self.hidden_b, dtype=np.float64)
        self.out_w = np.asarray(self.out_w, dtype=np.float64)
        self.out_b = np.asarray(self.out_b, dtype=np.float64)
        d, h = self.hidden_w.shape
        if self.hidden_b.shape != (h,):
            raise ValueError("hidden bias shape mismatch")
        if self.out_w.shape[0] != h or self.out_b.shape != (self.out_w.shape[1],):
            raise ValueError("output layer shape mismatch")
        for p in (self.hidden_w, self.hidden_b, self.out_w, self.out_b):
            if not np.all(np.isfinite(p)):
                raise ValueError("model parameters must be finite")

    def to_json(self) -> str:
        return json.dumps({
            "hidden_w": self.hidden_w.tolist(),
            "hidden_b": self.hidden_b.tolist(),
            "out_w": self.out_w.tolist(),
            "out_b": self.out_b.tolist(),
        })

    @staticmethod
    def from_json(text: str) -> "MlpModel":
        obj = json.loads(text)
        return MlpModel(np.asarray(obj["hidden_w"]), np.asarray(obj["hidden_b"]),
                        np.asarray(obj["out_w"]), np.asarray(obj["out_b"]))


@dataclass(frozen=True)
class TrainConfig:
    hidden_units: int = 64
    learning_rate: float = 0.1
    epochs: int = 40
    batch_size: int = 100
    l2_coeff: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_units", "epochs", "batch_size", "seed"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        for name in ("learning_rate", "l2_coeff"):
            object.__setattr__(self, name, float_field(name, getattr(self, name)))
        if min(self.hidden_units, self.epochs, self.batch_size) < 1:
            raise ValueError("counts must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be >= 0")


@dataclass
class LossGrads:
    """Parameter gradients of one loss evaluation."""

    hidden_w: np.ndarray
    hidden_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray


def init_model(dim_in: int, hidden_units: int, n_classes: int, rng) -> MlpModel:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    s1 = 1.0 / np.sqrt(dim_in)
    s2 = 1.0 / np.sqrt(hidden_units)
    return MlpModel(
        rng.uniform(-s1, s1, size=(dim_in, hidden_units)),
        np.zeros(hidden_units),
        rng.uniform(-s2, s2, size=(hidden_units, n_classes)),
        np.zeros(n_classes),
    )


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _forward(model: MlpModel, x: np.ndarray):
    z1 = x @ model.hidden_w + model.hidden_b
    a1 = np.maximum(z1, 0.0)
    f = softmax(a1 @ model.out_w + model.out_b)
    return z1, a1, f


def _ce_grads_from_forward(model: MlpModel, x, z1, a1, f, labels, q_mat,
                           gamma_vec):
    """Mean corrected loss and its parameter gradients for one batch.

    Rows where the corrected probability is clamped contribute a constant
    loss and a zero gradient (the clamp is a flat region).
    """
    bsz = x.shape[0]
    yi = labels - 1
    p = f @ q_mat                      # row k = Q^T f(x_k)
    p_y = p[np.arange(bsz), yi]
    p_safe = np.maximum(p_y, PROB_CLAMP)
    gam = gamma_vec[yi]
    loss = float(np.mean(-gam * np.log(p_safe)))

    live = (p_y >= PROB_CLAMP).astype(np.float64)
    coef = -(gam * live) / (p_safe * bsz)          # dL/dp_y, mean folded in
    df = coef[:, None] * q_mat.T[yi]               # dL/df_k = coef * Q[:, y_k]
    dz2 = f * (df - (f * df).sum(axis=1, keepdims=True))
    d_out_w = a1.T @ dz2
    d_out_b = dz2.sum(axis=0)
    da1 = dz2 @ model.out_w.T
    dz1 = da1 * (z1 > 0)
    d_hidden_w = x.T @ dz1
    d_hidden_b = dz1.sum(axis=0)
    return loss, LossGrads(d_hidden_w, d_hidden_b, d_out_w, d_out_b)


def batch_loss_grads(model: MlpModel, x: np.ndarray, labels: np.ndarray,
                     q: TransitionMatrix, gamma: GammaWeights):
    """(mean loss, LossGrads) of a batch under the corrected, reweighted
    loss; ``train`` steps on it."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    z1, a1, f = _forward(model, x)
    return _ce_grads_from_forward(model, x, z1, a1, f, labels, q.q, gamma.gamma)


def sgd_step(model: MlpModel, grads: LossGrads, lr: float, l2: float) -> None:
    """In-place descent step; l2 decay applies to weight matrices only."""
    model.hidden_w -= lr * (grads.hidden_w + l2 * model.hidden_w)
    model.hidden_b -= lr * grads.hidden_b
    model.out_w -= lr * (grads.out_w + l2 * model.out_w)
    model.out_b -= lr * grads.out_b


def train(features: np.ndarray, noisy_labels: np.ndarray, q: TransitionMatrix,
          gamma: GammaWeights, cfg: TrainConfig,
          loss_history: list | None = None) -> MlpModel:
    """Mini-batch SGD on the corrected, reweighted loss.

    Deterministic given cfg.seed: one child stream initializes weights,
    another drives the per-epoch shuffles. A non-finite batch loss aborts
    with a diagnostic rather than training through it.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(noisy_labels, dtype=np.int64)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ValueError("features must be (m, d) with one label per row")
    c = q.n_classes
    if labels.min() < 1 or labels.max() > c:
        raise ValueError(f"labels must lie in 1..{c}")
    if gamma.n_classes != c:
        raise ValueError("gamma length mismatch")

    model = init_model(x.shape[1], cfg.hidden_units, c,
                       child_generator(cfg.seed, INIT_STREAM))
    shuffle_rng = child_generator(cfg.seed, SHUFFLE_STREAM)
    m = x.shape[0]
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(m)
        epoch_losses = []
        for lo in range(0, m, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss, grads = batch_loss_grads(model, x[idx], labels[idx], q, gamma)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {lo // cfg.batch_size}")
            sgd_step(model, grads, cfg.learning_rate, cfg.l2_coeff)
            epoch_losses.append(loss)
        if loss_history is not None:
            loss_history.append(float(np.mean(epoch_losses)))
    return model


def predict_proba(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Uncorrected head outputs: estimated clean-class posteriors."""
    _, _, f = _forward(model, np.asarray(features, dtype=np.float64))
    return f


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """1-based argmax of the uncorrected head; ties go to the smaller index."""
    return np.argmax(predict_proba(model, features), axis=1) + 1
