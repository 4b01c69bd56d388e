import copy
import json

import numpy as np
import pytest

from conftest import central_difference, relative_grad_error
from dcic.classifier import (MlpModel, TrainConfig, batch_loss_grads,
                             init_model, predict, predict_proba, sgd_step,
                             softmax, train)
from dcic.data import ClassPrior, TransitionMatrix, empirical_prior, symmetric_noise
from dcic.noise import GammaWeights, gamma_weights
from dcic.rng import as_generator


def _small_model(rng, d=3, h=5, c=2):
    return init_model(d, h, c, rng)


def _one_row_loss(model, x, label, q, gamma):
    """Corrected loss and gradients of a single sample: a 1-row batch."""
    return batch_loss_grads(model, np.asarray(x, dtype=np.float64).reshape(1, -1),
                            np.array([label]), q, gamma)


def _separable(seed, m=600, flip=0.0, sep=2.0):
    """1-D two-class data at means -sep/+sep, optionally label-flipped."""
    rng = as_generator(seed)
    labels = rng.integers(1, 3, size=m)
    x = rng.standard_normal((m, 1)) + np.where(labels == 1, -sep, sep)[:, None]
    if flip > 0:
        mask = rng.uniform(size=m) < flip
        noisy = np.where(mask, 3 - labels, labels)
    else:
        noisy = labels
    return x, labels, noisy


class TestInitAndForward:
    def test_init_bounds_and_zero_biases(self, rng):
        model = init_model(4, 16, 3, rng)
        assert np.abs(model.hidden_w).max() <= 1.0 / 2.0
        assert np.abs(model.out_w).max() <= 0.25
        assert np.array_equal(model.hidden_b, np.zeros(16))
        assert np.array_equal(model.out_b, np.zeros(3))

    def test_softmax_rows_on_simplex(self, rng):
        z = rng.standard_normal((20, 4)) * 30
        p = softmax(z)
        assert p.min() >= 0
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9

    def test_predict_proba_simplex(self, rng):
        model = _small_model(rng)
        p = predict_proba(model, rng.standard_normal((10, 3)))
        assert p.shape == (10, 2)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9

    def test_model_shape_validation(self):
        with pytest.raises(ValueError):
            MlpModel(np.zeros((3, 5)), np.zeros(4), np.zeros((5, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            MlpModel(np.zeros((3, 5)), np.zeros(5), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            MlpModel(np.full((3, 5), np.nan), np.zeros(5), np.zeros((5, 2)),
                     np.zeros(2))

    def test_json_roundtrip(self, rng):
        # the constructor reads to_json's keys, bit for bit
        model = _small_model(rng)
        back = MlpModel(**json.loads(model.to_json()))
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert np.array_equal(getattr(back, name), getattr(model, name))


class TestForwardLoss:
    def test_identity_q_unit_gamma_is_plain_ce(self, rng):
        # no correction, no reweighting: the loss is -log f_y
        model = _small_model(rng)
        x = rng.standard_normal(3)
        q = TransitionMatrix(np.eye(2))
        gam = GammaWeights(np.ones(2))
        loss, _ = _one_row_loss(model, x, 2, q, gam)
        f = predict_proba(model, x.reshape(1, -1))[0]
        assert loss == pytest.approx(-np.log(f[1]), rel=1e-12)

    def test_hand_computed_corrected_loss(self, rng):
        model = _small_model(rng)
        x = rng.standard_normal(3)
        q = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        gam = GammaWeights(np.array([1.5, 0.5]))
        f = predict_proba(model, x.reshape(1, -1))[0]
        want = -1.5 * np.log(0.8 * f[0] + 0.3 * f[1])
        loss, _ = _one_row_loss(model, x, 1, q, gam)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        model = _small_model(rng, d=3, h=4, c=3)
        q = TransitionMatrix(np.array([[0.7, 0.2, 0.1],
                                       [0.1, 0.8, 0.1],
                                       [0.15, 0.15, 0.7]]))
        gam = GammaWeights(np.array([0.9, 1.3, 0.8]))
        x = rng.standard_normal((6, 3))
        labels = np.array([1, 2, 3, 1, 2, 3])
        _, grads = batch_loss_grads(model, x, labels, q, gam)
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            def f_of(p, name=name):
                probe = copy.deepcopy(model)
                setattr(probe, name, p)
                val, _ = batch_loss_grads(probe, x, labels, q, gam)
                return val
            numeric = central_difference(f_of, getattr(model, name))
            assert relative_grad_error(getattr(grads, name), numeric) <= 1e-5

    def test_clamp_zeroes_gradient(self):
        # saturated one-hot head plus near-identity flip rates puts the
        # corrected probability of the wrong label below the floor; the
        # clamped row must contribute zero gradient
        model = MlpModel(np.zeros((2, 2)), np.zeros(2),
                         np.array([[0.0, 0.0], [0.0, 0.0]]),
                         np.array([500.0, -500.0]))
        eps = 1e-13
        q = TransitionMatrix(np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))
        gam = GammaWeights(np.ones(2))
        loss, grads = _one_row_loss(model, np.zeros(2), 2, q, gam)
        assert np.isfinite(loss)
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert np.abs(getattr(grads, name)).max() == 0.0

    def test_zero_loss_when_correction_explains_label(self, rng):
        # head certain of class 1, flip rates send class 1 to label 2 with
        # probability one: the corrected likelihood of label 2 is 1
        model = MlpModel(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)),
                         np.array([500.0, -500.0]))
        q = TransitionMatrix(np.array([[0.0, 1.0], [0.9, 0.1]]))
        gam = GammaWeights(np.ones(2))
        loss, grads = _one_row_loss(model, rng.standard_normal(2), 2, q, gam)
        assert loss <= 1e-10

    def test_gamma_scales_loss_linearly(self, rng):
        model = _small_model(rng)
        x = rng.standard_normal(3)
        q = symmetric_noise(2, 0.2)
        l1, _ = _one_row_loss(model, x, 1, q, GammaWeights(np.array([1.0, 1.0])))
        l2, _ = _one_row_loss(model, x, 1, q, GammaWeights(np.array([2.0, 1.0])))
        assert l2 == pytest.approx(2.0 * l1, rel=1e-12)


class TestSgdAndTrain:
    def test_step_moves_against_gradient(self, rng):
        model = _small_model(rng)
        x = rng.standard_normal((8, 3))
        labels = rng.integers(1, 3, size=8)
        q = symmetric_noise(2, 0.2)
        gam = GammaWeights(np.ones(2))
        loss0, grads = batch_loss_grads(model, x, labels, q, gam)
        sgd_step(model, grads, 1e-3, 0.0)
        loss1, _ = batch_loss_grads(model, x, labels, q, gam)
        assert loss1 < loss0

    def test_training_separates_clean_data(self):
        x, labels, _ = _separable(seed=0, sep=3.0)
        q = TransitionMatrix(np.eye(2))
        model = train(x, labels, q, GammaWeights(np.ones(2)),
                      TrainConfig(hidden_units=8, epochs=15, seed=1))
        assert np.mean(predict(model, x) == labels) >= 0.98

    def test_noise_corrected_training_recovers_clean_labels(self):
        x, labels, noisy = _separable(seed=2, flip=0.3)
        q = symmetric_noise(2, 0.3)
        model = train(x, noisy, q, GammaWeights(np.ones(2)),
                      TrainConfig(hidden_units=8, epochs=20, seed=3))
        assert np.mean(predict(model, x) == labels) >= 0.95

    def test_deterministic(self):
        x, _, noisy = _separable(seed=4, flip=0.2)
        q = symmetric_noise(2, 0.2)
        cfg = TrainConfig(hidden_units=8, epochs=3, seed=5)
        a = train(x, noisy, q, GammaWeights(np.ones(2)), cfg)
        b = train(x, noisy, q, GammaWeights(np.ones(2)), cfg)
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_gamma_doubling_matches_halved_rate(self):
        # without l2 decay the update is lr * gamma-linear gradients, so
        # doubling gamma and halving the rate gives the same trajectory
        x, _, noisy = _separable(seed=6, flip=0.2, m=200)
        q = symmetric_noise(2, 0.2)
        a = train(x, noisy, q, GammaWeights(np.ones(2)),
                  TrainConfig(hidden_units=6, epochs=4, learning_rate=0.1,
                              l2_coeff=0.0, seed=7))
        b = train(x, noisy, q, GammaWeights(np.full(2, 2.0)),
                  TrainConfig(hidden_units=6, epochs=4, learning_rate=0.05,
                              l2_coeff=0.0, seed=7))
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert np.allclose(getattr(a, name), getattr(b, name), atol=1e-12)

    def test_divergence_raises(self):
        # an absurd rate with l2 decay multiplies the weights each step
        # until the forward pass overflows; the guard must abort
        x, _, noisy = _separable(seed=8, m=100)
        q = symmetric_noise(2, 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError):
                train(x, noisy, q, GammaWeights(np.ones(2)),
                      TrainConfig(hidden_units=8, epochs=100, batch_size=50,
                                  learning_rate=1e6, seed=9))

    @staticmethod
    def _full_data_losses(x, labels, q, gamma, epoch_counts, **cfg):
        """Corrected loss on all of (x, labels) of the model ``train``
        returns after each epoch count; one seed, so each model continues
        the one before it."""
        return [batch_loss_grads(train(x, labels, q, gamma,
                                       TrainConfig(epochs=k, **cfg)),
                                 x, labels, q, gamma)[0]
                for k in epoch_counts]

    def test_more_epochs_lower_full_data_loss(self):
        x, labels, _ = _separable(seed=10)
        first, last = self._full_data_losses(
            x, labels, TransitionMatrix(np.eye(2)), GammaWeights(np.ones(2)),
            (1, 10), hidden_units=8, seed=11)
        assert last < first

    def test_full_batch_loss_non_increasing(self):
        # batch size >= m makes each epoch one exact gradient step; at a
        # small rate the loss sequence is monotone
        x, labels, _ = _separable(seed=12, m=80)
        losses = self._full_data_losses(
            x, labels, TransitionMatrix(np.eye(2)), GammaWeights(np.ones(2)),
            range(1, 16), hidden_units=6, batch_size=80, learning_rate=0.01,
            l2_coeff=0.0, seed=13)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_input_validation(self):
        q = symmetric_noise(2, 0.2)
        gam = GammaWeights(np.ones(2))
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            train(np.zeros((4, 2)), np.array([1, 2, 3, 1]), q, gam, cfg)
        with pytest.raises(ValueError):
            train(np.zeros((4, 2)), np.array([1, 2]), q, gam, cfg)
        with pytest.raises(ValueError):
            train(np.zeros((2, 2)), np.array([1, 2]), q,
                  GammaWeights(np.ones(3)), cfg)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("field", ["hidden_units", "epochs", "batch_size",
                                       "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_non_integer_counts_rejected(self, field, value):
        # a bool used to run (epochs=True trained one epoch)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})


class TestPredict:
    def test_argmax_and_tie_break(self):
        model = MlpModel(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 2)),
                         np.array([0.3, -0.3]))
        assert predict(model, np.zeros((1, 2)))[0] == 1
        tie = MlpModel(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 2)),
                       np.zeros(2))
        assert predict(tie, np.zeros((1, 2)))[0] == 1

    def test_bayes_accuracy_on_separable(self):
        x, labels, _ = _separable(seed=14, sep=3.0)
        q = TransitionMatrix(np.eye(2))
        model = train(x, labels, q, GammaWeights(np.ones(2)),
                      TrainConfig(hidden_units=8, epochs=15, seed=15))
        x_new, labels_new, _ = _separable(seed=16, sep=3.0)
        assert np.mean(predict(model, x_new) == labels_new) >= 0.97

    def test_corrected_head_calibrated_against_noisy_labels(self):
        # Q^T f should track the noisy-label frequencies: 10-bin expected
        # calibration error below 0.05 on held-out noisy data
        x, _, noisy = _separable(seed=17, flip=0.3, m=10_000)
        q = symmetric_noise(2, 0.3)
        model = train(x[:5000], noisy[:5000], q, GammaWeights(np.ones(2)),
                      TrainConfig(hidden_units=8, epochs=20, seed=18))
        p_noisy = predict_proba(model, x[5000:]) @ q.q
        conf = p_noisy[:, 0]
        hit = (noisy[5000:] == 1).astype(float)
        edges = np.linspace(0.0, 1.0, 11)
        ece = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (conf >= lo) & (conf < hi if hi < 1.0 else conf <= hi)
            if mask.sum() == 0:
                continue
            ece += mask.mean() * abs(conf[mask].mean() - hit[mask].mean())
        assert ece <= 0.05


class TestReweightedRisk:
    """The reweighted risk is the corrected batch loss at identity flip
    rates: mean gamma(y) * -log f_y(x) against the raw head."""

    def test_unit_gamma_is_mean_ce(self, rng):
        model = _small_model(rng)
        x = rng.standard_normal((12, 3))
        labels = rng.integers(1, 3, size=12)
        risk, _ = batch_loss_grads(model, x, labels, TransitionMatrix(np.eye(2)),
                                   GammaWeights(np.ones(2)))
        f = predict_proba(model, x)
        want = float(np.mean(-np.log(f[np.arange(12), labels - 1])))
        assert risk == pytest.approx(want, rel=1e-12)

    def test_matches_corrected_loss_at_identity_q(self, rng):
        model = _small_model(rng)
        x = rng.standard_normal((10, 3))
        labels = rng.integers(1, 3, size=10)
        gam = GammaWeights(np.array([0.8, 1.2]))
        loss, _ = batch_loss_grads(model, x, labels,
                                   TransitionMatrix(np.eye(2)), gam)
        f = predict_proba(model, x)
        want = float(np.mean(-gam.gamma[labels - 1]
                             * np.log(f[np.arange(10), labels - 1])))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_no_shift_gamma_is_unweighted(self, rng):
        # gamma built from alpha equal to the source clean prior is the
        # all-ones vector, so the risk reduces to plain mean CE
        model = _small_model(rng)
        x = rng.standard_normal((20, 3))
        labels = rng.integers(1, 3, size=20)
        labels[:2] = [1, 2]
        noisy_prior = empirical_prior(labels, 2)
        q = symmetric_noise(2, 0.2)
        clean = ClassPrior(np.linalg.solve(q.q.T, noisy_prior.p))
        gam = gamma_weights(clean.p, q, noisy_prior)
        identity = TransitionMatrix(np.eye(2))
        a, _ = batch_loss_grads(model, x, labels, identity, gam)
        b, _ = batch_loss_grads(model, x, labels, identity, GammaWeights(np.ones(2)))
        assert a == pytest.approx(b, rel=1e-10)
