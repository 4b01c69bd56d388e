import copy

import numpy as np
import pytest

from conftest import central_difference, joint_loss, relative_grad_error
import dcic.joint as joint_mod
from dcic.classifier import (TrainConfig, batch_loss_grads, init_model,
                             predict, train)
from dcic.data import ClassPrior, Dataset, TransitionMatrix, empirical_prior, symmetric_noise
from dcic.joint import JointConfig, _weight_decay_value, fit_joint
from dcic.linear import _MmdProblem
from dcic.noise import GammaWeights, build_g_matrix, clean_prior_from_noisy, gamma_weights
from dcic.rng import as_generator
from dcic.synth import GmmSpec, flip_labels, sample_dataset


def _domain_pair(seed, m=400, n=400, rho=0.3, sep=2.0,
                 target_prior=(0.7, 0.3)):
    means = np.array([[-sep, 0.0], [sep, 0.0]])
    covs = np.array([np.eye(2), np.eye(2)])
    spec_s = GmmSpec(means, covs, ClassPrior(np.array([0.5, 0.5])))
    spec_t = spec_s.with_priors(ClassPrior(np.array(target_prior)))
    clean = sample_dataset(spec_s, m, seed=seed)
    q = symmetric_noise(2, rho)
    source = flip_labels(clean, q, seed=seed + 1)
    target_labeled = sample_dataset(spec_t, n, seed=seed + 2)
    target = Dataset(target_labeled.features)
    return source, target, target_labeled, q


def _batch_pair(rng, bs=12, bt=10, d=3):
    feats = rng.standard_normal((bs, d))
    labels = rng.integers(1, 3, size=bs)
    labels[:2] = [1, 2]
    source = Dataset(feats, labels, "noisy", 2)
    target = Dataset(rng.standard_normal((bt, d)))
    return source, target


class TestJointConfig:
    def test_inherits_train_validation(self):
        with pytest.raises(ValueError):
            JointConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            JointConfig(pi1=-0.1)
        with pytest.raises(ValueError, match="pi1 must be a number"):
            JointConfig(pi1=True)


class TestJointLoss:
    """The batch term ``fit_joint`` runs (``joint._joint_batch``), through
    the reference composition ``conftest.joint_loss``, which adds the decay
    term as a gradient."""

    def test_reduces_to_corrected_loss_when_pi1_zero(self, rng):
        # pi1 = 0: the value is the batch corrected loss plus the decay term
        source, target = _batch_pair(rng)
        model = init_model(3, 5, 2, rng)
        q = symmetric_noise(2, 0.2)
        cfg = JointConfig(pi1=0.0, l2_coeff=0.01)
        alpha = np.array([0.6, 0.4])
        noisy_prior = empirical_prior(source.labels, 2)
        gam = gamma_weights(alpha, q, noisy_prior)
        ce, _ = batch_loss_grads(model, source.features, source.labels, q, gam)
        want = ce + 0.01 * _weight_decay_value(model)
        got, _ = joint_loss(model, source, target, q, alpha, cfg)
        assert got == pytest.approx(want, rel=1e-12)

    def test_penalty_matches_linear_objective_on_hidden(self, rng):
        # strip the risk and decay: the remaining term over pi1 equals the
        # weighted MMD objective evaluated on hidden features
        source, target = _batch_pair(rng)
        model = init_model(3, 5, 2, rng)
        q = symmetric_noise(2, 0.2)
        alpha = np.array([0.55, 0.45])
        sigma = 1.3
        pi1 = 2.5
        noisy_prior = empirical_prior(source.labels, 2)
        gam = gamma_weights(alpha, q, noisy_prior)
        ce, _ = batch_loss_grads(model, source.features, source.labels, q, gam)
        full, _ = joint_loss(model, source, target, q, alpha,
                             JointConfig(pi1=pi1, l2_coeff=0.0), sigma=sigma)
        from dcic.classifier import _forward
        h_s = _forward(model, source.features)[1]
        h_t = _forward(model, target.features)[1]
        g = build_g_matrix(q, clean_prior_from_noisy(noisy_prior, q),
                           source.labels)
        want = _MmdProblem(h_s, h_t, g, sigma).eval(np.eye(5), alpha)
        assert (full - ce) / pi1 == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        source, target = _batch_pair(rng, bs=5, bt=4)
        model = init_model(3, 4, 2, rng)
        q = symmetric_noise(2, 0.25)
        cfg = JointConfig(pi1=1.7, l2_coeff=0.02)
        alpha = np.array([0.6, 0.4])
        noisy_prior = empirical_prior(source.labels, 2)
        _, grads = joint_loss(model, source, target, q, alpha, cfg,
                              sigma=1.1, noisy_prior=noisy_prior)
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            def f_of(p, name=name):
                probe = copy.deepcopy(model)
                setattr(probe, name, p)
                val, _ = joint_loss(probe, source, target, q, alpha, cfg,
                                    sigma=1.1, noisy_prior=noisy_prior)
                return val
            numeric = central_difference(f_of, getattr(model, name), h=1e-6)
            assert relative_grad_error(getattr(grads, name), numeric) <= 1e-4

    def test_penalty_nonnegative(self, rng):
        # the invariance term is a squared embedding distance
        source, target = _batch_pair(rng)
        model = init_model(3, 5, 2, rng)
        q = symmetric_noise(2, 0.2)
        alpha = np.array([0.5, 0.5])
        base, _ = joint_loss(model, source, target, q, alpha,
                             JointConfig(pi1=0.0, l2_coeff=0.0))
        full, _ = joint_loss(model, source, target, q, alpha,
                             JointConfig(pi1=1.0, l2_coeff=0.0), sigma=1.0)
        assert full - base >= -1e-10

    def test_vertex_alpha_floored(self, rng):
        # a vertex alpha would zero a gamma entry; the floor keeps the
        # loss finite and defined
        source, target = _batch_pair(rng)
        model = init_model(3, 5, 2, rng)
        q = TransitionMatrix(np.eye(2))
        loss, _ = joint_loss(model, source, target, q,
                             np.array([1.0, 0.0]), JointConfig(pi1=0.0))
        assert np.isfinite(loss)

    def test_unlabeled_source_rejected(self, rng):
        source, target = _batch_pair(rng)
        model = init_model(3, 5, 2, rng)
        with pytest.raises(ValueError):
            joint_loss(model, target, target, symmetric_noise(2, 0.2),
                       np.array([0.5, 0.5]), JointConfig())


class TestFitJoint:
    def test_pi1_zero_matches_plain_training_bitwise(self):
        source, target, _, q = _domain_pair(seed=0, m=200, n=200)
        cfg = JointConfig(pi1=0.0, hidden_units=8, epochs=3, seed=4)
        model_j, alpha, trace = fit_joint(cfg, source, target, q)
        noisy_prior = empirical_prior(source.labels, 2)
        clean = clean_prior_from_noisy(noisy_prior, q)
        gam = gamma_weights(np.full(2, 0.5), q, noisy_prior)
        model_p = train(source.features, source.labels, q, gam,
                        TrainConfig(hidden_units=8, epochs=3, seed=4,
                                    learning_rate=cfg.learning_rate,
                                    batch_size=cfg.batch_size,
                                    l2_coeff=cfg.l2_coeff))
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert np.array_equal(getattr(model_j, name), getattr(model_p, name))
        assert np.allclose(alpha.p, [0.5, 0.5])
        assert len(trace) == 3 * ((200 + cfg.batch_size - 1) // cfg.batch_size)

    def test_alpha_on_simplex(self):
        source, target, _, q = _domain_pair(seed=5, m=200, n=200)
        cfg = JointConfig(pi1=1.0, hidden_units=8, epochs=2, batch_size=50,
                          seed=6)
        _, alpha, _ = fit_joint(cfg, source, target, q)
        assert alpha.p.min() >= 0.0
        assert alpha.p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        source, target, _, q = _domain_pair(seed=7, m=150, n=150)
        cfg = JointConfig(pi1=0.5, hidden_units=6, epochs=2, batch_size=50,
                          seed=8)
        a = fit_joint(cfg, source, target, q)
        b = fit_joint(cfg, source, target, q)
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert np.array_equal(getattr(a[0], name), getattr(b[0], name))
        assert np.array_equal(a[1].p, b[1].p)
        assert np.array_equal(a[2], b[2])

    def test_alpha_moves_toward_target_prior(self):
        # shifted target prior: the refreshed alpha should leave uniform
        # and move toward the truth on separated components
        source, target, _, q = _domain_pair(seed=9, m=800, n=800, rho=0.2)
        cfg = JointConfig(pi1=1.0, hidden_units=8, epochs=5, batch_size=100,
                          seed=10)
        _, alpha, _ = fit_joint(cfg, source, target, q)
        assert abs(alpha.p[0] - 0.7) < abs(0.5 - 0.7)

    def test_noise_corrected_beats_noise_ignorant(self):
        # same data, same seeds; the arm told the true flip rates should
        # classify the shifted target at least as well on median
        gaps = []
        for seed in range(10):
            source, target, target_lab, q = _domain_pair(
                seed=100 + 7 * seed, m=500, n=500, rho=0.4)
            cfg = JointConfig(pi1=1.0, hidden_units=8, epochs=20,
                              batch_size=100, seed=seed)
            m_true, _, _ = fit_joint(cfg, source, target, q)
            m_ignore, _, _ = fit_joint(cfg, source, target,
                                       TransitionMatrix(np.eye(2)))
            acc_true = np.mean(predict(m_true, target_lab.features)
                               == target_lab.labels)
            acc_ignore = np.mean(predict(m_ignore, target_lab.features)
                                 == target_lab.labels)
            gaps.append(acc_true - acc_ignore)
        assert np.median(gaps) >= 0.0

    def test_alpha_refreshed_once_per_epoch(self, monkeypatch):
        calls = []
        real = joint_mod.solve_alpha_qp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(joint_mod, "solve_alpha_qp", counting)
        source, target, _, q = _domain_pair(seed=11, m=150, n=150)
        cfg = JointConfig(pi1=0.5, hidden_units=6, epochs=3, batch_size=50,
                          seed=12)
        _, _, trace = fit_joint(cfg, source, target, q)
        assert len(trace) == 9
        assert len(calls) == 3

    def test_unlabeled_source_rejected(self):
        _, target, _, q = _domain_pair(seed=15, m=50, n=50)
        with pytest.raises(ValueError):
            fit_joint(JointConfig(), target, target, q)


def _dead_rows_on(monkeypatch, dead):
    """Hand ``fit_joint``'s bandwidth all-zero hidden rows (a dead ReLU
    layer) on the calls numbered in ``dead`` (from 1); returns the list that
    collects the sigma of every penalty problem it then builds."""
    real_bandwidth = joint_mod.median_bandwidth
    real_problem = joint_mod._MmdProblem
    calls, sigmas = [], []

    def bandwidth(rows):
        calls.append(1)
        return real_bandwidth(np.zeros_like(rows) if len(calls) in dead
                              else rows)

    def problem(h_s, h_t, g, sigma):
        sigmas.append(sigma)
        return real_problem(h_s, h_t, g, sigma)

    monkeypatch.setattr(joint_mod, "median_bandwidth", bandwidth)
    monkeypatch.setattr(joint_mod, "_MmdProblem", problem)
    return sigmas


class TestDegenerateBandwidth:
    """A batch whose hidden rows are all identical has no median distance:
    ``fit_joint`` reuses the last bandwidth, and raises when there is none."""

    CFG = JointConfig(pi1=0.5, hidden_units=6, epochs=1, batch_size=50, seed=14)

    def test_first_batch_raises(self, monkeypatch):
        source, target, _, q = _domain_pair(seed=13, m=150, n=150)
        sigmas = _dead_rows_on(monkeypatch, {1})
        with pytest.raises(ValueError, match="identical rows"):
            fit_joint(self.CFG, source, target, q)
        assert sigmas == []

    def test_later_batch_reuses_previous_sigma(self, monkeypatch):
        source, target, _, q = _domain_pair(seed=13, m=150, n=150)
        sigmas = _dead_rows_on(monkeypatch, {2})
        fit_joint(self.CFG, source, target, q)
        # three batches, then the epoch's alpha refresh
        assert len(sigmas) == 4
        assert sigmas[1] == sigmas[0]
        assert len(set(sigmas)) == 3

    def test_other_value_error_propagates(self, monkeypatch):
        # only the bandwidth falls back: an error in the penalty itself is
        # not a degenerate batch, and the batch is not run again
        source, target, _, q = _domain_pair(seed=13, m=150, n=150)
        real = joint_mod._MmdProblem
        calls = []

        def problem(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("penalty failed")
            return real(*args)

        monkeypatch.setattr(joint_mod, "_MmdProblem", problem)
        with pytest.raises(ValueError, match="penalty failed"):
            fit_joint(self.CFG, source, target, q)
        assert len(calls) == 2
