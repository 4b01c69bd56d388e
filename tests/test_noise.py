import warnings

import numpy as np
import pytest

from conftest import expand_weights, random_prior, random_transition
from dcic.data import ClassPrior, TransitionMatrix, symmetric_noise
from dcic.noise import (GammaWeights, GMatrix, build_g_matrix,
                        clean_prior_from_noisy, estimate_transition_anchor,
                        gamma_weights)


class TestCleanPriorFromNoisy:
    def test_identity_q(self):
        prior = ClassPrior(np.array([0.3, 0.7]))
        out = clean_prior_from_noisy(prior, TransitionMatrix(np.eye(2)))
        assert np.allclose(out.p, prior.p, atol=1e-15)

    def test_symmetric_fixed_point(self):
        # uniform noisy prior stays uniform under symmetric noise
        out = clean_prior_from_noisy(ClassPrior(np.array([0.5, 0.5])),
                                     symmetric_noise(2, 0.3))
        assert np.allclose(out.p, [0.5, 0.5], atol=1e-12)

    def test_roundtrip(self):
        q = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        clean = np.array([0.6, 0.4])
        noisy = ClassPrior(q.q.T @ clean)
        out = clean_prior_from_noisy(noisy, q)
        assert np.abs(out.p - clean).max() <= 1e-12

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            c = int(rng.integers(2, 5))
            q = random_transition(rng, c)
            clean = random_prior(rng, c)
            out = clean_prior_from_noisy(ClassPrior(q.q.T @ clean.p), q)
            assert np.abs(out.p - clean.p).max() <= 1e-10

    def test_inconsistent_inputs_raise(self):
        # noisy prior [1, 0] under rho=0.4 solves to [3, -2]: impossible
        with pytest.raises(ValueError):
            clean_prior_from_noisy(ClassPrior(np.array([1.0, 0.0])),
                                   symmetric_noise(2, 0.4))

    def test_small_negative_clamped(self):
        # a solution entry in [-1e-6, 0) is treated as sampling jitter
        q = symmetric_noise(2, 0.4)
        edge = q.q.T @ np.array([1.0, 0.0]) - np.array([1e-7, -1e-7])
        out = clean_prior_from_noisy(ClassPrior(edge / edge.sum()), q)
        assert out.p.min() >= 0.0
        assert out.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError):
            clean_prior_from_noisy(ClassPrior(np.array([0.5, 0.5])),
                                   TransitionMatrix(np.eye(3)))


class TestBetaConversions:
    """The noisy class ratios beta_rho implied by a target-prior candidate
    are G's class weights: beta_rho = G_hat alpha."""

    @staticmethod
    def _beta_rho(q, prior, alpha):
        labels = np.arange(1, q.n_classes + 1)
        return expand_weights(build_g_matrix(q, prior, labels), alpha)

    def test_identity_q(self):
        # without noise the noisy ratios are the clean ones, alpha / prior
        prior = ClassPrior(np.array([0.6, 0.4]))
        out = self._beta_rho(TransitionMatrix(np.eye(2)), prior, np.array([0.3, 0.7]))
        assert np.allclose(out, [0.5, 1.75], rtol=0, atol=1e-15)

    def test_hand_example(self):
        # Q^{-1} = [[1.6, -0.6], [-0.4, 1.4]]; clean ratios (1.08, 0.88)
        # under a uniform prior map back to noisy ratios (1.2, 0.8)
        q = TransitionMatrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        prior = ClassPrior(np.array([0.5, 0.5]))
        out = self._beta_rho(q, prior, np.array([0.54, 0.44]))
        assert np.allclose(out, [1.2, 0.8], rtol=0, atol=1e-14)

    def test_ones_fixed_point(self, rng):
        # rows sum to one, so alpha = clean prior (all-ones clean ratio)
        # gives all-ones noisy ratios under any Q
        for _ in range(10):
            c = int(rng.integers(2, 5))
            q = random_transition(rng, c)
            prior = random_prior(rng, c)
            out = self._beta_rho(q, prior, prior.p)
            assert np.abs(out - 1.0).max() <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            self._beta_rho(TransitionMatrix(np.eye(3)),
                           ClassPrior(np.array([0.5, 0.5])), np.ones(3))

    def test_beta_rho_from_alpha_matches_definition(self, rng):
        for _ in range(10):
            c = int(rng.integers(2, 5))
            q = random_transition(rng, c)
            prior = random_prior(rng, c)
            alpha = random_prior(rng, c).p
            got = self._beta_rho(q, prior, alpha)
            want = np.linalg.inv(q.q) @ (alpha / prior.p)
            assert np.abs(got - want).max() <= 1e-12

    def test_roundtrip_recovers_clean_ratio(self, rng):
        # Q @ beta_rho(alpha) = alpha / clean_prior for any alpha; the raw
        # product is used because intermediate ratios may dip negative
        for _ in range(10):
            c = int(rng.integers(2, 5))
            q = random_transition(rng, c)
            prior = random_prior(rng, c)
            alpha = random_prior(rng, c).p
            back = q.q @ self._beta_rho(q, prior, alpha)
            assert np.abs(back - alpha / prior.p).max() <= 1e-10

    def test_zero_prior_rejected(self):
        q = TransitionMatrix(np.eye(2))
        bad = ClassPrior.__new__(ClassPrior)
        object.__setattr__(bad, "p", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            self._beta_rho(q, bad, np.array([0.5, 0.5]))


class TestGMatrix:
    def test_identity_q_rows(self):
        prior = ClassPrior(np.array([0.25, 0.75]))
        g = build_g_matrix(TransitionMatrix(np.eye(2)), prior,
                           np.array([1, 2, 2]))
        assert np.allclose(g.class_rows, np.diag(1.0 / prior.p))
        # with alpha = clean prior every weight is exactly 1
        assert np.allclose(expand_weights(g, prior.p), np.ones(3), atol=1e-15)

    def test_no_shift_weights_are_one(self):
        # alpha = clean prior makes G alpha the all-ones vector for any Q
        q = symmetric_noise(2, 0.2)
        prior = ClassPrior(np.array([0.5, 0.5]))
        g = build_g_matrix(q, prior, np.array([1, 2, 1, 2]))
        assert np.abs(expand_weights(g, prior.p) - 1.0).max() <= 1e-12

    def test_expanded_rows_match_class_rows(self, rng):
        q = random_transition(rng, 3)
        prior = random_prior(rng, 3)
        labels = rng.integers(1, 4, size=12)
        g = build_g_matrix(q, prior, labels)
        assert np.array_equal(g.labels, labels)
        assert g.class_rows.shape == (3, 3)
        assert g.n_samples == 12 and g.n_classes == 3

    def test_weights_constant_per_class(self, rng):
        q = random_transition(rng, 3)
        g = build_g_matrix(q, random_prior(rng, 3),
                           np.array([1, 2, 3, 1, 2, 3]))
        alpha = random_prior(rng, 3).p
        w = expand_weights(g, alpha)
        assert np.array_equal(w[:3], w[3:])

    def test_known_values_symmetric(self):
        # rho = 0.4 binary: Q^{-1} = [[3, -2], [-2, 3]], uniform prior
        # doubles it
        g = build_g_matrix(symmetric_noise(2, 0.4),
                           ClassPrior(np.array([0.5, 0.5])),
                           np.array([1, 2]))
        assert np.allclose(g.class_rows, [[6.0, -4.0], [-4.0, 6.0]], atol=1e-12)

    def test_permutation_consistency(self, rng):
        # permuting classes in Q, prior, and labels permutes the weights
        q = random_transition(rng, 3)
        prior = random_prior(rng, 3)
        labels = rng.integers(1, 4, size=20)
        alpha = random_prior(rng, 3).p
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)
        q2 = TransitionMatrix(q.q[np.ix_(perm, perm)])
        prior2 = ClassPrior(prior.p[perm])
        labels2 = inv[labels - 1] + 1
        w1 = expand_weights(build_g_matrix(q, prior, labels), alpha)
        w2 = expand_weights(build_g_matrix(q2, prior2, labels2), alpha[perm])
        assert np.abs(w1 - w2).max() <= 1e-12

    def test_zero_prior_rejected(self):
        bad = ClassPrior.__new__(ClassPrior)
        object.__setattr__(bad, "p", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            build_g_matrix(TransitionMatrix(np.eye(2)), bad, np.array([1]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            GMatrix(np.eye(2), np.array([0, 1]))


class TestGammaWeights:
    def test_no_shift_is_ones(self, rng):
        # alpha equal to the clean prior reproduces the source noisy prior
        for _ in range(10):
            c = int(rng.integers(2, 5))
            q = random_transition(rng, c)
            clean = random_prior(rng, c)
            noisy = ClassPrior(q.q.T @ clean.p)
            out = gamma_weights(clean.p, q, noisy)
            assert np.abs(out.gamma - 1.0).max() <= 1e-12

    def test_identity_q_hand_example(self):
        out = gamma_weights(np.array([0.3, 0.7]),
                            TransitionMatrix(np.eye(2)),
                            ClassPrior(np.array([0.5, 0.5])))
        assert np.allclose(out.gamma, [0.6, 1.4], atol=1e-15)

    def test_normalization_identity(self, rng):
        # sum_i gamma_i * noisy_prior_i = 1 for any alpha on the simplex
        for _ in range(10):
            c = int(rng.integers(2, 5))
            q = random_transition(rng, c)
            noisy = random_prior(rng, c)
            alpha = random_prior(rng, c)
            out = gamma_weights(alpha.p, q, noisy)
            assert float(out.gamma @ noisy.p) == pytest.approx(1.0, abs=1e-10)

    def test_vertex_alpha_floored_to_positive_gamma(self):
        # a QP solution on a simplex vertex would give gamma a zero entry
        out = gamma_weights(np.array([1.0, 0.0]), TransitionMatrix(np.eye(2)),
                            ClassPrior(np.array([0.5, 0.5])))
        assert out.gamma[1] == pytest.approx(2e-9, rel=1e-6)
        assert out.gamma[0] == pytest.approx(2.0, rel=1e-8)

    def test_off_simplex_alpha_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            gamma_weights(np.array([2.0, 3.0]), TransitionMatrix(np.eye(2)),
                          ClassPrior(np.array([0.5, 0.5])))

    def test_zero_noisy_prior_rejected(self):
        bad = ClassPrior.__new__(ClassPrior)
        object.__setattr__(bad, "p", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            gamma_weights(np.array([0.5, 0.5]),
                          TransitionMatrix(np.eye(2)), bad)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            GammaWeights(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            GammaWeights(np.array([1.0, np.inf]))


class TestAnchorEstimator:
    def test_one_hot_posteriors_percentile_100(self):
        # perfectly confident model: anchors are exact unit rows
        p = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        q = estimate_transition_anchor(p, percentile=100.0)
        assert np.allclose(q.q, np.eye(2), atol=1e-12)

    def test_recovers_known_q_separable(self):
        # analytic noisy posteriors from a separable 1-D mixture; the
        # extreme samples carry posteriors near the true flip rows
        rng = np.random.default_rng(42)
        q_true = np.array([[0.8, 0.2], [0.3, 0.7]])
        labels = rng.integers(1, 3, size=5000)
        means = np.array([-2.0, 2.0])
        x = rng.standard_normal(5000) + means[labels - 1]
        d1 = np.exp(-0.5 * (x - means[0]) ** 2)
        d2 = np.exp(-0.5 * (x - means[1]) ** 2)
        clean_post = np.stack([d1, d2], axis=1)
        clean_post /= clean_post.sum(axis=1, keepdims=True)
        noisy_post = clean_post @ q_true
        q_hat = estimate_transition_anchor(noisy_post)
        assert np.abs(q_hat.q - q_true).max() <= 0.05

    def test_rank_selection_exact(self):
        # 10 rows, percentile 75 -> ceil(7.5) - 1 = index 7 in sorted order
        col = np.linspace(0.05, 0.95, 10)
        p = np.stack([col, 1.0 - col], axis=1)
        q = estimate_transition_anchor(p, percentile=75.0)
        order = np.argsort(col, kind="stable")
        assert np.allclose(q.q[0], p[order[7]], atol=1e-12)

    def test_identical_rows_rejected(self):
        # every anchor lands on the same posterior: singular estimate
        p = np.full((20, 2), 0.5)
        with pytest.raises(ValueError, match="singular or ill-conditioned"):
            estimate_transition_anchor(p)

    def test_singular_raises(self):
        # both anchors are the same posterior, so the estimate is singular
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="singular or ill-conditioned"):
            estimate_transition_anchor(p, percentile=100.0)

    @pytest.mark.parametrize("rows", [np.eye(2), [[0.6, 0.4], [0.4, 0.6]]],
                             ids=["identity", "symmetric"])
    def test_dominant_diagonal_no_warning(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = estimate_transition_anchor(np.asarray(rows), percentile=100.0)
        assert np.array_equal(q.q, rows)

    def test_weak_diagonal_warns(self):
        # no sample puts more than 0.45 on class 1, so anchor row 1 does not
        # retain its class
        p = np.array([[0.45, 0.55], [0.1, 0.9]])
        with pytest.warns(UserWarning, match="not diagonally dominant"):
            q = estimate_transition_anchor(p, percentile=100.0)
        assert np.array_equal(q.q, p)

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            estimate_transition_anchor(np.array([[0.5, 0.6]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_transition_anchor(np.zeros((0, 2)))

    def test_bad_percentile(self):
        p = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ValueError):
            estimate_transition_anchor(p, percentile=0.0)
