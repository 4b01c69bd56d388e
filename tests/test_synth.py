import numpy as np
import pytest

from dcic.data import ClassPrior, Dataset, symmetric_noise
from dcic.synth import (GmmSpec, LocationScale, apply_location_scale,
                        flip_labels, sample_dataset, sample_gmm_spec,
                        sample_location_scale)


class TestGmmSpec:
    def test_means_within_bounds(self):
        for seed in range(30):
            spec = sample_gmm_spec(2, 2, seed=seed)
            assert np.abs(spec.means).max() <= 0.25

    def test_deterministic(self):
        a = sample_gmm_spec(3, 2, seed=7)
        b = sample_gmm_spec(3, 2, seed=7)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_covariances_symmetric_psd(self):
        for seed in range(50):
            spec = sample_gmm_spec(2, 3, seed=seed)
            for cov in spec.covariances:
                assert np.abs(cov - cov.T).max() <= 1e-12
                assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_wishart_mean(self):
        # covariance draws average to dof * scale = 14 * I in 2-D
        total = np.zeros((2, 2))
        draws = 0
        for seed in range(5000):
            spec = sample_gmm_spec(2, 2, seed=seed)
            total += spec.covariances.sum(axis=0)
            draws += 2
        mean_cov = total / draws
        assert np.abs(mean_cov - 14.0 * np.eye(2)).max() / 14.0 < 0.05

    def test_with_priors(self):
        spec = sample_gmm_spec(2, 2, seed=3)
        shifted = spec.with_priors(ClassPrior(np.array([0.7, 0.3])))
        assert np.array_equal(shifted.means, spec.means)
        assert np.allclose(shifted.priors.p, [0.7, 0.3])

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[[1.0, 0.5], [0.2, 1.0]]] * 2)
        with pytest.raises(ValueError):
            GmmSpec(np.zeros((2, 2)), cov, ClassPrior(np.array([0.5, 0.5])))


class TestSampleDataset:
    def test_degenerate_prior(self):
        spec = sample_gmm_spec(2, 2, seed=1,
                               priors=ClassPrior(np.array([1.0, 0.0])))
        data = sample_dataset(spec, 100, seed=2)
        assert np.all(data.labels == 1)
        assert data.label_kind == "clean"

    def test_empirical_prior_close(self):
        spec = sample_gmm_spec(2, 2, seed=1)
        data = sample_dataset(spec, 10_000, seed=2)
        frac = np.mean(data.labels == 1)
        assert abs(frac - 0.5) <= 0.02

    def test_class_means_match_spec(self):
        # per-class sample mean within 3 standard errors of the spec mean
        spec = sample_gmm_spec(2, 2, seed=5)
        data = sample_dataset(spec, 10_000, seed=6)
        for i in range(2):
            rows = data.features[data.labels == i + 1]
            se = np.sqrt(np.diag(spec.covariances[i]) / len(rows))
            assert np.all(np.abs(rows.mean(axis=0) - spec.means[i]) <= 3 * se)

    def test_deterministic(self):
        spec = sample_gmm_spec(2, 2, seed=1)
        a = sample_dataset(spec, 50, seed=9)
        b = sample_dataset(spec, 50, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestLocationScale:
    def test_identity_transform(self, rng):
        spec = sample_gmm_spec(2, 2, seed=1)
        data = sample_dataset(spec, 20, seed=2)
        t = LocationScale(np.zeros((2, 2)), np.ones((2, 2)))
        out = apply_location_scale(data, t)
        assert np.array_equal(out.features, data.features)

    def test_hand_example(self):
        data = Dataset(np.array([[3.0, 4.0]]), np.array([1]), "clean", 2)
        t = LocationScale(np.array([[1.0, 0.0], [0.0, 0.0]]),
                          np.array([[2.0, 1.0], [1.0, 1.0]]))
        out = apply_location_scale(data, t)
        assert np.allclose(out.features, [[7.0, 4.0]])

    def test_invertible(self, rng):
        spec = sample_gmm_spec(2, 2, seed=3)
        data = sample_dataset(spec, 30, seed=4)
        t = sample_location_scale(2, 2, seed=5)
        out = apply_location_scale(data, t)
        restored = (out.features - t.shift[out.labels - 1]) / t.scale[out.labels - 1]
        assert np.abs(restored - data.features).max() <= 1e-12

    def test_unlabeled_rejected(self):
        data = Dataset(np.zeros((2, 2)))
        t = LocationScale(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            apply_location_scale(data, t)

    def test_positive_scales_enforced(self):
        with pytest.raises(ValueError):
            LocationScale(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_sampled_law_bounds(self):
        for seed in range(20):
            t = sample_location_scale(2, 2, seed=seed)
            assert np.abs(t.shift).max() <= 0.5
            assert t.scale.min() >= 0.8 and t.scale.max() <= 1.25



class TestFlipLabels:
    def test_identity_no_change(self):
        spec = sample_gmm_spec(2, 2, seed=1)
        data = sample_dataset(spec, 100, seed=2)
        out = flip_labels(data, symmetric_noise(2, 0.0), seed=3)
        assert np.array_equal(out.labels, data.labels)
        assert out.label_kind == "noisy"

    def test_flip_frequency(self):
        spec = sample_gmm_spec(2, 2, seed=1)
        data = sample_dataset(spec, 100_000, seed=2)
        out = flip_labels(data, symmetric_noise(2, 0.4), seed=3)
        flipped = np.mean(out.labels != data.labels)
        assert abs(flipped - 0.4) <= 0.01

    def test_confusion_matches_q(self):
        q = np.array([[0.8, 0.2], [0.3, 0.7]])
        from dcic.data import TransitionMatrix
        spec = sample_gmm_spec(2, 2, seed=4)
        data = sample_dataset(spec, 100_000, seed=5)
        out = flip_labels(data, TransitionMatrix(q), seed=6)
        for i in range(2):
            mask = data.labels == i + 1
            for j in range(2):
                freq = np.mean(out.labels[mask] == j + 1)
                assert abs(freq - q[i, j]) <= 0.01

    def test_features_bit_identical(self):
        spec = sample_gmm_spec(2, 2, seed=1)
        data = sample_dataset(spec, 100, seed=2)
        out = flip_labels(data, symmetric_noise(2, 0.3), seed=3)
        assert np.array_equal(out.features, data.features)
        assert np.shares_memory(out.features, data.features)

    def test_noisy_input_rejected(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, 2]), "noisy")
        with pytest.raises(ValueError):
            flip_labels(data, symmetric_noise(2, 0.1), seed=0)

    def test_deterministic(self):
        spec = sample_gmm_spec(2, 2, seed=1)
        data = sample_dataset(spec, 500, seed=2)
        a = flip_labels(data, symmetric_noise(2, 0.3), seed=7)
        b = flip_labels(data, symmetric_noise(2, 0.3), seed=7)
        assert np.array_equal(a.labels, b.labels)
