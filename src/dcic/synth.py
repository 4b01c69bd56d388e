"""Seeded synthetic scenario generation: Gaussian-mixture sources, per-class
location-scale shifts for the target domain, and label flipping.

Every operation takes an explicit seed or Generator; nothing here reads or
writes global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassPrior, Dataset, TransitionMatrix, frozen_field
from .rng import as_generator

MEAN_RANGE = 0.25           # means ~ U(-0.25, 0.25) entrywise
WISHART_SCALE = 2.0         # scale matrix 2 * I_d
WISHART_EXTRA_DOF = 5       # degrees of freedom d + 5
PSD_EIG_TOL = -1e-10
CHOL_JITTER = 1e-10

SHIFT_RANGE = 0.5           # default shift ~ U(-0.5, 0.5)
SCALE_LOW, SCALE_HIGH = 0.8, 1.25


@dataclass(frozen=True)
class GmmSpec:
    """Gaussian mixture: per-class mean, covariance, and mixing prior."""

    means: np.ndarray        # (c, d)
    covariances: np.ndarray  # (c, d, d)
    priors: ClassPrior

    def __post_init__(self):
        means = frozen_field(self, "means", self.means)
        covs = frozen_field(self, "covariances", self.covariances)
        if means.ndim != 2:
            raise ValueError("means must be (c, d)")
        c, d = means.shape
        if covs.shape != (c, d, d):
            raise ValueError(f"covariances must be ({c}, {d}, {d}), got {covs.shape}")
        if self.priors.n_classes != c:
            raise ValueError("prior length must match the number of components")
        for i in range(c):
            if np.linalg.norm(covs[i] - covs[i].T) > 1e-12:
                raise ValueError(f"covariance {i} is not symmetric")
            if np.linalg.eigvalsh(covs[i]).min() < PSD_EIG_TOL:
                raise ValueError(f"covariance {i} is not PSD")

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def with_priors(self, priors: ClassPrior) -> "GmmSpec":
        """Same components under different mixing proportions."""
        return GmmSpec(self.means, self.covariances, priors)


@dataclass(frozen=True)
class LocationScale:
    """Per-class, per-coordinate affine feature map x -> scale_y * x + shift_y."""

    shift: np.ndarray  # (c, d)
    scale: np.ndarray  # (c, d), strictly positive

    def __post_init__(self):
        shift = frozen_field(self, "shift", self.shift)
        scale = frozen_field(self, "scale", self.scale)
        if shift.ndim != 2 or scale.shape != shift.shape:
            raise ValueError("shift and scale must both be (c, d)")
        if np.any(scale <= 0):
            raise ValueError("scales must be strictly positive")


def _wishart(d: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from W(scale * I_d, d + extra) via the Bartlett decomposition.

    A is lower triangular with sqrt(chi-square) diagonal and standard-normal
    strict lower triangle; the draw is scale * A A^T.
    """
    dof = d + WISHART_EXTRA_DOF
    a = np.zeros((d, d))
    for i in range(d):
        a[i, i] = np.sqrt(rng.chisquare(dof - i))
        a[i, :i] = rng.standard_normal(i)
    return WISHART_SCALE * (a @ a.T)


def sample_gmm_spec(c: int, d: int, seed) -> GmmSpec:
    """Random mixture: means uniform in [-0.25, 0.25]^d, covariances Wishart
    with scale 2*I_d and d + 5 degrees of freedom, uniform priors (the
    harness swaps them per domain with ``GmmSpec.with_priors``)."""
    if c < 2 or d < 1:
        raise ValueError("need c >= 2 components and d >= 1 dimensions")
    rng = as_generator(seed)
    means = rng.uniform(-MEAN_RANGE, MEAN_RANGE, size=(c, d))
    covs = np.stack([_wishart(d, rng) for _ in range(c)])
    return GmmSpec(means, covs, ClassPrior(np.full(c, 1.0 / c)))


def _chol_factor(cov: np.ndarray) -> np.ndarray:
    # rounding can push a Wishart draw marginally indefinite
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(cov + CHOL_JITTER * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "covariance not positive definite even after jitter")


def sample_dataset(spec: GmmSpec, n: int, seed) -> Dataset:
    """Draw n labeled samples: label ~ priors, feature ~ N(mean_y, cov_y).

    Labels are drawn first, then one block of standard normals, so the
    label sequence for a given seed does not depend on d.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = as_generator(seed)
    c, d = spec.n_classes, spec.dim
    labels = rng.choice(c, size=n, p=spec.priors.p) + 1
    z = rng.standard_normal((n, d))
    features = np.empty((n, d))
    for i in range(c):
        mask = labels == i + 1
        if not np.any(mask):
            continue
        chol = _chol_factor(spec.covariances[i])
        features[mask] = z[mask] @ chol.T + spec.means[i]
    return Dataset(features, labels, c)


def sample_location_scale(c: int, d: int, seed) -> LocationScale:
    """Default target-domain perturbation: shift ~ U(-0.5, 0.5) and scale
    ~ U(0.8, 1.25), independently per class and coordinate."""
    rng = as_generator(seed)
    shift = rng.uniform(-SHIFT_RANGE, SHIFT_RANGE, size=(c, d))
    scale = rng.uniform(SCALE_LOW, SCALE_HIGH, size=(c, d))
    return LocationScale(shift, scale)


def apply_location_scale(data: Dataset, t: LocationScale) -> Dataset:
    """x <- scale_y * x + shift_y per sample; labels unchanged."""
    if data.labels is None:
        raise ValueError("location-scale transform needs labels")
    idx = data.labels - 1
    features = t.scale[idx] * data.features + t.shift[idx]
    return data.with_features(features)


def flip_labels(data: Dataset, q: TransitionMatrix, seed) -> Dataset:
    """Replace each label i by a draw from row i of q; features are copied
    bit for bit."""
    if data.labels is None:
        raise ValueError("flip_labels needs labels")
    if data.n_classes != q.n_classes:
        raise ValueError("transition matrix class count mismatch")
    rng = as_generator(seed)
    cum = np.cumsum(q.q, axis=1)
    u = rng.random(data.n_samples)
    noisy = np.empty(data.n_samples, dtype=np.int64)
    for i in range(q.n_classes):
        mask = data.labels == i + 1
        # smallest j with u < cumsum_j; clip guards u landing on the final 1.0
        noisy[mask] = np.minimum(
            np.searchsorted(cum[i], u[mask], side="right"), q.n_classes - 1) + 1
    return Dataset(data.features, noisy, data.n_classes)
