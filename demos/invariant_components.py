"""Project onto transferable components, then classify the shifted target.

The target domain applies a per-class location-scale map to the raw
features, so the class-conditionals no longer match the source and a
classifier trained on raw source features degrades. The pipeline fits an
orthonormal projection whose projected class-conditionals agree across
domains (jointly with the target prior), trains a flip-corrected MLP on the
projected noisy source, and scores accuracy against a noise-ignorant run of
the same pipeline.

Run: python3 demos/invariant_components.py
"""

import numpy as np

from dcic import (ClassPrior, Dataset, GmmSpec, LinearFitConfig, TrainConfig,
                  apply_location_scale, empirical_prior, fit, flip_labels,
                  gamma_weights, predict, sample_dataset,
                  sample_location_scale, symmetric_noise, train)
from dcic.data import TransitionMatrix

M = 1500
RHO = 0.3
TARGET_PRIOR = np.array([0.7, 0.3])


def main():
    means = np.array([[-2.0, 0.0], [2.0, 0.0]])
    covs = np.stack([np.eye(2), np.eye(2)])
    spec = GmmSpec(means, covs, ClassPrior(np.array([0.5, 0.5])))

    q = symmetric_noise(2, RHO)
    noisy_source = flip_labels(sample_dataset(spec, M, seed=12), q, seed=13)
    spec_t = spec.with_priors(ClassPrior(TARGET_PRIOR))
    shift = sample_location_scale(2, 2, seed=14)
    target_clean = sample_dataset(spec_t, M, seed=15)
    target = apply_location_scale(target_clean, shift)

    print(f"per-class shifts {np.round(shift.shift, 2).tolist()}")
    print(f"per-class scales {np.round(shift.scale, 2).tolist()}")
    print()

    noisy_prior = empirical_prior(noisy_source.labels, 2)
    identity = TransitionMatrix(np.eye(2))
    unlabeled = Dataset(target.features)

    for name, q_used in (("noise-corrected", q), ("noise-ignorant", identity)):
        res = fit(LinearFitConfig(d_prime=1, seed=0),
                  noisy_source, unlabeled, q_used)
        gamma = gamma_weights(res.alpha.p, q_used, noisy_prior)
        model = train(noisy_source.features @ res.w.w, noisy_source.labels,
                      q_used, gamma, TrainConfig(seed=0))
        pred = predict(model, target.features @ res.w.w)
        acc = np.mean(pred == target.labels)
        est = res.alpha.p
        print(f"{name:16s} prior [{est[0]:.3f} {est[1]:.3f}]"
              f"  target accuracy {acc:.3f}")


if __name__ == "__main__":
    main()
