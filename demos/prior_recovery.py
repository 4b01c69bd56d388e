"""Recover a shifted target class prior from noisily labeled source data.

Source and target share class-conditional distributions (a 2-D Gaussian
mixture); the target prior has drifted from 50/50 to 70/30, and 40% of the
source labels have been flipped symmetrically. Matching the reweighted
source to the target in kernel mean embedding distance recovers the target
prior only if the reweighting accounts for the flips: the noise-corrected
estimate lands near the truth while the noise-ignorant one is pulled toward
the vertex of the simplex.

Run: python3 demos/prior_recovery.py
"""

import numpy as np

from dcic import (ClassPrior, Dataset, GmmSpec, LinearFitConfig,
                  TransitionMatrix, fit, flip_labels, sample_dataset,
                  symmetric_noise)

M_SOURCE = 4000
N_TARGET = 4000
RHO = 0.4
TARGET_PRIOR = np.array([0.7, 0.3])


def main():
    means = np.array([[-1.0, 0.0], [1.0, 0.0]])
    covs = np.stack([np.eye(2), np.eye(2)])
    spec_s = GmmSpec(means, covs, ClassPrior(np.array([0.5, 0.5])))
    spec_t = spec_s.with_priors(ClassPrior(TARGET_PRIOR))

    clean_source = sample_dataset(spec_s, M_SOURCE, seed=0)
    q = symmetric_noise(2, RHO)
    noisy_source = flip_labels(clean_source, q, seed=1)
    target = Dataset(sample_dataset(spec_t, N_TARGET, seed=2).features)

    flipped = np.mean(noisy_source.labels != clean_source.labels)
    print(f"source: {M_SOURCE} points, {flipped:.1%} of labels flipped")
    print(f"target: {N_TARGET} unlabeled points, true prior {TARGET_PRIOR}")
    print()

    cfg = LinearFitConfig(d_prime=2)  # d' = d pins W = I: the prior alone
    corrected = fit(cfg, noisy_source, target, q)
    ignorant = fit(cfg, noisy_source, target, TransitionMatrix(np.eye(2)))

    for name, result in (("noise-corrected", corrected),
                         ("noise-ignorant", ignorant)):
        est = result.alpha.p
        err = np.abs(est - TARGET_PRIOR).sum()
        print(f"{name:16s} estimate [{est[0]:.3f} {est[1]:.3f}]"
              f"  L1 error {err:.3f}")

    gap = (np.abs(ignorant.alpha.p - TARGET_PRIOR).sum()
           - np.abs(corrected.alpha.p - TARGET_PRIOR).sum())
    print()
    print(f"correction reduces the prior error by {gap:.3f}")


if __name__ == "__main__":
    main()
