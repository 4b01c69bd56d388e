"""Estimate the label-flip matrix from noisy data alone, then reuse it.

When the flip rates are unknown they can be read off the extremes of the
noisy class-posterior: for each noisy class, the samples most confidently
assigned to it behave like anchors whose posterior row approximates a row
of the flip matrix. A small MLP fit on the noisy labels supplies the
posterior estimates. The recovered matrix then drives the same prior
estimation as the known-rates path, with little loss of accuracy.

Run: python3 demos/flip_rate_estimation.py
"""

import numpy as np

from dcic import (ClassPrior, Dataset, GmmSpec, LinearFitConfig,
                  estimate_q_mlp, fit, flip_labels, sample_dataset)
from dcic.data import TransitionMatrix

M = 3000
TARGET_PRIOR = np.array([0.7, 0.3])


def main():
    means = np.array([[-2.0, 0.0], [2.0, 0.0]])
    covs = np.stack([np.eye(2), np.eye(2)])
    spec = GmmSpec(means, covs, ClassPrior(np.array([0.5, 0.5])))

    q_true = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
    noisy_source = flip_labels(sample_dataset(spec, M, seed=0), q_true, seed=1)
    spec_t = spec.with_priors(ClassPrior(TARGET_PRIOR))
    target = Dataset(sample_dataset(spec_t, M, seed=2).features)

    q_hat = estimate_q_mlp(noisy_source.features, noisy_source.labels, 2,
                           seed=3)
    print("true flip matrix      estimated")
    for i in range(2):
        row_t = " ".join(f"{v:.3f}" for v in q_true.q[i])
        row_e = " ".join(f"{v:.3f}" for v in q_hat.q[i])
        print(f"  [{row_t}]       [{row_e}]")
    print(f"max entry error {np.abs(q_hat.q - q_true.q).max():.3f}")
    print()

    cfg = LinearFitConfig(d_prime=2)  # d' = d pins W = I: the prior alone
    for name, q_used in (("known rates", q_true), ("estimated rates", q_hat)):
        est = fit(cfg, noisy_source, target, q_used).alpha.p
        err = np.abs(est - TARGET_PRIOR).sum()
        print(f"prior with {name:15s} [{est[0]:.3f} {est[1]:.3f}]"
              f"  L1 error {err:.3f}")


if __name__ == "__main__":
    main()
