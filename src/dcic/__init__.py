"""Class-prior shift estimation under label noise, with invariant components.

Given a noisily labeled source sample and an unlabeled target sample, the
package estimates the target class prior by matching a reweighted source
distribution to the target in kernel mean embedding distance, with the
reweighting corrected for known or estimated label flip rates. The same
objective drives an orthonormal linear projection onto components whose
class-conditional distributions transfer across domains, and a
forward-corrected classifier consumes the result.

The top level exports what the demos, the quick start, the experiment
harness and the CLI use; everything else is reached through its module
(``dcic.joint.fit_joint``, ``dcic.kernels.median_bandwidth``, ...).
"""

from .classifier import TrainConfig, predict, predict_proba, train
from .data import (ClassPrior, Dataset, TransitionMatrix, empirical_prior,
                   read_dataset_csv, symmetric_noise)
from .harness import (ExperimentConfig, emit_results, estimate_q_mlp,
                      run_experiment)
from .linear import LinearFitConfig, fit
from .noise import (GammaWeights, clean_prior_from_noisy,
                    estimate_transition_anchor, gamma_weights)
from .rng import child_generator, child_seed
from .synth import (GmmSpec, apply_location_scale, flip_labels,
                    sample_dataset, sample_gmm_spec, sample_location_scale)

__version__ = "0.1.0"

__all__ = [
    "ClassPrior", "Dataset", "TransitionMatrix", "empirical_prior",
    "read_dataset_csv", "symmetric_noise",
    "GmmSpec", "apply_location_scale", "flip_labels", "sample_dataset",
    "sample_gmm_spec", "sample_location_scale",
    "GammaWeights", "clean_prior_from_noisy", "estimate_transition_anchor",
    "gamma_weights",
    "LinearFitConfig", "fit",
    "TrainConfig", "predict", "predict_proba", "train",
    "ExperimentConfig", "emit_results", "estimate_q_mlp", "run_experiment",
    "child_generator", "child_seed",
]
