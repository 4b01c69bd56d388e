"""The benchmark's workloads: input generation from the seed, one unit of
work, and the output checks that decide whether a unit failed.

Every call into the program goes through a module attribute looked up at
call time (``linear.fit``, ``harness.run_experiment``, ...), so the traced
run can wrap those names. See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dcic import classifier, data, harness, joint, linear, synth

TARGET_PRIOR = np.array([0.7, 0.3])
RHO = 0.4
SIMPLEX_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8


def unit_seed(seed: int, index: int) -> int:
    """Integer seed of unit ``index`` in the run seeded by ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass
class UnitResult:
    """What one unit produced.

    ``fingerprint`` holds the arrays the determinism check compares bit for
    bit; ``problems`` the output checks that failed.
    """

    alpha_l1: float
    target_acc: float | None
    fingerprint: list
    problems: list = field(default_factory=list)


def _check_alpha(alpha, problems, tag=""):
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        problems.append(f"{tag}alpha not finite: {a}")
    elif a.min() < 0.0 or abs(a.sum() - 1.0) > SIMPLEX_TOL:
        problems.append(f"{tag}alpha off the simplex: {a!r}")


def _check_w(w, problems, tag=""):
    w = np.asarray(w, dtype=np.float64)
    err = np.linalg.norm(w.T @ w - np.eye(w.shape[1]))
    if not err <= ORTHONORMAL_TOL:
        problems.append(f"{tag}W not orthonormal: ||W^T W - I|| = {err:.3g}")


def _check_trace(trace, problems, what):
    if not np.all(np.isfinite(np.asarray(trace, dtype=np.float64))):
        problems.append(f"{what} trace not finite")


def _check_acc(acc, problems, tag=""):
    if not 0.0 <= acc <= 1.0:
        problems.append(f"{tag}target_acc {acc!r} outside [0, 1]")


def _noisy_pair(spec_source, spec_target, n, seed):
    """(noisy source, clean-labelled target) of ``n`` rows each."""
    clean = synth.sample_dataset(spec_source, n, np.random.default_rng([seed, 1]))
    noisy = synth.flip_labels(clean, data.symmetric_noise(2, RHO),
                              np.random.default_rng([seed, 2]))
    target = synth.sample_dataset(spec_target, n, np.random.default_rng([seed, 3]))
    return noisy, target


class PriorWorkload:
    """prior_5k: one ``tars_fixed_w`` fit at m = n = 5000, d = 2 on the
    prior-recovery gate's data law (means +-1, unit covariance)."""

    name = "prior_5k"
    cycle = 1
    n = 5000

    def __init__(self, seed: int, pool: int):
        means = np.array([[-1.0, 0.0], [1.0, 0.0]])
        covs = np.stack([np.eye(2)] * 2)
        spec_s = synth.GmmSpec(means, covs, data.ClassPrior([0.5, 0.5]))
        spec_t = spec_s.with_priors(data.ClassPrior(TARGET_PRIOR))
        self.q = data.symmetric_noise(2, RHO)
        self.config = linear.LinearFitConfig(d_prime=2, mode="tars_fixed_w", seed=0)
        self.inputs = []
        for k in range(pool):
            noisy, target = _noisy_pair(spec_s, spec_t, self.n, unit_seed(seed, k))
            self.inputs.append((noisy, data.Dataset(target.features)))

    def run_unit(self, index: int) -> UnitResult:
        noisy, target = self.inputs[index % len(self.inputs)]
        res = linear.fit(self.config, noisy, target, self.q)
        out = UnitResult(float(np.abs(res.alpha.p - TARGET_PRIOR).sum()), None,
                         [res.alpha.p, res.w.w])
        _check_alpha(res.alpha.p, out.problems)
        _check_w(res.w.w, out.problems)
        _check_trace(res.objective_trace, out.problems, "objective")
        return out


class GetarsWorkload:
    """getars_500: one GeTarS repetition (dcic and cic arms, classifier
    training, target accuracy) at n = 500, d' = 1, true flip rates. Unit i
    runs grid cell i mod 9 with its own seed."""

    name = "getars_500"
    grid = [(rho, beta) for rho in (0.2, 0.3, 0.4) for beta in (1.4, 1.6, 1.8)]
    cycle = len(grid)
    n = 500

    def __init__(self, seed: int, pool: int):
        del pool  # the harness generates each unit's data inside the unit
        self.seed = seed

    def run_unit(self, index: int) -> UnitResult:
        rho, beta = self.grid[index % self.cycle]
        cfg = harness.ExperimentConfig(
            scenario="getars_accuracy", repetitions=1, sample_sizes=(self.n,),
            rho_grid=(rho,), beta_grid=(beta,), q_source="true", d_prime=1,
            seed=unit_seed(self.seed, index))
        records = harness.run_experiment(cfg)
        problems = []
        fingerprint = []
        dcic_rec = None
        for rec in records:
            tag = f"{rec.method}: "
            if rec.error is not None:
                problems.append(f"{tag}record error: {rec.error}")
                continue
            _check_alpha(rec.alpha, problems, tag)
            _check_w(rec.w, problems, tag)
            _check_trace(rec.objective_trace, problems, f"{tag}objective")
            _check_acc(rec.accuracy, problems, tag)
            fingerprint += [np.asarray(rec.alpha), np.asarray(rec.w)]
            if rec.method == "dcic":
                dcic_rec = rec
        if dcic_rec is None:
            problems.append("no successful dcic record")
            return UnitResult(float("nan"), float("nan"), fingerprint, problems)
        return UnitResult(float(dcic_rec.alpha_error), float(dcic_rec.accuracy),
                          fingerprint, problems)


class JointWorkload:
    """joint_1k: one end-to-end ``fit_joint`` at m = n = 1000 on a random
    two-class mixture, then prediction on the clean-labelled target."""

    name = "joint_1k"
    cycle = 1
    n = 1000

    def __init__(self, seed: int, pool: int):
        self.q = data.symmetric_noise(2, RHO)
        self.inputs = []
        for k in range(pool):
            s = unit_seed(seed, k)
            spec = synth.sample_gmm_spec(2, 2, np.random.default_rng([s, 0]))
            spec_t = spec.with_priors(data.ClassPrior(TARGET_PRIOR))
            noisy, target = _noisy_pair(spec, spec_t, self.n, s)
            cfg = joint.JointConfig(hidden_units=32, epochs=5, batch_size=100,
                                    pi1=1.0, seed=s)
            self.inputs.append((cfg, noisy, target))

    def run_unit(self, index: int) -> UnitResult:
        cfg, noisy, target = self.inputs[index % len(self.inputs)]
        model, alpha, trace = joint.fit_joint(
            cfg, noisy, data.Dataset(target.features), self.q)
        acc = float(np.mean(classifier.predict(model, target.features) == target.labels))
        out = UnitResult(float(np.abs(alpha.p - TARGET_PRIOR).sum()), acc,
                         [alpha.p, model.hidden_w, model.hidden_b, model.out_w,
                          model.out_b])
        _check_alpha(alpha.p, out.problems)
        _check_trace(trace, out.problems, "loss")
        _check_acc(acc, out.problems)
        return out


WORKLOADS = {w.name: w for w in (PriorWorkload, GetarsWorkload, JointWorkload)}
