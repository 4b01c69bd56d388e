"""Experiment harness: seeded sweeps over (sample size, flip rate, class
ratio) cells, with the noise-corrected method and the noise-ignorant
baseline run side by side on identical data.

Every cell x repetition derives its own integer seed from the root seed by
spawn keys, so results are independent of execution order. Within one
repetition the child streams are, in order: 0 mixture spec, 1 source
sample, 2 label flips, 3 target sample, 4 location-scale draw (and the
flip-rate estimation seed), 5 fit seed, 6 classifier seed. Records carry
the derived seed, the fitted prior, and the priors used for the ratio, so
every reported number is recomputable.

A sweep is a list of tasks, one per (cell, repetition, arm) in grid order,
each regenerating its repetition's data from the seed, so a task needs
nothing from another. When ``linear._WORKERS`` is above 1 (OpenBLAS on one
thread and at least two CPUs, the rule the split kernel pass follows) the
tasks run in that many forked worker processes, whose own passes stay on
one thread, and their records come back in task order: the records are
those of the serial run, bit for bit, outside ``wall_time_s``. See
``run_experiment`` for when a sweep stays in this process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import linear
from .classifier import TrainConfig, predict, predict_proba, train
from .data import (ClassPrior, Dataset, TransitionMatrix, empirical_prior,
                   float_field, int_field, symmetric_noise)
from .linear import LinearFitConfig, fit
from .noise import (DEFAULT_ANCHOR_PERCENTILE, GammaWeights,
                    clean_prior_from_noisy, estimate_transition_anchor,
                    gamma_weights)
from .rng import child_generator, child_seed
from .synth import (SCALE_HIGH, SCALE_LOW, SHIFT_RANGE, apply_location_scale,
                    flip_labels, sample_dataset, sample_gmm_spec,
                    sample_location_scale)

SCENARIOS = ("tars_beta_sweep", "tars_rho_sweep", "tars_size_sweep",
             "getars_accuracy")
Q_SOURCES = ("true", "estimated")
METHODS = ("dcic", "cic")

SOURCE_PRIOR = np.array([0.5, 0.5])
N_CLASSES = 2
DIM = 2

CSV_COLUMNS = ("scenario", "rep", "seed", "rho", "beta1", "n_source",
               "n_target", "method", "beta_error", "alpha_error", "accuracy",
               "wall_time_s")

FIT_OUTER_ITERS = 10  # a sweep fit's round cap; a pinned (d' = DIM) fit needs one
GETARS_TRAIN = dict(hidden_units=32, learning_rate=0.1, epochs=30,
                    batch_size=100, l2_coeff=1e-4)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep. Unset grids fall back to the scenario's defaults.

    q_source 'true' hands methods the generating flip-rate matrix;
    'estimated' re-estimates it per repetition from the noisy source via
    anchor points on MLP posteriors. q_override (rows of a fixed matrix)
    bypasses both: data is still generated at each grid rho, but methods
    receive the override. beta1 is the target-to-source ratio of class 1,
    so the target prior is (0.5 * beta1, 1 - 0.5 * beta1). d_prime is the
    projection width getars_accuracy fits, from 1 to the input dim DIM;
    d_prime = DIM is the identity-W arm (``linear.fit`` pins a square W).
    Every grid rho must give a valid symmetric flip matrix and every beta1
    a valid prior (0 <= beta1 <= 2), checked at construction. Grids are
    lists or tuples, and q_override a list of equal-length rows.
    """

    scenario: str
    repetitions: int = 20
    sample_sizes: tuple | None = None
    rho_grid: tuple | None = None
    beta_grid: tuple | None = None
    q_source: str = "true"
    q_override: tuple | None = None
    d_prime: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        for name in ("repetitions", "d_prime", "seed"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.q_source not in Q_SOURCES:
            raise ValueError(f"q_source must be one of {Q_SOURCES}")
        for name, entry in (("sample_sizes", int_field),
                            ("rho_grid", float_field),
                            ("beta_grid", float_field)):
            val = getattr(self, name)
            if val is not None:
                # a string would be read one character at a time
                if not isinstance(val, (list, tuple)) or len(val) == 0:
                    raise ValueError(f"{name} must be a nonempty list, "
                                     f"got {val!r}")
                object.__setattr__(self, name, tuple(
                    entry(f"{name} entry", v) for v in val))
        for n in self.sample_sizes or ():
            if n < 1:
                raise ValueError(f"sample_sizes entry {n}: need n >= 1")
        # every grid point must give a valid flip matrix and target prior,
        # or each of its repetitions would fail as a record
        for rho in self.rho_grid or ():
            try:
                symmetric_noise(N_CLASSES, rho)
            except ValueError as exc:
                raise ValueError(f"rho_grid entry {rho!r}: {exc}") from None
        for beta1 in self.beta_grid or ():
            try:
                ClassPrior([0.5 * beta1, 1.0 - 0.5 * beta1])
            except ValueError as exc:
                raise ValueError(f"beta_grid entry {beta1!r}: {exc}") from None
        q = self.q_override
        if q is not None:
            if (not isinstance(q, (list, tuple)) or not q
                    or any(not isinstance(row, (list, tuple))
                           or len(row) != len(q[0]) for row in q)):
                raise ValueError(f"q_override must be a list of rows of "
                                 f"equal length, got {q!r}")
            rows = tuple(tuple(float_field("q_override entry", v) for v in row)
                         for row in q)
            TransitionMatrix(np.asarray(rows))  # validate early
            object.__setattr__(self, "q_override", rows)
        if not 1 <= self.d_prime <= DIM:
            raise ValueError(f"d_prime must lie in 1..{DIM}, the input dim")


def scenario_defaults(scenario: str):
    """(sample_sizes, rho_grid, beta_grid) defaults per scenario."""
    betas_full = tuple(round(0.2 * k, 1) for k in range(1, 10))
    rhos_full = (0.0, 0.1, 0.2, 0.3, 0.4)
    if scenario == "tars_beta_sweep":
        return (500,), (0.4,), betas_full
    if scenario == "tars_rho_sweep":
        return (500,), rhos_full, (1.4,)
    if scenario == "tars_size_sweep":
        return (200, 500, 1000, 2000), (0.4,), (1.4,)
    if scenario == "getars_accuracy":
        return (500,), rhos_full, (1.4, 1.6, 1.8)
    raise ValueError(f"unknown scenario {scenario!r}")


def resolved_grids(config: ExperimentConfig):
    sizes, rhos, betas = scenario_defaults(config.scenario)
    return (config.sample_sizes or sizes, config.rho_grid or rhos,
            config.beta_grid or betas)


@dataclass
class MetricRecord:
    scenario: str
    rep: int
    seed: int
    rho: float
    beta1: float
    n_source: int
    n_target: int
    method: str
    beta_error: float
    alpha_error: float
    accuracy: float | None
    wall_time_s: float
    alpha: list | None = None
    ratio_prior: list | None = None  # denominator prior behind beta_est
    beta_star: list | None = None
    target_prior: list | None = None
    stop_reason: str | None = None      # LinearFitResult.stop_reason
    w: list | None = None               # fitted projection, rows = input dims
    objective_trace: list | None = None
    error: str | None = None


def estimate_q_mlp(features: np.ndarray, noisy_labels: np.ndarray,
                   n_classes: int, seed: int,
                   percentile: float = DEFAULT_ANCHOR_PERCENTILE
                   ) -> TransitionMatrix:
    """Flip-rate estimate from noisy data alone: fit the classifier with
    plain unweighted cross entropy (so the head approximates noisy-label
    posteriors), then read anchor rows at the given percentile."""
    identity = TransitionMatrix(np.eye(n_classes))
    flat = GammaWeights(np.ones(n_classes))
    model = train(features, noisy_labels, identity, flat,
                  TrainConfig(seed=seed, **GETARS_TRAIN))
    return estimate_transition_anchor(predict_proba(model, features), percentile)


def _method_q(config: ExperimentConfig, noisy: Dataset, seed: int,
              q_true: TransitionMatrix) -> TransitionMatrix:
    """The flip-rate matrix handed to the noise-corrected method."""
    if config.q_override is not None:
        return TransitionMatrix(np.asarray(config.q_override))
    if config.q_source == "estimated":
        return estimate_q_mlp(noisy.features, noisy.labels, N_CLASSES,
                              seed=child_seed(seed, 4))
    return q_true


def _beta_metrics(alpha_hat: np.ndarray, q_used: TransitionMatrix,
                  noisy_prior: ClassPrior, target_prior: ClassPrior):
    """(beta_error, alpha_error, ratio_prior, beta_star). The ratio prior
    is the method's own clean-source-prior estimate: inverting the flip
    rates it believes in (the identity, for the baseline)."""
    ratio_prior = clean_prior_from_noisy(noisy_prior, q_used)
    beta_est = alpha_hat / ratio_prior.p
    beta_star = target_prior.p / SOURCE_PRIOR
    beta_error = float(np.linalg.norm(beta_est - beta_star)
                       / np.linalg.norm(beta_star))
    alpha_error = float(np.abs(alpha_hat - target_prior.p).sum())
    return beta_error, alpha_error, ratio_prior, beta_star


def _failed_record(scenario, rep, seed, rho, beta1, n, method, msg,
                   with_accuracy):
    return MetricRecord(scenario, rep, seed, rho, beta1, n, n, method,
                        float("nan"), float("nan"),
                        float("nan") if with_accuracy else None,
                        0.0, error=msg)


def _rep_data(config: ExperimentConfig, n: int, rho: float, beta1: float,
              seed: int):
    """One repetition's data from its child streams, in the order of the
    module docstring: (noisy source, target, target prior, true flip rates,
    noisy-label prior). Every scenario draws the same source and clean
    target; only getars_accuracy moves the target by the stream-4
    location-scale draw."""
    q_true = symmetric_noise(N_CLASSES, rho)
    spec = sample_gmm_spec(N_CLASSES, DIM, child_generator(seed, 0))
    clean = sample_dataset(spec.with_priors(ClassPrior(SOURCE_PRIOR)), n,
                           child_generator(seed, 1))
    noisy = flip_labels(clean, q_true, child_generator(seed, 2))
    target_prior = ClassPrior([0.5 * beta1, 1.0 - 0.5 * beta1])
    target = sample_dataset(spec.with_priors(target_prior), n,
                            child_generator(seed, 3))
    if config.scenario == "getars_accuracy":
        shift = sample_location_scale(N_CLASSES, DIM, child_generator(seed, 4))
        target = apply_location_scale(target, shift)
    noisy_prior = empirical_prior(noisy.labels, N_CLASSES)
    return noisy, target, target_prior, q_true, noisy_prior


def _fit_arm(config: ExperimentConfig, noisy: Dataset, target: Dataset,
             q_used: TransitionMatrix, noisy_prior: ClassPrior, seed: int):
    """(fit result, accuracy) of the method that q_used stands for (the
    noise-ignorant arm's is the identity). Prior recovery fits at
    d_prime = DIM, which pins W = I, and scores no accuracy;
    getars_accuracy fits at config.d_prime, trains the downstream
    classifier on the projected noisy source and scores it on the
    projected target."""
    getars = config.scenario == "getars_accuracy"
    res = fit(LinearFitConfig(d_prime=config.d_prime if getars else DIM,
                              max_outer_iters=FIT_OUTER_ITERS,
                              seed=child_seed(seed, 5)), noisy, target, q_used)
    if not getars:
        return res, None
    s_proj = noisy.features @ res.w.w
    t_proj = target.features @ res.w.w
    gamma = gamma_weights(res.alpha.p, q_used, noisy_prior)
    model = train(s_proj, noisy.labels, q_used, gamma,
                  TrainConfig(seed=child_seed(seed, 6), **GETARS_TRAIN))
    return res, float(np.mean(predict(model, t_proj) == target.labels))


def _run_arm(task: tuple) -> MetricRecord:
    """The record of one task (config, n, rho, beta1, rep, seed, method):
    one method on one repetition. Only the noise-corrected arm reads (and,
    for q_source 'estimated', estimates) the flip rates. A failure tags the
    record instead of raising: a failed data generation tags both arms of
    the repetition, a failed estimate only 'dcic'."""
    config, n, rho, beta1, rep, seed, method = task
    scen = config.scenario
    try:
        noisy, target, target_prior, q_true, noisy_prior = _rep_data(
            config, n, rho, beta1, seed)
        if method == "dcic":
            q_used = _method_q(config, noisy, seed, q_true)
        else:
            q_used = TransitionMatrix(np.eye(N_CLASSES))
        t0 = time.perf_counter()
        res, accuracy = _fit_arm(config, noisy, target, q_used, noisy_prior,
                                 seed)
        b_err, a_err, ratio_prior, beta_star = _beta_metrics(
            res.alpha.p, q_used, noisy_prior, target_prior)
    except Exception as exc:
        return _failed_record(scen, rep, seed, rho, beta1, n, method, str(exc),
                              scen == "getars_accuracy")
    return MetricRecord(
        scen, rep, seed, rho, beta1, n, n, method, b_err, a_err, accuracy,
        time.perf_counter() - t0, alpha=res.alpha.p.tolist(),
        ratio_prior=ratio_prior.p.tolist(), beta_star=beta_star.tolist(),
        target_prior=target_prior.p.tolist(), stop_reason=res.stop_reason,
        w=res.w.w.tolist(), objective_trace=list(res.objective_trace))


def _init_worker() -> None:
    # keep the worker's kernel passes inline: processes x threads stays
    # within the CPUs that set the worker count
    linear._WORKERS = 1


def run_experiment(config: ExperimentConfig) -> list:
    """Every cell x repetition x method of the sweep, in grid order ('dcic'
    before 'cic' within a repetition).

    With ``linear._WORKERS`` > 1 the (cell, rep, method) tasks run in a pool
    of that many forked processes (no more than there are tasks), shut down
    before this returns. Fork, not spawn: a spawned worker re-imports numpy
    and the package, and a spawned pool of two took about 330 ms to start
    and stop against 13 ms forked (2-CPU Xeon), more than a serial GeTarS
    repetition at n = 500 takes. The sweep runs in this process, one task
    at a time, without ``os.fork``, while another thread runs (a fork
    copies no other thread, and a lock one holds would stay held in the
    child), or when ``fit`` is wrapped with ``functools.wraps``
    (perfbench's tracer, whose spans a child would keep to itself).
    """
    sizes, rhos, betas = resolved_grids(config)
    tasks = [(config, n, float(rho), float(beta1), rep,
              child_seed(config.seed, si, ri, bi, rep), method)
             for si, n in enumerate(sizes)
             for ri, rho in enumerate(rhos)
             for bi, beta1 in enumerate(betas)
             for rep in range(config.repetitions)
             for method in METHODS]
    workers = min(linear._WORKERS, len(tasks))
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1 or hasattr(fit, "__wrapped__")):
        return [_run_arm(task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_init_worker) as pool:
        return list(pool.map(_run_arm, tasks))


def _json_safe(obj):
    """``obj`` with every non-finite float replaced by None, so it dumps as
    RFC 8259 JSON (null) rather than bare NaN / Infinity tokens."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def emit_results(records: list, path: str, config: ExperimentConfig) -> None:
    """CSV with the fixed column order, plus a JSON sidecar at <path>.json
    holding the config and the full records (including per-record priors
    and any error tags). The CSV writes a failed record's metrics as
    ``nan``; the sidecar is strict JSON and writes them as null."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow([
                    r.scenario, r.rep, r.seed, repr(float(r.rho)),
                    repr(float(r.beta1)), r.n_source, r.n_target, r.method,
                    repr(float(r.beta_error)), repr(float(r.alpha_error)),
                    "" if r.accuracy is None else repr(float(r.accuracy)),
                    repr(float(r.wall_time_s)),
                ])
        sidecar = {
            "config": asdict(config),
            "location_scale_law": {"shift_range": SHIFT_RANGE,
                                   "scale_low": SCALE_LOW,
                                   "scale_high": SCALE_HIGH},
            "records": [asdict(r) for r in records],
        }
        with open(path + ".json", "w") as fh:
            json.dump(_json_safe(sidecar), fh, indent=1, allow_nan=False)
    except OSError as exc:
        raise OSError(f"writing results to {path!r} failed: {exc}") from exc
