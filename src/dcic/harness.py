"""Experiment harness: seeded sweeps over (sample size, flip rate, class
ratio) cells, with the noise-corrected method and the noise-ignorant
baseline run side by side on identical data.

Every cell x repetition derives its own integer seed from the root seed by
spawn keys, so results are independent of execution order. Within one
repetition the child streams are, in order: 0 mixture spec, 1 source
sample, 2 label flips, 3 target sample, 4 location-scale draw (and the
flip-rate estimation seed), 5 fit seed, 6 classifier seed. Records carry
the derived seed, the fitted prior, and the priors used for the ratio, so
every reported number is recomputable. An ``ExperimentConfig`` fills in
its scenario's defaults when it is built, so the config a sidecar records
is the sweep that ran, and ``ExperimentConfig(**sidecar["config"])``
runs it again.

A sweep is a list of tasks, one per (cell, repetition, arm) in grid order,
each regenerating its repetition's data from the seed, so a task needs
nothing from another. When ``_WORKERS`` is above 1 (OpenBLAS on one thread
and at least two CPUs) the tasks run in that many ``os.fork``ed workers,
each sending its records back through one pipe, and they are put back in
task order: the records are those of the serial run, bit for bit, outside
``wall_time_s``. See ``run_experiment`` for the split, the failure and
cleanup rules, and when a sweep stays in this process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import sys
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

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

# scenario -> default (sample_sizes, rho_grid, beta_grid)
SCENARIOS = {
    "tars_beta_sweep": ((500,), (0.4,),
                        (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)),
    "tars_rho_sweep": ((500,), (0.0, 0.1, 0.2, 0.3, 0.4), (1.4,)),
    "tars_size_sweep": ((200, 500, 1000, 2000), (0.4,), (1.4,)),
    "getars_accuracy": ((500,), (0.0, 0.1, 0.2, 0.3, 0.4), (1.4, 1.6, 1.8)),
}
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


def _worker_count() -> int:
    """2 when the process may use two or more CPUs and OpenBLAS runs on one
    thread, else 1. Only OpenBLAS's variables are read, in its order, and
    like OpenBLAS a value that is not a positive integer is skipped. Beside
    a multi-threaded BLAS the forked workers' BLAS threads would contend
    for the same CPUs.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return min(2, cpus) if threads == 1 else 1
    return 1


_WORKERS = _worker_count()  # forked workers of a sweep


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep, resolved at construction: a grid left None takes the
    scenario's default from SCENARIOS, then the checks of a given grid,
    and d_prime None takes 1 on getars_accuracy and DIM on the tars
    scenarios, so the fields are the sweep that runs.

    q_source 'true' hands methods the generating flip-rate matrix;
    'estimated' re-estimates it per repetition from the noisy source via
    anchor points on MLP posteriors. q_override (rows of a fixed matrix)
    bypasses the true rates: data is still generated at each grid rho, but
    methods receive the override; beside 'estimated' it is refused. beta1
    is the target-to-source ratio of class 1, so the target prior is
    (0.5 * beta1, 1 - 0.5 * beta1). d_prime is the projection width, from
    1 to the input dim DIM; d_prime = DIM pins W = I (``linear.fit`` pins a
    square W), and the tars scenarios, which recover priors at W = I,
    refuse any other. Every grid rho must give a valid symmetric flip
    matrix and every beta1 a valid prior (0 <= beta1 <= 2). Grids are
    lists or tuples, and q_override a list of N_CLASSES rows of N_CLASSES
    entries.
    """

    scenario: str
    repetitions: int = 20
    sample_sizes: tuple | None = None
    rho_grid: tuple | None = None
    beta_grid: tuple | None = None
    q_source: str = "true"
    q_override: tuple | None = None
    d_prime: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {tuple(SCENARIOS)}")
        tars = self.scenario != "getars_accuracy"
        if self.d_prime is None:
            object.__setattr__(self, "d_prime", DIM if tars else 1)
        for name in ("repetitions", "d_prime", "seed"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        # prior recovery pins W = I, so no other width would run
        if tars and self.d_prime != DIM:
            raise ValueError(f"{self.scenario} fits at d_prime = {DIM} (W "
                             f"pinned to I), got d_prime {self.d_prime}")
        if not 1 <= self.d_prime <= DIM:
            raise ValueError(f"d_prime must lie in 1..{DIM}, the input dim")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.q_source not in Q_SOURCES:
            raise ValueError(f"q_source must be one of {Q_SOURCES}")
        if self.q_source == "estimated" and self.q_override is not None:
            raise ValueError("q_source 'estimated' with a q_override: the "
                             "override would run, and no flip rates be "
                             "estimated")
        for name, entry, default in zip(
                ("sample_sizes", "rho_grid", "beta_grid"),
                (int_field, float_field, float_field),
                SCENARIOS[self.scenario]):
            val = default if getattr(self, name) is None else getattr(self, name)
            # a string would be read one character at a time
            if not isinstance(val, (list, tuple)) or len(val) == 0:
                raise ValueError(f"{name} must be a nonempty list, got {val!r}")
            object.__setattr__(self, name, tuple(
                entry(f"{name} entry", v) for v in val))
        for n in self.sample_sizes:
            if n < 1:
                raise ValueError(f"sample_sizes entry {n}: need n >= 1")
        # every grid point must give a valid flip matrix and target prior,
        # or each of its repetitions would fail as a record
        for rho in self.rho_grid:
            try:
                symmetric_noise(N_CLASSES, rho)
            except ValueError as exc:
                raise ValueError(f"rho_grid entry {rho!r}: {exc}") from None
        for beta1 in self.beta_grid:
            try:
                _target_prior(beta1)
            except ValueError as exc:
                raise ValueError(f"beta_grid entry {beta1!r}: {exc}") from None
        q = self.q_override
        if q is not None:
            # the harness's data has N_CLASSES classes; any other shape
            # would fail every dcic record of the sweep
            if (not isinstance(q, (list, tuple)) or len(q) != N_CLASSES
                    or any(not isinstance(row, (list, tuple))
                           or len(row) != N_CLASSES for row in q)):
                raise ValueError(f"q_override must be a list of rows making "
                                 f"a {N_CLASSES} x {N_CLASSES} matrix, "
                                 f"got {q!r}")
            rows = tuple(tuple(float_field("q_override entry", v) for v in row)
                         for row in q)
            TransitionMatrix(np.asarray(rows))  # validate early
            object.__setattr__(self, "q_override", rows)


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


def _target_prior(beta1: float) -> ClassPrior:
    """The target prior whose class-1 ratio to SOURCE_PRIOR is beta1."""
    return ClassPrior([0.5 * beta1, 1.0 - 0.5 * beta1])


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
    target_prior = _target_prior(beta1)
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
    noise-ignorant arm's is the identity), fitted at config.d_prime.
    Prior recovery (d_prime = DIM, W = I) scores no accuracy;
    getars_accuracy trains the downstream classifier on the projected
    noisy source and scores it on the projected target."""
    res = fit(LinearFitConfig(d_prime=config.d_prime,
                              max_outer_iters=FIT_OUTER_ITERS,
                              seed=child_seed(seed, 5)), noisy, target, q_used)
    if config.scenario != "getars_accuracy":
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
    nan = float("nan")
    out = dict(beta_error=nan, alpha_error=nan, wall_time_s=0.0,
               accuracy=nan if config.scenario == "getars_accuracy" else None)
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
        out = dict(
            beta_error=b_err, alpha_error=a_err, accuracy=accuracy,
            wall_time_s=time.perf_counter() - t0, alpha=res.alpha.p.tolist(),
            ratio_prior=ratio_prior.p.tolist(), beta_star=beta_star.tolist(),
            target_prior=target_prior.p.tolist(), stop_reason=res.stop_reason,
            w=res.w.w.tolist(), objective_trace=list(res.objective_trace))
    except Exception as exc:
        out["error"] = str(exc)
    return MetricRecord(config.scenario, rep, seed, rho, beta1, n, n, method,
                        **out)


def run_experiment(config: ExperimentConfig) -> list:
    """Every cell x repetition x method of the sweep, in grid order ('dcic'
    before 'cic' within a repetition).

    With ``_WORKERS`` > 1 the (cell, rep, method) tasks run in W =
    ``_WORKERS`` ``os.fork``ed workers (no more than there are tasks);
    fork, not spawn, since a spawned worker would import numpy and the
    package again. Worker w takes tasks w, 2W-1-w, 2W+w, ... (snake
    order), so no worker takes every arm of one method (the 'dcic' arm of
    an estimated-flip-rate sweep also trains a classifier). It pickles the
    list of its records to its own pipe and leaves by ``os._exit``; this
    process reads each pipe to EOF, reaps the worker with ``waitpid`` and
    puts the records back in task order. A worker that exits non-zero,
    dies by a signal or sends a cut-short payload raises RuntimeError. On
    any exception in this process, KeyboardInterrupt included, the workers
    not yet reaped are killed and reaped before it propagates.

    The sweep runs in this process, one task at a time, without
    ``os.fork``, while another thread runs (a fork copies no other thread,
    and a lock one holds would stay held in the child), or when ``fit`` is
    wrapped with ``functools.wraps`` (perfbench's tracer, whose spans a
    child would keep to itself).
    """
    tasks = [(config, n, rho, beta1, rep,
              child_seed(config.seed, si, ri, bi, rep), method)
             for si, n in enumerate(config.sample_sizes)
             for ri, rho in enumerate(config.rho_grid)
             for bi, beta1 in enumerate(config.beta_grid)
             for rep in range(config.repetitions)
             for method in METHODS]
    workers = min(_WORKERS, len(tasks))
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1 or hasattr(fit, "__wrapped__")):
        return [_run_arm(task) for task in tasks]
    return _run_forked(tasks, workers)


def _run_forked(tasks: list, workers: int) -> list:
    """The records of ``tasks`` from ``workers`` forked children, in task
    order, by the protocol of ``run_experiment``."""
    period = 2 * workers
    shares = [[i for i in range(len(tasks))
               if min(i % period, period - 1 - i % period) == w]
              for w in range(workers)]
    children = []  # [pid, read end of its pipe]; pid None once reaped
    sys.stdout.flush()  # else a child's exit-time flush repeats the buffer
    sys.stderr.flush()
    try:
        for share in shares:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    with open(wfd, "wb") as out:
                        pickle.dump([_run_arm(tasks[i]) for i in share], out,
                                    pickle.HIGHEST_PROTOCOL)
                    sys.stdout.flush()  # os._exit flushes no buffer
                    code = 0
                except Exception:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append([pid, open(rfd, "rb")])
        records = [None] * len(tasks)
        for w, (share, child) in enumerate(zip(shares, children)):
            pid, pipe = child
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            name = f"sweep worker {w} (pid {pid})"
            if status != 0:
                raise RuntimeError(
                    f"{name} was killed by signal {-status}" if status < 0
                    else f"{name} exited with status {status}")
            try:
                got = pickle.loads(payload)
            except (pickle.UnpicklingError, EOFError) as exc:
                raise RuntimeError(f"{name} sent a cut-short payload of "
                                   f"{len(payload)} bytes: {exc}") from None
            for i, record in zip(share, got):
                records[i] = record
        return records
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                import signal  # only this path needs it (a 0.6 ms import)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
    and any error tags). A CSV cell holds a float's ``repr`` (so a failed
    record's metrics read ``nan``), nothing for None (``csv`` writes None
    as an empty field) and any other value as it is; the sidecar is strict
    JSON and writes non-finite floats as null."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                cells = (getattr(r, col) for col in CSV_COLUMNS)
                writer.writerow([repr(float(v)) if isinstance(v, float) else v
                                 for v in cells])
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
