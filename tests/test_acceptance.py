"""Acceptance gate: the statistical and structural guarantees the package
is built around, checked end to end at fixed seeds and tolerances.

Each test prints one summary line (PASS/FAIL, the measured number, and the
gate) straight to the terminal so a full run reads as a scoreboard. The
heavy sweeps are shared across tests through module-scoped fixtures.
"""

import copy
import time
from dataclasses import asdict

import numpy as np
import pytest

from conftest import (central_difference, gaussian_kernel, joint_loss,
                      relative_grad_error)
from dcic.classifier import (TrainConfig, batch_loss_grads, init_model,
                             predict, train)
from dcic.data import (ClassPrior, Dataset, TransitionMatrix,
                       empirical_prior, symmetric_noise)
from dcic.harness import ExperimentConfig, run_experiment
from dcic.joint import JointConfig
from dcic.kernels import median_bandwidth
from dcic.linear import LinearFitConfig, _MmdProblem, fit
from dcic.noise import (GammaWeights, build_g_matrix,
                        estimate_transition_anchor)
from dcic.rng import as_generator, child_generator, child_seed
from dcic.synth import GmmSpec, flip_labels, sample_dataset

TRUE_PRIOR_T = np.array([0.7, 0.3])


def _announce(capsys, label: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}")


def _separated_spec(target=False):
    """Two well-separated unit-covariance components; the class embeddings
    are linearly independent, which the recovery guarantee presumes."""
    means = np.array([[-1.0, 0.0], [1.0, 0.0]])
    covs = np.array([np.eye(2), np.eye(2)])
    prior = TRUE_PRIOR_T if target else np.array([0.5, 0.5])
    return GmmSpec(means, covs, ClassPrior(prior))


def _no_bias(deviations):
    """(mean, standard error, ok) for estimate-minus-truth deviations over
    independent seeds; ok when |mean| <= 3 SE, with SE = sd / sqrt(count).
    A zero SE therefore passes only a zero mean."""
    dev = np.asarray(deviations, dtype=np.float64)
    mean = float(dev.mean())
    se = float(dev.std(ddof=1) / np.sqrt(dev.size))
    return mean, se, abs(mean) <= 3.0 * se


# ---------------------------------------------------------------------------
# shared sweeps (module scope: computed once, reused by later criteria)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prior_recovery_fits():
    """Heavy-noise prior recovery at m = n = 5000, identity projection,
    20 seeds. Returns (results, l1_errors, elapsed).

    The prior-recovery gate reads the fitted target priors for bias; the
    L1 errors are reported next to it. At this size and rho = 0.4 the
    realized flip counts, which the estimator cannot observe, move each
    denoised class embedding by 5 * delta / m (Q^-1 = [[3, -2], [-2, 3]]),
    so the expected mean L1 error is about 0.065-0.069 for any set of
    seeds: it is variance, not bias."""
    q = symmetric_noise(2, 0.4)
    spec_s, spec_t = _separated_spec(), _separated_spec(target=True)
    cfg = LinearFitConfig(d_prime=2)
    results, errs = [], []
    t0 = time.perf_counter()
    for rep in range(20):
        seed = child_seed(0, 30, rep)
        clean = sample_dataset(spec_s, 5000, child_generator(seed, 1))
        noisy = flip_labels(clean, q, child_generator(seed, 2))
        target = Dataset(sample_dataset(spec_t, 5000,
                                        child_generator(seed, 3)).features)
        res = fit(cfg, noisy, target, q)
        results.append(res)
        errs.append(float(np.abs(res.alpha.p - TRUE_PRIOR_T).sum()))
    return results, np.asarray(errs), time.perf_counter() - t0


@pytest.fixture(scope="module")
def dominance_records():
    """Noise-corrected vs noise-ignorant prior error at heavy noise,
    4 ratio points, 20 reps, m = n = 3200."""
    cfg = ExperimentConfig(scenario="tars_beta_sweep", repetitions=20,
                           sample_sizes=(3200,), rho_grid=(0.4,),
                           beta_grid=(0.4, 0.6, 1.4, 1.6), seed=0)
    t0 = time.perf_counter()
    records = run_experiment(cfg)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def low_noise_records():
    """The same pair of methods where flipping is absent or mild."""
    cfg = ExperimentConfig(scenario="tars_rho_sweep", repetitions=20,
                           sample_sizes=(500,), rho_grid=(0.0, 0.1),
                           beta_grid=(1.4,), seed=0)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def size_trend_records():
    cfg = ExperimentConfig(scenario="tars_size_sweep", repetitions=20,
                           sample_sizes=(200, 800, 3200), rho_grid=(0.4,),
                           beta_grid=(1.4,), seed=0)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def accuracy_records():
    """Full pipeline with per-class location-scale change, n = 500."""
    cfg = ExperimentConfig(scenario="getars_accuracy", repetitions=20,
                           sample_sizes=(500,), rho_grid=(0.2, 0.3, 0.4),
                           beta_grid=(1.4, 1.6, 1.8), seed=0)
    t0 = time.perf_counter()
    records = run_experiment(cfg)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def anchor_estimate():
    """Flip-rate estimate from analytically exact noisy posteriors of a
    separable mixture under heavy symmetric noise."""
    rng = as_generator(90)
    q = symmetric_noise(2, 0.4)
    means = np.array([-2.0, 2.0])
    labels = rng.integers(1, 3, size=5000)
    x = rng.standard_normal(5000) + means[labels - 1]
    dens = np.stack([np.exp(-0.5 * (x - means[0]) ** 2),
                     np.exp(-0.5 * (x - means[1]) ** 2)], axis=1)
    clean_post = dens / dens.sum(axis=1, keepdims=True)
    q_hat = estimate_transition_anchor(clean_post @ q.q)
    return q_hat, q


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class TestObjectiveReparametrization:
    def test_class_block_form_equals_per_sample_form(self, capsys):
        # 100 random instances: the class-block objective must equal a
        # fully independent scalar-kernel, per-sample-weight evaluation
        rng = np.random.default_rng(2024)
        worst = 0.0
        t0 = time.perf_counter()
        for _ in range(100):
            m, n = int(rng.integers(2, 21)), int(rng.integers(2, 21))
            c, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            d_p = int(rng.integers(1, d + 1))
            feats_s = rng.standard_normal((m, d))
            feats_t = rng.standard_normal((n, d))
            labels = np.concatenate([np.arange(1, c + 1),
                                     rng.integers(1, c + 1, size=m - c)]) \
                if m >= c else rng.integers(1, c + 1, size=m)
            q_mat = np.eye(c) * 0.7 + np.full((c, c), 0.3 / c)
            prior = rng.uniform(0.2, 1.0, size=c)
            prior /= prior.sum()
            alpha = rng.uniform(0.0, 1.0, size=c)
            alpha /= alpha.sum()
            w = rng.standard_normal((d, d_p))
            sigma = median_bandwidth(np.vstack([feats_s, feats_t]))
            g = build_g_matrix(TransitionMatrix(q_mat), ClassPrior(prior))
            got = _MmdProblem(feats_s, labels, feats_t, g, sigma).eval(
                w, alpha)

            # oracle: per-sample weights and a triple loop over scalar kernels
            rows = np.linalg.inv(q_mat) / prior[None, :]
            v = (rows @ alpha)[labels - 1]
            sp, tp = feats_s @ w, feats_t @ w
            ss = sum(v[i] * v[j] * gaussian_kernel(sp[i], sp[j], sigma)
                     for i in range(m) for j in range(m)) / (m * m)
            ts = sum(v[j] * gaussian_kernel(tp[i], sp[j], sigma)
                     for i in range(n) for j in range(m)) / (m * n)
            tt = sum(gaussian_kernel(tp[i], tp[j], sigma)
                     for i in range(n) for j in range(n)) / (n * n)
            want = ss - 2.0 * ts + tt
            rel = abs(got - want) / max(abs(got), abs(want), 1e-30)
            worst = max(worst, rel)
        ok = worst <= 1e-12
        _announce(capsys, "objective-reparametrization", ok,
                  f"max rel diff {worst:.2e} over 100 instances "
                  f"(tol 1e-12, {time.perf_counter() - t0:.1f}s)")
        assert ok


class TestGradientSuite:
    def test_all_analytic_gradients_match_finite_differences(self, capsys):
        rng = np.random.default_rng(77)
        t0 = time.perf_counter()
        worst = {"projection": 0.0, "classifier": 0.0, "joint": 0.0}

        for _ in range(50):  # projection-matrix gradient
            m, n = int(rng.integers(4, 11)), int(rng.integers(3, 9))
            d = int(rng.integers(2, 5))
            labels = np.concatenate([[1, 2], rng.integers(1, 3, size=m - 2)])
            source = Dataset(rng.standard_normal((m, d)), labels, 2)
            target = Dataset(rng.standard_normal((n, d)))
            g = build_g_matrix(symmetric_noise(2, 0.2),
                               ClassPrior(np.array([0.5, 0.5])))
            alpha = rng.uniform(0.1, 1.0, size=2)
            alpha /= alpha.sum()
            sigma = 0.8 + rng.uniform(0.0, 1.0)
            w0 = rng.standard_normal((d, int(rng.integers(1, d + 1))))
            prob = _MmdProblem(source.features, labels, target.features, g,
                               sigma)
            analytic = prob.grad(w0, alpha)
            numeric = central_difference(lambda w: prob.eval(w, alpha), w0)
            worst["projection"] = max(worst["projection"],
                                      relative_grad_error(analytic, numeric))

        names = ("hidden_w", "hidden_b", "out_w", "out_b")
        for _ in range(50):  # corrected classifier loss
            d, h = int(rng.integers(2, 5)), int(rng.integers(3, 6))
            bsz = int(rng.integers(3, 8))
            model = init_model(d, h, 2, rng)
            x = rng.standard_normal((bsz, d))
            # central differences are invalid within the probe step of the
            # rectifier kink; redraw the rare instance that lands on one
            while np.abs(x @ model.hidden_w + model.hidden_b).min() < 1e-4:
                model = init_model(d, h, 2, rng)
                x = rng.standard_normal((bsz, d))
            labels = rng.integers(1, 3, size=bsz)
            q = symmetric_noise(2, float(rng.uniform(0.05, 0.45)))
            gam = GammaWeights(rng.uniform(0.5, 1.5, size=2))
            _, grads = batch_loss_grads(model, x, labels, q, gam)
            for name in names:
                def f_of(p, name=name):
                    probe = copy.deepcopy(model)
                    setattr(probe, name, p)
                    return batch_loss_grads(probe, x, labels, q, gam)[0]
                numeric = central_difference(f_of, getattr(model, name))
                worst["classifier"] = max(
                    worst["classifier"],
                    relative_grad_error(getattr(grads, name), numeric))

        for _ in range(50):  # joint objective
            d, h = int(rng.integers(2, 4)), int(rng.integers(3, 5))
            bs, bt = 2 * int(rng.integers(2, 4)), int(rng.integers(3, 6))
            model = init_model(d, h, 2, rng)
            feats_s = rng.standard_normal((bs, d))
            feats_t = rng.standard_normal((bt, d))
            while np.abs(np.vstack([feats_s, feats_t]) @ model.hidden_w
                         + model.hidden_b).min() < 1e-4:
                model = init_model(d, h, 2, rng)
                feats_s = rng.standard_normal((bs, d))
                feats_t = rng.standard_normal((bt, d))
            # balanced labels keep the batch's implied clean prior interior
            labels = rng.permutation(np.repeat([1, 2], bs // 2))
            source = Dataset(feats_s, labels, 2)
            target = Dataset(feats_t)
            q = symmetric_noise(2, 0.25)
            cfg = JointConfig(pi1=float(rng.uniform(0.2, 2.0)),
                              l2_coeff=float(rng.uniform(0.0, 0.05)))
            alpha = rng.uniform(0.1, 1.0, size=2)
            alpha /= alpha.sum()
            noisy_prior = empirical_prior(labels, 2)
            _, grads = joint_loss(model, source, target, q, alpha, cfg,
                                  sigma=1.2, noisy_prior=noisy_prior)
            for name in names:
                def f_of(p, name=name):
                    probe = copy.deepcopy(model)
                    setattr(probe, name, p)
                    return joint_loss(probe, source, target, q, alpha, cfg,
                                      sigma=1.2, noisy_prior=noisy_prior)[0]
                numeric = central_difference(f_of, getattr(model, name))
                worst["joint"] = max(
                    worst["joint"],
                    relative_grad_error(getattr(grads, name), numeric))

        peak = max(worst.values())
        ok = peak <= 1e-4
        _announce(capsys, "gradient-suite", ok,
                  f"max rel err projection {worst['projection']:.2e} "
                  f"classifier {worst['classifier']:.2e} "
                  f"joint {worst['joint']:.2e} "
                  f"(tol 1e-4, {time.perf_counter() - t0:.1f}s)")
        assert ok


class TestPriorRecovery:
    """Claim (2) of the paper: the noise-corrected estimator recovers the
    target label distribution with no bias. The gate asserts exactly that:
    the mean of alpha_1 - 0.7 over the 20 seeds lies within 3 standard
    errors of 0. The mean L1 error is printed but not gated, since its
    level is set by the flip-count variance at this sample size, which
    neither the method nor the paper bounds."""

    def test_heavy_noise_prior_recovery(self, prior_recovery_fits, capsys):
        results, errs, elapsed = prior_recovery_fits
        dev = np.array([r.alpha.p[0] for r in results]) - TRUE_PRIOR_T[0]
        bias, se, ok = _no_bias(dev)
        t_stat = bias / se if se > 0 else np.copysign(np.inf, bias)
        _announce(capsys, "prior-recovery", ok,
                  f"mean alpha_1 bias {bias:+.4f} (SE {se:.4f}, "
                  f"t {t_stat:+.2f}, |t| <= 3) over 20 seeds; "
                  f"mean L1 {errs.mean():.4f}, sd {dev.std(ddof=1):.4f} "
                  f"({elapsed:.0f}s)")
        assert ok

    def test_no_bias_check_rejects_constant_offset(self):
        # the noise-ignorant estimator returns alpha = (1, 0) on every seed
        # of the gate's data: zero spread must not excuse a non-zero mean
        assert not _no_bias(np.full(20, 1.0 - TRUE_PRIOR_T[0]))[2]
        assert _no_bias(np.zeros(20))[2]


class TestCorrectionDominance:
    def test_corrected_beats_ignorant_under_heavy_noise(
            self, dominance_records, capsys):
        records, elapsed = dominance_records
        assert all(r.error is None for r in records)
        margins = {}
        for beta1 in (0.4, 0.6, 1.4, 1.6):
            cell = [r for r in records if r.beta1 == beta1]
            mean = {m: np.mean([r.beta_error for r in cell if r.method == m])
                    for m in ("dcic", "cic")}
            margins[beta1] = float(mean["cic"] - mean["dcic"])
        ok = all(v > 0 for v in margins.values())
        pretty = " ".join(f"b{k}:{v:+.3f}" for k, v in margins.items())
        _announce(capsys, "correction-dominance", ok,
                  f"corrected-minus-ignorant error margins {pretty} "
                  f"(all must favor correction, {elapsed:.0f}s)")
        assert ok

    def test_methods_close_when_noise_mild(self, low_noise_records, capsys):
        records = low_noise_records
        assert all(r.error is None for r in records)
        gaps = {}
        for rho in (0.0, 0.1):
            cell = [r for r in records if r.rho == rho]
            mean = {m: np.mean([r.beta_error for r in cell if r.method == m])
                    for m in ("dcic", "cic")}
            gaps[rho] = float(abs(mean["dcic"] - mean["cic"]))
        ok = all(v <= 0.05 for v in gaps.values())
        pretty = " ".join(f"rho{k}:{v:.4f}" for k, v in gaps.items())
        _announce(capsys, "mild-noise-closeness", ok,
                  f"mean error gaps {pretty} (tol 0.05)")
        assert ok

    def test_noise_free_cell_gives_both_arms_one_fit(self, low_noise_records,
                                                     capsys):
        # at rho = 0 both arms receive the identity Q, so the closeness gap
        # there is 0 by construction; what the cell can test is that the
        # two arms' records agree in every field but the arm and its time
        skip = {"method", "wall_time_s"}
        pairs = {}
        for rec in low_noise_records:
            if rec.rho == 0.0:
                pairs.setdefault(rec.rep, {})[rec.method] = {
                    k: v for k, v in asdict(rec).items() if k not in skip}
        differ = [rep for rep, arms in pairs.items()
                  if arms["dcic"] != arms["cic"]]
        ok = len(pairs) == 20 and not differ
        _announce(capsys, "noise-free-cell", ok,
                  f"{len(pairs) - len(differ)}/{len(pairs)} reps with equal "
                  f"dcic and cic records at rho 0")
        assert ok


class TestSampleSizeTrend:
    def test_error_non_increasing_in_sample_size(self, size_trend_records,
                                                 capsys):
        records = size_trend_records
        assert all(r.error is None for r in records)
        medians = []
        for n in (200, 800, 3200):
            cell = [r.beta_error for r in records
                    if r.n_source == n and r.method == "dcic"]
            medians.append(float(np.median(cell)))
        ok = all(b <= a for a, b in zip(medians, medians[1:]))
        _announce(capsys, "sample-size-trend", ok,
                  "median corrected error by n "
                  + " -> ".join(f"{v:.4f}" for v in medians)
                  + " (must be non-increasing)")
        assert ok


class TestDownstreamAccuracy:
    def test_corrected_pipeline_dominates_on_target(self, accuracy_records,
                                                    capsys):
        records, elapsed = accuracy_records
        assert all(r.error is None for r in records)
        margins, context = {}, {}
        for rho in (0.2, 0.3, 0.4):
            cell = [r for r in records if r.rho == rho]
            mean = {m: np.mean([r.accuracy for r in cell if r.method == m])
                    for m in ("dcic", "cic")}
            margins[rho] = float(mean["dcic"] - mean["cic"])
            # context for the verdict: the majority-class predictor's
            # accuracy and the paired standard error of the margin
            acc = {m: {(r.beta1, r.rep): r.accuracy for r in cell
                       if r.method == m} for m in ("dcic", "cic")}
            diffs = np.array([acc["dcic"][k] - acc["cic"][k]
                              for k in acc["dcic"]])
            majority = np.mean([max(r.target_prior) for r in cell
                                if r.method == "dcic"])
            context[rho] = (f"dcic {mean['dcic']:.3f} cic {mean['cic']:.3f} "
                            f"majority {majority:.3f} "
                            f"SE {diffs.std(ddof=1) / np.sqrt(diffs.size):.3f}")
        ok = all(v >= 0 for v in margins.values()) and margins[0.4] > 0
        pretty = " ".join(f"rho{k}:{v:+.4f} ({context[k]})"
                          for k, v in margins.items())
        _announce(capsys, "downstream-accuracy", ok,
                  f"mean accuracy margins {pretty} "
                  f"(>= 0 everywhere, strict at 0.4, {elapsed:.0f}s)")
        assert ok


class TestForwardCorrectionEfficacy:
    def test_corrected_model_matches_clean_twin(self, capsys):
        # same architecture, budget, and seeds; only the labels and the
        # loss correction differ
        means = np.array([[-2.0, 0.0], [2.0, 0.0]])
        spec = GmmSpec(means, np.array([np.eye(2), np.eye(2)]),
                       ClassPrior(np.array([0.5, 0.5])))
        q = symmetric_noise(2, 0.3)
        identity = TransitionMatrix(np.eye(2))
        flat = GammaWeights(np.ones(2))
        t0 = time.perf_counter()
        gaps = []
        for rep in range(10):
            seed = child_seed(0, 70, rep)
            clean = sample_dataset(spec, 2000, child_generator(seed, 1))
            noisy = flip_labels(clean, q, child_generator(seed, 2))
            test = sample_dataset(spec, 2000, child_generator(seed, 3))
            cfg = TrainConfig(seed=child_seed(seed, 4))
            corrected = train(noisy.features, noisy.labels, q, flat, cfg)
            twin = train(clean.features, clean.labels, identity, flat, cfg)
            acc_c = np.mean(predict(corrected, test.features) == test.labels)
            acc_t = np.mean(predict(twin, test.features) == test.labels)
            gaps.append(float(acc_t - acc_c))
        gap = float(np.median(gaps))
        ok = gap <= 0.03
        _announce(capsys, "forward-correction", ok,
                  f"median accuracy deficit vs clean twin {gap:+.4f} "
                  f"(tol 0.03, {time.perf_counter() - t0:.0f}s)")
        assert ok


class TestStructuralInvariants:
    def test_all_fits_structurally_sound(self, prior_recovery_fits,
                                         dominance_records, low_noise_records,
                                         size_trend_records, accuracy_records,
                                         capsys):
        fits = [(r.w.w, r.alpha.p, np.asarray(r.objective_trace))
                for r in prior_recovery_fits[0]]
        for rec in (dominance_records[0] + low_noise_records
                    + size_trend_records + accuracy_records[0]):
            assert rec.error is None
            fits.append((np.asarray(rec.w), np.asarray(rec.alpha),
                         np.asarray(rec.objective_trace)))
        violations = 0
        for w, alpha, trace in fits:
            eye = np.eye(w.shape[1])
            if np.linalg.norm(w.T @ w - eye) > 1e-8:
                violations += 1
            if alpha.min() < -1e-9 or abs(alpha.sum() - 1.0) > 1e-9:
                violations += 1
            if np.any(np.diff(trace) > 1e-10):
                violations += 1
        ok = violations == 0
        _announce(capsys, "structural-invariants", ok,
                  f"{violations} violations across {len(fits)} fits "
                  "(orthonormal projection, simplex prior, monotone trace)")
        assert ok


class TestFlipRateEstimation:
    def test_anchor_estimate_accurate(self, anchor_estimate, capsys):
        q_hat, q_true = anchor_estimate
        err = float(np.abs(q_hat.q - q_true.q).max())
        ok = err <= 0.05
        _announce(capsys, "flip-rate-estimation", ok,
                  f"max abs entry error {err:.2e} (tol 0.05)")
        assert ok

    def test_estimated_rates_preserve_prior_recovery(self, anchor_estimate,
                                                     dominance_records,
                                                     capsys):
        q_hat, _ = anchor_estimate
        true_records, _ = dominance_records
        base = float(np.mean([r.beta_error for r in true_records
                              if r.method == "dcic"]))
        cfg = ExperimentConfig(
            scenario="tars_beta_sweep", repetitions=20, sample_sizes=(3200,),
            rho_grid=(0.4,), beta_grid=(0.4, 0.6, 1.4, 1.6), seed=0,
            q_override=tuple(tuple(row) for row in q_hat.q))
        t0 = time.perf_counter()
        records = run_experiment(cfg)
        assert all(r.error is None for r in records)
        swapped = float(np.mean([r.beta_error for r in records
                                 if r.method == "dcic"]))
        degradation = swapped - base
        ok = degradation <= 0.05
        _announce(capsys, "estimated-rates-downstream", ok,
                  f"mean corrected error {base:.4f} -> {swapped:.4f} "
                  f"(degradation {degradation:+.4f}, tol 0.05, "
                  f"{time.perf_counter() - t0:.0f}s)")
        assert ok
