import json

import numpy as np
import pytest

from conftest import central_difference, dense_grad_w, random_prior, relative_grad_error
import dcic.linear as linear_mod
from dcic.data import ClassPrior, Dataset, TransitionMatrix, empirical_prior, symmetric_noise
from dcic.kernels import build_gram, median_bandwidth, weighted_mmd_sq
from dcic.linear import (GrassmannState, LinearFitConfig, LinearFitResult,
                         _MmdProblem, alpha_qp_terms, euclidean_grad_w, fit,
                         grassmann_step, objective, project_simplex,
                         qr_retract, solve_alpha_qp)
from dcic.noise import build_g_matrix
from dcic.synth import flip_labels, sample_dataset, sample_gmm_spec


def _toy_problem(rng, m=12, n=9, d=3, rho=0.2):
    """Small labeled source / unlabeled target pair with a binary G."""
    feats_s = rng.standard_normal((m, d))
    labels = rng.integers(1, 3, size=m)
    labels[:2] = [1, 2]
    source = Dataset(feats_s, labels, "noisy", 2)
    target = Dataset(rng.standard_normal((n, d)))
    q = symmetric_noise(2, rho)
    g = build_g_matrix(q, ClassPrior(np.array([0.5, 0.5])), labels)
    sigma = median_bandwidth(np.vstack([feats_s, target.features]))
    return source, target, g, sigma


class TestObjective:
    def test_zero_when_source_equals_target(self, rng):
        # identity flip rates and alpha = empirical prior give unit weights,
        # so the weighted source mean equals the target mean exactly
        feats = rng.standard_normal((10, 2))
        labels = rng.integers(1, 3, size=10)
        labels[:2] = [1, 2]
        source = Dataset(feats, labels, "noisy", 2)
        target = Dataset(feats)
        prior = empirical_prior(labels, 2)
        g = build_g_matrix(TransitionMatrix(np.eye(2)), prior, labels)
        val = objective(np.eye(2), prior.p, source, target, g, 1.0)
        assert abs(val) <= 1e-10

    def test_matches_gram_quadratic_form(self, rng):
        # the class-block evaluation must agree with the literal weighted
        # MMD on explicitly projected Gram matrices
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        alpha = random_prior(rng, 2).p
        grams = build_gram(source.features @ w, target.features @ w, sigma)
        want = weighted_mmd_sq(grams, g.weights(alpha))
        got = objective(w, alpha, source, target, g, sigma)
        assert got == pytest.approx(want, abs=1e-12)

    def test_scale_invariance(self, rng):
        # multiplying features and sigma by the same factor is a no-op
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        alpha = random_prior(rng, 2).p
        base = objective(w, alpha, source, target, g, sigma)
        c = 3.7
        s2 = Dataset(source.features * c, source.labels, "noisy", 2)
        t2 = Dataset(target.features * c)
        scaled = objective(w, alpha, s2, t2, g, sigma * c)
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_accepts_projection_and_prior_types(self, rng):
        from dcic.data import Projection
        source, target, g, sigma = _toy_problem(rng)
        w = qr_retract(rng.standard_normal((3, 2)))
        alpha = random_prior(rng, 2)
        a = objective(Projection(w), alpha, source, target, g, sigma)
        b = objective(w, alpha.p, source, target, g, sigma)
        assert a == b


class TestAlphaQpTerms:
    def test_consistent_with_objective(self, rng):
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        a, b = alpha_qp_terms(w, source, target, g, sigma)
        const = objective(w, np.zeros(2), source, target, g, sigma)
        for _ in range(10):
            alpha = random_prior(rng, 2).p
            want = objective(w, alpha, source, target, g, sigma)
            got = float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)
            assert got == pytest.approx(want, abs=1e-12)

    def test_a_symmetric_psd(self, rng):
        source, target, g, sigma = _toy_problem(rng, m=20)
        a, _ = alpha_qp_terms(np.eye(3), source, target, g, sigma)
        assert np.array_equal(a, a.T)
        assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_psd_with_duplicated_rows(self, rng):
        feats = rng.standard_normal((6, 2))
        feats = np.vstack([feats, feats])
        labels = np.tile(np.array([1, 2, 1, 2, 1, 2]), 2)
        source = Dataset(feats, labels, "noisy", 2)
        target = Dataset(rng.standard_normal((5, 2)))
        g = build_g_matrix(symmetric_noise(2, 0.3),
                           ClassPrior(np.array([0.5, 0.5])), labels)
        a, _ = alpha_qp_terms(np.eye(2), source, target, g, 1.0)
        assert np.linalg.eigvalsh(a).min() >= -1e-10


class TestChunkedTerms:
    """The chunked pass (one reused buffer, upper block-triangle of the
    self-Grams) against the dense Gram oracle, with ragged last chunks."""

    @pytest.mark.parametrize("m, n", [(23, 17), (17, 23)])
    @pytest.mark.parametrize("chunk", [1, 3, 7, "m", "m+5"])
    def test_matches_dense_oracle(self, rng, m, n, chunk):
        source, target, g, sigma = _toy_problem(rng, m=m, n=n)
        chunk = {"m": m, "m+5": m + 5}.get(chunk, chunk)
        w = rng.standard_normal((3, 2))
        a, b, const = _MmdProblem(source.features, target.features, g, sigma,
                                  chunk_size=chunk).terms(w)
        assert np.array_equal(a, a.T)
        grams = build_gram(source.features @ w, target.features @ w, sigma)
        gg = g.g
        want_a = gg.T @ grams.k_ss @ gg / (m * m)
        want_b = (grams.k_ts @ gg).sum(axis=0) / (m * n)
        want_const = grams.k_tt.sum() / (n * n)
        assert np.abs(a - want_a).max() <= 1e-12 * np.abs(want_a).max()
        assert np.abs(b - want_b).max() <= 1e-12 * np.abs(want_b).max()
        assert abs(const - want_const) <= 1e-12 * want_const
        for _ in range(5):
            alpha = random_prior(rng, 2).p
            want = weighted_mmd_sq(grams, g.weights(alpha))
            got = float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)
            assert got == pytest.approx(want, rel=1e-12)


class TestEngineGradient:
    """``_MmdProblem.grad`` contracts the per-row sums of one chunked pass;
    checked against the dense scatter-matrix oracle."""

    @pytest.mark.parametrize("d_out", [1, 2])
    @pytest.mark.parametrize("m, n", [(23, 17), (17, 23)])
    @pytest.mark.parametrize("chunk", [1, 3, 7, "m", "m+5"])
    def test_matches_dense_oracle(self, rng, m, n, chunk, d_out):
        source, target, g, sigma = _toy_problem(rng, m=m, n=n)
        chunk = {"m": m, "m+5": m + 5}.get(chunk, chunk)
        w = rng.standard_normal((3, d_out))
        alpha = random_prior(rng, 2).p
        got = _MmdProblem(source.features, target.features, g, sigma,
                          chunk_size=chunk).grad(w, alpha)
        want = dense_grad_w(w, alpha, source, target, g, sigma)
        assert got.shape == (3, d_out)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_second_alpha_from_cached_pass(self, rng):
        source, target, g, sigma = _toy_problem(rng, m=23, n=17)
        w = rng.standard_normal((3, 2))
        a1, a2 = random_prior(rng, 2).p, random_prior(rng, 2).p
        prob = _MmdProblem(source.features, target.features, g, sigma, chunk_size=7)
        prob.grad(w, a1)
        reused = prob.grad(w, a2)
        fresh = _MmdProblem(source.features, target.features, g, sigma,
                            chunk_size=7).grad(w, a2)
        assert np.array_equal(reused, fresh)

    def test_wrapper_is_the_engine(self, rng):
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        alpha = random_prior(rng, 2).p
        prob = _MmdProblem(source.features, target.features, g, sigma)
        assert np.array_equal(euclidean_grad_w(w, alpha, source, target, g, sigma),
                              prob.grad(w, alpha))

    def test_needs_explicit_w(self, rng):
        source, target, g, sigma = _toy_problem(rng)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        with pytest.raises(ValueError):
            prob.grad(None, np.array([0.5, 0.5]))


class TestPassCache:
    """The pass is cached on W's value, not on the array object."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = linear_mod.gaussian_gram

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linear_mod, "gaussian_gram", counting)
        return calls

    def test_equal_copy_hits_and_other_w_recomputes(self, rng, monkeypatch):
        source, target, g, sigma = _toy_problem(rng)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        calls = self._counted(monkeypatch)
        w = rng.standard_normal((3, 2))
        first = prob.terms(w)
        per_pass = len(calls)
        assert per_pass > 0
        assert prob.terms(w.copy()) is first
        prob.grad(w.copy(), np.array([0.4, 0.6]))
        assert len(calls) == per_pass
        prob.terms(w + 1e-3)
        assert len(calls) == 2 * per_pass
        prob.terms(None)
        assert len(calls) == 3 * per_pass
        prob.terms(None)
        assert len(calls) == 3 * per_pass

    def test_in_place_change_of_w_recomputes(self, rng, monkeypatch):
        # the cache holds its own copy, so mutating the caller's array
        # after a pass cannot return stale sums
        source, target, g, sigma = _toy_problem(rng)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        w = rng.standard_normal((3, 2))
        before = prob.terms(w)
        w *= 1.5
        after = prob.terms(w)
        fresh = _MmdProblem(source.features, target.features, g, sigma).terms(w)
        assert after is not before
        for x, y in zip(after, fresh):
            assert np.array_equal(x, y)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(v), v, atol=1e-15)

    def test_hand_examples(self):
        assert np.allclose(project_simplex(np.array([2.0, -1.0])), [1.0, 0.0])
        assert np.allclose(project_simplex(np.array([0.4, 0.1])), [0.65, 0.35])

    def test_output_feasible(self, rng):
        for _ in range(50):
            out = project_simplex(rng.standard_normal(5) * 3)
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_is_nearest_point(self, rng):
        # no random simplex point may be closer than the projection
        for _ in range(20):
            v = rng.standard_normal(4) * 2
            p = project_simplex(v)
            d_p = ((v - p) ** 2).sum()
            for _ in range(30):
                z = random_prior(rng, 4).p
                assert d_p <= ((v - z) ** 2).sum() + 1e-12


class TestSolveAlphaQp:
    def test_interior_solution(self):
        out = solve_alpha_qp(np.eye(2), np.array([0.6, 0.4]))
        assert np.abs(out.p - [0.6, 0.4]).max() <= 1e-7

    def test_vertex_solution(self):
        out = solve_alpha_qp(np.eye(2), np.array([2.0, -1.0]))
        assert np.abs(out.p - [1.0, 0.0]).max() <= 1e-7

    def test_flat_objective_returns_uniform(self):
        out = solve_alpha_qp(np.zeros((3, 3)), np.zeros(3))
        assert np.allclose(out.p, 1.0 / 3.0, atol=1e-12)

    def test_single_class(self):
        out = solve_alpha_qp(np.array([[2.0]]), np.array([0.3]))
        assert out.p[0] == 1.0

    def test_kkt_residual_random_psd(self, rng):
        for _ in range(10):
            c = int(rng.integers(2, 6))
            m = rng.standard_normal((c, c))
            a = m @ m.T
            b = rng.standard_normal(c)
            x = solve_alpha_qp(a, b).p
            grad = 2.0 * (a @ x - b)
            residual = np.abs(x - project_simplex(x - grad)).max()
            assert residual <= 1e-7

    def test_warm_start_never_worse(self, rng):
        m = rng.standard_normal((3, 3))
        a = m @ m.T
        b = rng.standard_normal(3)
        start = np.array([1.0, 0.0, 0.0])
        out = solve_alpha_qp(a, b, start=start).p
        fval = lambda z: float(z @ a @ z - 2.0 * (b @ z))
        assert fval(out) <= fval(start) + 1e-12

    def test_restart_from_optimum_is_stable(self, rng):
        m = rng.standard_normal((4, 4))
        a = m @ m.T
        b = rng.standard_normal(4)
        first = solve_alpha_qp(a, b).p
        again = solve_alpha_qp(a, b, start=first).p
        fval = lambda z: float(z @ a @ z - 2.0 * (b @ z))
        assert fval(again) <= fval(first) + 1e-12

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(ValueError):
            solve_alpha_qp(a, np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_alpha_qp(np.eye(3), np.zeros(2))


class TestEuclideanGradW:
    def test_matches_finite_differences(self, rng):
        source, target, g, sigma = _toy_problem(rng, m=8, n=6)
        alpha = random_prior(rng, 2).p
        w0 = rng.standard_normal((3, 2)) * 0.5
        analytic = euclidean_grad_w(w0, alpha, source, target, g, sigma)
        numeric = central_difference(
            lambda w: objective(w, alpha, source, target, g, sigma), w0)
        assert relative_grad_error(analytic, numeric) <= 1e-5

    def test_zero_at_matched_distributions(self, rng):
        # source == target with unit weights: objective identically zero
        # in W, so the gradient vanishes
        feats = rng.standard_normal((10, 3))
        labels = rng.integers(1, 3, size=10)
        labels[:2] = [1, 2]
        source = Dataset(feats, labels, "noisy", 2)
        target = Dataset(feats)
        prior = empirical_prior(labels, 2)
        g = build_g_matrix(TransitionMatrix(np.eye(2)), prior, labels)
        grad = euclidean_grad_w(np.eye(3), prior.p, source, target, g, 1.0)
        assert np.abs(grad).max() <= 1e-8

    def test_duplication_invariance(self, rng):
        # doubling every source row (weights repeat) leaves the gradient
        # unchanged: sums scale by 4, the 1/m^2 factor by 1/4
        source, target, g, sigma = _toy_problem(rng, m=8, n=6)
        alpha = random_prior(rng, 2).p
        w0 = rng.standard_normal((3, 2))
        base = euclidean_grad_w(w0, alpha, source, target, g, sigma)
        feats2 = np.vstack([source.features, source.features])
        labels2 = np.concatenate([source.labels, source.labels])
        source2 = Dataset(feats2, labels2, "noisy", 2)
        g2 = build_g_matrix(symmetric_noise(2, 0.2),
                            ClassPrior(np.array([0.5, 0.5])), labels2)
        dup = euclidean_grad_w(w0, alpha, source2, target, g2, sigma)
        assert np.abs(dup - base).max() <= 1e-10


class TestQrRetract:
    def test_orthonormal_columns(self, rng):
        for _ in range(10):
            w = qr_retract(rng.standard_normal((5, 2)))
            assert np.abs(w.T @ w - np.eye(2)).max() <= 1e-12

    def test_idempotent_on_own_output(self, rng):
        w = qr_retract(rng.standard_normal((4, 2)))
        assert np.abs(qr_retract(w) - w).max() <= 1e-12

    def test_column_scaling_invariant(self, rng):
        # positive column rescaling must not change the retracted frame
        m = rng.standard_normal((5, 2))
        assert np.abs(qr_retract(m) - qr_retract(m * [2.0, 0.5])).max() <= 1e-12


class TestGrassmannStep:
    @staticmethod
    def _quadratic(rng, d=5, k=2):
        t = rng.standard_normal((d, k))
        fn = lambda m: float(((m - t) ** 2).sum())
        grad = lambda m: 2.0 * (m - t)
        return fn, grad

    def test_zero_gradient_returns_unchanged(self, rng):
        fn, _ = self._quadratic(rng)
        w0 = qr_retract(rng.standard_normal((5, 2)))
        state = GrassmannState(objective_fn=fn)
        proj, state = grassmann_step(w0, np.zeros((5, 2)), state)
        assert np.array_equal(proj.w, w0)
        assert not state.stalled

    def test_descent_step(self, rng):
        fn, grad = self._quadratic(rng)
        w0 = qr_retract(rng.standard_normal((5, 2)))
        f0 = fn(w0)
        state = GrassmannState(objective_fn=fn)
        proj, state = grassmann_step(w0, grad(w0), state)
        assert not state.stalled
        assert state.f_current < f0
        assert np.abs(proj.w.T @ proj.w - np.eye(2)).max() <= 1e-8

    def test_monotone_over_many_steps(self, rng):
        fn, grad = self._quadratic(rng)
        w = qr_retract(rng.standard_normal((5, 2)))
        state = GrassmannState(objective_fn=fn)
        values = [fn(w)]
        for _ in range(5):
            proj, state = grassmann_step(w, grad(w), state)
            if state.stalled:
                break
            w = proj.w
            values.append(state.f_current)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_stall_flag_on_unimprovable_objective(self, rng):
        # objective pinned above the current value: every Armijo trial
        # fails and the step must report the stall without moving W
        w0 = qr_retract(rng.standard_normal((4, 2)))
        state = GrassmannState(objective_fn=lambda m: 1.0, f_current=0.0)
        proj, state = grassmann_step(w0, np.ones((4, 2)), state)
        assert state.stalled
        assert np.array_equal(proj.w, w0)
        assert state.f_current == 0.0


class TestFitConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=0)
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=1, max_outer_iters=0)
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=1, mode="bogus")
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=1, chunk_size=0)
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=1, alpha_tol=0.0)


class TestFit:
    @staticmethod
    def _shifted_pair(seed, m=300, n=300, rho=0.2,
                      target_prior=(0.7, 0.3)):
        # fixed well-separated component layout; only priors differ
        from dcic.synth import GmmSpec
        means = np.array([[-1.0, 0.0], [1.0, 0.0]])
        covs = np.array([np.eye(2), np.eye(2)])
        spec_s = GmmSpec(means, covs, ClassPrior(np.array([0.5, 0.5])))
        spec_t = spec_s.with_priors(ClassPrior(np.array(target_prior)))
        clean = sample_dataset(spec_s, m, seed=seed)
        q = symmetric_noise(2, rho)
        source = flip_labels(clean, q, seed=seed + 1)
        target = Dataset(sample_dataset(spec_t, n, seed=seed + 2).features)
        return source, target, q

    def test_identity_noise_matches_baseline_bitwise(self):
        source, target, q0 = self._shifted_pair(seed=5, rho=0.0)
        cfg_d = LinearFitConfig(d_prime=1, max_outer_iters=4, seed=3)
        cfg_c = LinearFitConfig(d_prime=1, max_outer_iters=4, seed=3,
                                mode="cic_baseline")
        res_d = fit(cfg_d, source, target, TransitionMatrix(np.eye(2)))
        res_c = fit(cfg_c, source, target, q0)
        assert np.array_equal(res_d.alpha.p, res_c.alpha.p)
        assert np.array_equal(res_d.w.w, res_c.w.w)
        assert np.array_equal(res_d.objective_trace, res_c.objective_trace)

    def test_fixed_w_mode_pins_identity(self):
        source, target, q = self._shifted_pair(seed=7)
        cfg = LinearFitConfig(d_prime=1, mode="tars_fixed_w")
        res = fit(cfg, source, target, q)
        assert np.array_equal(res.w.w, np.eye(2))

    def test_trace_monotone_and_alpha_feasible(self):
        source, target, q = self._shifted_pair(seed=11)
        cfg = LinearFitConfig(d_prime=1, max_outer_iters=6, seed=2)
        res = fit(cfg, source, target, q)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)
        assert res.alpha.p.min() >= -1e-9
        assert res.alpha.p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(res.w.w.T @ res.w.w - np.eye(1)).max() <= 1e-8

    def test_deterministic(self):
        source, target, q = self._shifted_pair(seed=13)
        cfg = LinearFitConfig(d_prime=1, max_outer_iters=3, seed=4)
        a = fit(cfg, source, target, q)
        b = fit(cfg, source, target, q)
        assert np.array_equal(a.alpha.p, b.alpha.p)
        assert np.array_equal(a.w.w, b.w.w)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_recovers_shifted_prior(self):
        # separated components, mild noise: the fixed-W estimate lands
        # near the true target prior
        source, target, q = self._shifted_pair(seed=17, m=800, n=800)
        cfg = LinearFitConfig(d_prime=2, mode="tars_fixed_w")
        res = fit(cfg, source, target, q)
        assert np.abs(res.alpha.p - [0.7, 0.3]).sum() <= 0.2

    def test_error_shrinks_with_sample_size(self):
        # median prior-estimation error over seeds must not grow from
        # m = 300 to m = 3000
        errs = {300: [], 3000: []}
        cfg = LinearFitConfig(d_prime=2, mode="tars_fixed_w")
        for m, out in errs.items():
            for seed in range(5):
                source, target, q = self._shifted_pair(
                    seed=100 * seed + 19, m=m, n=m, rho=0.3)
                res = fit(cfg, source, target, q)
                out.append(np.abs(res.alpha.p - [0.7, 0.3]).sum())
        assert np.median(errs[3000]) <= np.median(errs[300])

    def test_json_roundtrip(self):
        source, target, q = self._shifted_pair(seed=23)
        cfg = LinearFitConfig(d_prime=1, max_outer_iters=2, seed=1)
        res = fit(cfg, source, target, q)
        blob = json.loads(res.to_json())
        assert np.allclose(blob["alpha"], res.alpha.p, atol=0)
        assert np.allclose(blob["w"], res.w.w, atol=0)
        assert blob["config"]["mode"] == "dcic"
        assert LinearFitConfig(**blob["config"]) == cfg

    def test_input_validation(self):
        source, target, q = self._shifted_pair(seed=29, m=40, n=40)
        with pytest.raises(ValueError):
            fit(LinearFitConfig(d_prime=3), source, target, q)
        with pytest.raises(ValueError):
            fit(LinearFitConfig(d_prime=1), target, target, q)  # unlabeled
        bad_target = Dataset(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            fit(LinearFitConfig(d_prime=1), source, bad_target, q)
        with pytest.raises(ValueError):
            fit(LinearFitConfig(d_prime=1), source, target,
                TransitionMatrix(np.eye(3)))
