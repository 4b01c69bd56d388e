import importlib.util
import json
import os
import threading

import numpy as np
import pytest

from conftest import (batch_mmd_hidden, brute_force_weighted_mmd, build_gram,
                      central_difference, dense_grad_w, expand_weights,
                      random_prior, relative_grad_error)
import dcic.kernels as kernels_mod
import dcic.linear as linear_mod
from dcic.data import (ClassPrior, Dataset, Projection, TransitionMatrix,
                       empirical_prior, symmetric_noise)
from dcic.kernels import median_bandwidth
from dcic.linear import (GrassmannState, LinearFitConfig, LinearFitResult,
                         _MmdProblem, fit, grassmann_step, project_simplex,
                         qr_retract, solve_alpha_qp)
from dcic.noise import build_g_matrix
from dcic.synth import flip_labels, sample_dataset, sample_gmm_spec

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def _count_low_rank(monkeypatch):
    """The list that records each call of the low-rank producer, whether a
    pass enters it for per-row sums (``chebyshev_sums``) or, with W = None,
    for the class sums alone (``chebyshev_totals``)."""
    calls = []

    def counting(real):
        def call(*args):
            calls.append(1)
            return real(*args)
        return call

    for name in ("chebyshev_sums", "chebyshev_totals"):
        monkeypatch.setattr(kernels_mod, name,
                            counting(getattr(kernels_mod, name)))
    return calls


def _force_direct(monkeypatch):
    """Every pass takes the direct blocks: with no Chebyshev point allowed
    per axis, ``kernels.chebyshev_axes`` refuses every pass. Returns the
    list of low-rank calls, which should stay empty."""
    monkeypatch.setattr(kernels_mod, "MAX_NODES", 0)
    return _count_low_rank(monkeypatch)


@pytest.fixture
def direct_pass(monkeypatch):
    """``_force_direct``, for the tests that pin the direct pass's machinery
    (chunks, buffer, operands); each asserts the returned list is empty."""
    return _force_direct(monkeypatch)


def _problem(source, target, g, sigma):
    """The kernel engine ``fit`` runs, on the pair's raw features."""
    return _MmdProblem(source.features, target.features, g, sigma)


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
        val = _problem(source, target, g, 1.0).eval(np.eye(2), prior.p)
        assert abs(val) <= 1e-10

    def test_matches_gram_quadratic_form(self, rng):
        # the class-block evaluation must agree with the literal weighted
        # MMD on explicitly projected Gram matrices
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        alpha = random_prior(rng, 2).p
        grams = build_gram(source.features @ w, target.features @ w, sigma)
        want = brute_force_weighted_mmd(grams.k_ss, grams.k_tt, grams.k_ts,
                                        expand_weights(g, alpha))
        got = _problem(source, target, g, sigma).eval(w, alpha)
        assert got == pytest.approx(want, abs=1e-12)

    def test_scale_invariance(self, rng):
        # multiplying features and sigma by the same factor is a no-op
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        alpha = random_prior(rng, 2).p
        base = _problem(source, target, g, sigma).eval(w, alpha)
        c = 3.7
        s2 = Dataset(source.features * c, source.labels, "noisy", 2)
        t2 = Dataset(target.features * c)
        scaled = _problem(s2, t2, g, sigma * c).eval(w, alpha)
        assert scaled == pytest.approx(base, rel=1e-10)


def _qp_terms(w, source, target, g, sigma):
    """The engine's alpha-quadratic (A, b) at fixed W."""
    a, b, _ = _MmdProblem(source.features, target.features, g, sigma).terms(w)
    return a, b


class TestAlphaQpTerms:
    def test_consistent_with_objective(self, rng):
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        a, b = _qp_terms(w, source, target, g, sigma)
        prob = _problem(source, target, g, sigma)
        const = prob.eval(w, np.zeros(2))
        for _ in range(10):
            alpha = random_prior(rng, 2).p
            want = prob.eval(w, alpha)
            got = float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)
            assert got == pytest.approx(want, abs=1e-12)

    def test_a_symmetric_psd(self, rng):
        source, target, g, sigma = _toy_problem(rng, m=20)
        a, _ = _qp_terms(np.eye(3), source, target, g, sigma)
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
        a, _ = _qp_terms(np.eye(2), source, target, g, 1.0)
        assert np.linalg.eigvalsh(a).min() >= -1e-10


class TestChunkedTerms:
    """The chunked pass (one reused buffer, upper block-triangle of the
    self-Grams) against the dense Gram oracle, with ragged last chunks."""

    # ids chunk-m-n for a 3 x 2 W, with -w-none for the pass at W = None
    @pytest.mark.parametrize("chunk, m, n, w_free", [
        pytest.param(chunk, m, n, w_free,
                     id=f"{chunk}-{m}-{n}" + ("-w-none" if w_free else ""))
        for w_free in (False, True) for chunk in (1, 3, 7, "m", "m+5")
        for m, n in ((23, 17), (17, 23))])
    def test_matches_dense_oracle(self, rng, monkeypatch, direct_pass, chunk,
                                  m, n, w_free):
        source, target, g, sigma = _toy_problem(rng, m=m, n=n)
        monkeypatch.setattr(kernels_mod, "DEFAULT_CHUNK",
                            {"m": m, "m+5": m + 5}.get(chunk, chunk))
        w = None if w_free else rng.standard_normal((3, 2))
        a, b, const = _MmdProblem(source.features, target.features, g,
                                  sigma).terms(w)
        assert np.array_equal(a, a.T)
        sp, tp = ((source.features, target.features) if w_free
                  else (source.features @ w, target.features @ w))
        grams = build_gram(sp, tp, sigma)
        gg = g.class_rows[g.labels - 1]
        want_a = gg.T @ grams.k_ss @ gg / (m * m)
        want_b = (grams.k_ts @ gg).sum(axis=0) / (m * n)
        want_const = grams.k_tt.sum() / (n * n)
        assert np.abs(a - want_a).max() <= 1e-12 * np.abs(want_a).max()
        assert np.abs(b - want_b).max() <= 1e-12 * np.abs(want_b).max()
        assert abs(const - want_const) <= 1e-12 * want_const
        for _ in range(5):
            alpha = random_prior(rng, 2).p
            want = brute_force_weighted_mmd(grams.k_ss, grams.k_tt,
                                            grams.k_ts, expand_weights(g, alpha))
            got = float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)
            assert got == pytest.approx(want, rel=1e-12)
        assert direct_pass == []

    @pytest.mark.parametrize("rotate", [False, True], ids=["w-none", "w-2d"])
    def test_far_apart_clouds_keep_their_digits(self, rng, monkeypatch,
                                                direct_pass, rotate):
        # source at +3e3, target at -3e3, sigma = 1: each self-Gram must be
        # shifted by its own set's mean. A shift by the stacked mean leaves
        # both clouds 3e3 from the origin, and the product then loses about
        # six digits (A about 1e-10 off); direct differences are the truth
        m, n = 40, 30
        source, target, g, _ = _toy_problem(rng, m=m, n=n, d=2)
        s = source.features + 3e3
        t = target.features - 3e3
        w = qr_retract(rng.standard_normal((2, 2))) if rotate else None
        monkeypatch.setattr(kernels_mod, "DEFAULT_CHUNK", 16)
        a, b, const = _MmdProblem(s, t, g, 1.0).terms(w)
        sp, tp = (s, t) if w is None else (s @ w, t @ w)

        def direct(x, y):
            diff = x[:, None, :] - y[None, :, :]
            return np.exp(-0.5 * (diff * diff).sum(axis=2))

        gg = g.class_rows[g.labels - 1]
        want_a = gg.T @ direct(sp, sp) @ gg / (m * m)
        want_b = (direct(tp, sp) @ gg).sum(axis=0) / (m * n)
        want_const = direct(tp, tp).sum() / (n * n)
        assert np.abs(a - want_a).max() <= 1e-12 * np.abs(want_a).max()
        assert np.abs(b - want_b).max() <= 1e-12 * np.abs(want_b).max()
        assert abs(const - want_const) <= 1e-12 * want_const
        assert direct_pass == []


class TestPassOperands:
    """A pass builds its augmented operands once, before its first chunk: s
    and t each at its own mean, and t at s's mean for the cross rows, at
    every width, d' = 1 included, however many chunks the pass has (chunks
    of 1 row, and of 2 rows, which leave a ragged last chunk on both sides
    at m = 61, n = 47). Cache hits build none."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = kernels_mod._augmented

        def counting(x, shift, g):
            calls.append((len(x), tuple(np.broadcast_to(shift, x.shape[1]))))
            return real(x, shift, g)

        monkeypatch.setattr(kernels_mod, "_augmented", counting)
        return calls

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_each_operand_set_built_once_per_pass(self, rng, monkeypatch,
                                                  direct_pass, chunk):
        monkeypatch.setattr(kernels_mod, "DEFAULT_CHUNK", chunk)
        source, target, g, sigma = _toy_problem(rng, m=61, n=47)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        calls = self._counted(monkeypatch)
        w = qr_retract(rng.standard_normal((3, 2)))
        for key in (None, w):
            prob.terms(key)
            sp = source.features if key is None else source.features @ key
            tp = target.features if key is None else target.features @ key
            mu_s, mu_t = tuple(sp.mean(axis=0)), tuple(tp.mean(axis=0))
            assert calls == [(61, mu_s), (47, mu_t), (47, mu_s)]
            calls.clear()
            prob.terms(None if key is None else w.copy())  # cache hit
            assert calls == []
        assert direct_pass == []

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_width1_operands_built_once_per_pass(self, rng, monkeypatch,
                                                 direct_pass, chunk):
        monkeypatch.setattr(kernels_mod, "DEFAULT_CHUNK", chunk)
        source, target, g, sigma = _toy_problem(rng, m=61, n=47)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        calls = self._counted(monkeypatch)
        w1, w2 = (qr_retract(rng.standard_normal((3, 1))) for _ in range(2))
        for w in (w1, w2):
            prob.terms(w)
            mu_s = tuple((source.features @ w).mean(axis=0))
            mu_t = tuple((target.features @ w).mean(axis=0))
            assert calls == [(61, mu_s), (47, mu_t), (47, mu_s)]
            calls.clear()
            prob.terms(w.copy())  # cache hit
            assert calls == []
        assert direct_pass == []


class TestEngineGradient:
    """``_MmdProblem.grad`` contracts the per-row sums of one chunked pass;
    checked against the dense scatter-matrix oracle."""

    @pytest.mark.parametrize("d_out", [1, 2])
    @pytest.mark.parametrize("m, n", [(23, 17), (17, 23)])
    @pytest.mark.parametrize("chunk", [1, 3, 7, "m", "m+5"])
    def test_matches_dense_oracle(self, rng, monkeypatch, direct_pass, m, n,
                                  chunk, d_out):
        source, target, g, sigma = _toy_problem(rng, m=m, n=n)
        monkeypatch.setattr(kernels_mod, "DEFAULT_CHUNK",
                            {"m": m, "m+5": m + 5}.get(chunk, chunk))
        w = rng.standard_normal((3, d_out))
        alpha = random_prior(rng, 2).p
        got = _MmdProblem(source.features, target.features, g,
                          sigma).grad(w, alpha)
        want = dense_grad_w(w, alpha, source, target, g, sigma)
        assert got.shape == (3, d_out)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert direct_pass == []

    def test_second_alpha_from_cached_pass(self, rng, monkeypatch,
                                           direct_pass):
        monkeypatch.setattr(kernels_mod, "DEFAULT_CHUNK", 7)
        source, target, g, sigma = _toy_problem(rng, m=23, n=17)
        w = rng.standard_normal((3, 2))
        a1, a2 = random_prior(rng, 2).p, random_prior(rng, 2).p
        prob = _MmdProblem(source.features, target.features, g, sigma)
        prob.grad(w, a1)
        reused = prob.grad(w, a2)
        fresh = _MmdProblem(source.features, target.features, g,
                            sigma).grad(w, a2)
        assert np.array_equal(reused, fresh)
        assert direct_pass == []

    def test_needs_explicit_w(self, rng):
        source, target, g, sigma = _toy_problem(rng)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        with pytest.raises(ValueError):
            prob.grad(None, np.array([0.5, 0.5]))


class TestRowGrads:
    """``row_grads`` at an identity W is the joint model's hidden-layer
    penalty gradient; value and (dS, dT) against the dense oracle, from the
    low-rank producer at width 1 and the direct blocks at width 32, with
    batches inside one chunk and across the 128-row chunk boundary."""

    @pytest.mark.parametrize("width", [1, 32])
    @pytest.mark.parametrize("rows", [5, 100, 200])
    def test_matches_dense_hidden_oracle(self, rng, rows, width):
        # rectified rows like a hidden layer's, target shifted from source
        h_s = np.maximum(rng.standard_normal((rows, width)), 0.0)
        h_t = np.maximum(rng.standard_normal((rows, width)) + 0.5, 0.0)
        labels = rng.integers(1, 3, size=rows)
        labels[:2] = [1, 2]
        g = build_g_matrix(symmetric_noise(2, 0.3),
                           ClassPrior(np.array([0.4, 0.6])), labels)
        alpha = random_prior(rng, 2).p
        sigma = median_bandwidth(np.vstack([h_s, h_t]))
        prob = _MmdProblem(h_s, h_t, g, sigma)
        eye = np.eye(width)
        value = prob.eval(eye, alpha)
        d_s, d_t = prob.row_grads(eye, alpha)
        want_val, want_s, want_t = batch_mmd_hidden(h_s, h_t,
                                                    expand_weights(g, alpha),
                                                    sigma)
        assert abs(value - want_val) <= 1e-12 * abs(want_val)
        assert np.abs(d_s - want_s).max() <= 1e-12 * np.abs(want_s).max()
        assert np.abs(d_t - want_t).max() <= 1e-12 * np.abs(want_t).max()

    def test_grad_is_chain_rule_over_row_grads(self, rng):
        source, target, g, sigma = _toy_problem(rng)
        w = rng.standard_normal((3, 2))
        alpha = random_prior(rng, 2).p
        prob = _MmdProblem(source.features, target.features, g, sigma)
        d_s, d_t = prob.row_grads(w, alpha)
        assert d_s.shape == (12, 2) and d_t.shape == (9, 2)
        assert np.array_equal(prob.grad(w, alpha),
                              source.features.T @ d_s + target.features.T @ d_t)


class TestPassCache:
    """The pass is cached on W's value, not on the array object."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = kernels_mod.gaussian_gram

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "gaussian_gram", counting)
        return calls

    def test_equal_copy_hits_and_other_w_recomputes(self, rng, monkeypatch,
                                                    direct_pass):
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
        assert direct_pass == []

    def test_in_place_change_of_w_recomputes(self, rng, direct_pass):
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
        assert direct_pass == []

    @pytest.mark.parametrize("d_out", [1, 2])
    def test_owned_buffer_keeps_no_stale_values(self, rng, direct_pass,
                                                d_out):
        # passes at W1, W2 and W1 again on one problem (three chunks of
        # source rows, two of target rows) must each equal a fresh
        # problem's pass to the bit
        source, target, g, sigma = _toy_problem(rng, m=300, n=200)
        prob = _MmdProblem(source.features, target.features, g, sigma)
        alpha = np.array([0.3, 0.7])
        w1 = qr_retract(rng.standard_normal((3, d_out)))
        w2 = qr_retract(rng.standard_normal((3, d_out)))
        for w in (w1, w2, w1):
            got = prob.terms(w)
            got_rows = prob.row_grads(w, alpha)
            fresh = _MmdProblem(source.features, target.features, g, sigma)
            for x, y in zip(got, fresh.terms(w)):
                assert np.array_equal(x, y)
            for x, y in zip(got_rows, fresh.row_grads(w, alpha)):
                assert np.array_equal(x, y)
        assert direct_pass == []


class TestDirectPass:
    """A direct pass of any size runs on the caller's thread, in chunks of
    DEFAULT_CHUNK rows, into one buffer the pass allocates."""

    def test_large_pass_fills_one_buffer_on_one_thread(self, rng,
                                                       monkeypatch,
                                                       direct_pass):
        # about 4.5e6 kernel entries at width 3: a pass of this size once
        # took half-height chunks on two threads
        m = n = 1500
        source, target, g, sigma = _toy_problem(rng, m=m, n=n, d=4)
        w = qr_retract(rng.standard_normal((4, 3)))
        alpha = random_prior(rng, 2).p
        prob = _MmdProblem(source.features, target.features, g, sigma)
        outs, threads = [], set()
        real = kernels_mod.gaussian_gram

        def recording(*args, out, **kwargs):
            outs.append(out)
            threads.add(threading.get_ident())
            return real(*args, out=out, **kwargs)

        monkeypatch.setattr(kernels_mod, "gaussian_gram", recording)
        before = threading.active_count()
        a, b, const = prob.terms(w)
        got_grad = prob.grad(w, alpha)
        assert threads == {threading.get_ident()}
        assert threading.active_count() == before
        chunk = kernels_mod.DEFAULT_CHUNK
        buf = outs[0].base
        assert buf.shape == (chunk * max(m, n),)
        assert len(outs) == 3 * -(-m // chunk)
        assert all(out.base is buf for out in outs)
        monkeypatch.setattr(kernels_mod, "gaussian_gram", real)
        grams = build_gram(source.features @ w, target.features @ w, sigma)
        gg = g.class_rows[g.labels - 1]
        want_a = gg.T @ grams.k_ss @ gg / (m * m)
        want_b = (grams.k_ts @ gg).sum(axis=0) / (m * n)
        want_const = grams.k_tt.sum() / (n * n)
        assert np.abs(a - want_a).max() <= 1e-12 * np.abs(want_a).max()
        assert np.abs(b - want_b).max() <= 1e-12 * np.abs(want_b).max()
        assert abs(const - want_const) <= 1e-12 * want_const
        want_grad = dense_grad_w(w, alpha, source, target, g, sigma)
        assert (np.abs(got_grad - want_grad).max()
                <= 1e-11 * np.abs(want_grad).max())
        assert direct_pass == []

    def test_traced_pass_stays_on_the_callers_thread(self, rng,
                                                     direct_pass):
        # perfbench's tracer keeps one span stack for all threads: a pinned
        # fit and a d' = 1 fit it traces (through linear.fit,
        # median_bandwidth, solve_alpha_qp, grassmann_step and qr_retract)
        # give the untraced bits, and every span is closed and lies inside
        # its parent's interval
        spec = importlib.util.spec_from_file_location(
            "tracing", os.path.join(REPO, "perfbench", "tracing.py"))
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        source, target, _, _ = _toy_problem(rng, m=301, n=200)
        q = symmetric_noise(2, 0.2)
        configs = [LinearFitConfig(d_prime=3), LinearFitConfig(d_prime=1)]
        want = [fit(cfg, source, target, q) for cfg in configs]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            got = [linear_mod.fit(cfg, source, target, q) for cfg in configs]
        finally:
            tracer.uninstall()
        names = {span[0] for span in tracer.spans if span is not None}
        assert {"linear.fit", "kernels.bandwidth", "linear.qp", "linear.step",
                "linear.retract"} <= names
        assert all(span is not None for span in tracer.spans)
        for name, start, end, parent, _ in tracer.spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _, _ = tracer.spans[parent]
                assert p_start <= start and end <= p_end
        for x, y in zip(got, want, strict=True):
            assert x.to_json() == y.to_json()
        assert direct_pass == []


def _pass_columns(prob, sp, tp):
    """The pass's weight columns (P_s, P_t) at projected rows, with a W."""
    oh, n = prob.onehot, len(tp)
    p_s = np.hstack([oh, (oh[:, :, None] * sp[:, None, :]).reshape(len(sp), -1)])
    return p_s, np.hstack([np.ones((n, 1)), tp])


class TestLowRankPass:
    """A pass at width <= 2 whose axes ``kernels.chebyshev_axes`` finds
    takes the Chebyshev producer (``kernels.chebyshev_sums``) instead of
    the direct blocks; every per-row sum must then be within 1e-14 of the
    direct pass's, relative to the sum of |P| over its column, and terms,
    row gradients and W gradient follow from those sums. The low-rank side
    runs unpatched, the direct oracle under ``_force_direct``. A W-free
    low-rank pass forms no per-row sums (``kernels.chebyshev_totals``), so
    there only terms are compared."""

    @staticmethod
    def _both(monkeypatch, s, t, g, sigma, w, alpha):
        """[(low-rank calls, terms, per-row sums, gradients)] for the
        unpatched and the direct pass, in that order."""
        out = []
        for force in (_count_low_rank, _force_direct):
            calls = force(monkeypatch)
            prob = _MmdProblem(s, t, g, sigma)
            terms = prob.terms(w)
            rows = prob._rows
            grads = (() if w is None else
                     (*prob.row_grads(w, alpha), prob.grad(w, alpha)))
            out.append((len(calls), terms, rows, grads))
        return prob, out

    def _check(self, monkeypatch, s, t, g, sigma, w, low_rank=True):
        alpha = np.array([0.3, 0.7])
        prob, [(calls, terms, rows, grads), (direct_calls, want_terms,
                                             want_rows, want_grads)] = (
            self._both(monkeypatch, s, t, g, sigma, w, alpha))
        assert calls == (1 if low_rank else 0) and direct_calls == 0
        if rows is None:
            assert w is None and low_rank
        else:
            sp, tp = rows[:2]
            p_s, p_t = _pass_columns(prob, sp, tp)
            for x, y, p in zip(rows[2:], want_rows[2:], (p_s, p_s, p_t, p_t),
                               strict=True):
                assert x.shape == y.shape
                assert (np.abs(x - y) <= 1e-14 * np.abs(p).sum(axis=0)).all()
        for x, y in zip(terms, want_terms, strict=True):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()
        for x, y in zip(grads, want_grads, strict=True):
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    @pytest.mark.parametrize("block", [None, 50], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("w_free", [False, True], ids=["w", "w-none"])
    @pytest.mark.parametrize("d_out", [1, 2])
    def test_matches_direct_pass(self, rng, monkeypatch, d_out, w_free,
                                 block):
        # 50-value row blocks leave ragged last blocks in every loop
        d = d_out if w_free else 3
        source, target, g, sigma = _toy_problem(rng, m=61, n=47, d=d)
        if block is not None:
            monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", block)
        w = None if w_free else qr_retract(rng.standard_normal((d, d_out)))
        self._check(monkeypatch, source.features, target.features, g, sigma, w)

    @pytest.mark.parametrize("case", ["zero-span", "zero-span-1d", "duplicated",
                                      "on-nodes"])
    def test_edge_cases(self, rng, monkeypatch, case):
        source, target, g, sigma = _toy_problem(rng, m=40, n=30, d=2)
        s, t = source.features.copy(), target.features.copy()
        w = np.eye(2)
        if case == "zero-span":  # one axis takes one point
            s[:, 1] = t[:, 1] = 0.25
        elif case == "zero-span-1d":  # W projects every row to one value
            s[:, 1] = t[:, 1] = -0.5
            w = np.array([[0.0], [1.0]])
        elif case == "duplicated":
            s[20:], t[:20] = s[:20], s[:20]
        else:
            # rows spanning [-1, 1] exactly put Chebyshev points at values
            # that rows hold: -1, 0 and 1 at an odd count, and the others
            sigma = 0.5
            s, t = rng.uniform(-1, 1, (40, 2)), rng.uniform(-1, 1, (30, 2))
            r = kernels_mod.chebyshev_nodes(2.0 / sigma)
            nodes = kernels_mod._chebyshev_points(r)
            s[:r, 0] = nodes
            t[:r, 1] = nodes[::-1]
            s[0, 1], t[1, 1], t[0, 0] = -1.0, 1.0, 0.0
        self._check(monkeypatch, s, t, g, sigma, w)

    def test_far_outlier_takes_the_direct_path(self, rng, monkeypatch):
        source, target, g, sigma = _toy_problem(rng, m=40, n=30, d=2)
        s = source.features.copy()
        s[3] = [0.0, 1e3]
        self._check(monkeypatch, s, target.features, g, sigma, np.eye(2),
                    low_rank=False)

    def test_width_three_takes_the_direct_path(self, rng, monkeypatch):
        source, target, g, sigma = _toy_problem(rng, m=40, n=30, d=3)
        self._check(monkeypatch, source.features, target.features, g, sigma,
                    np.eye(3), low_rank=False)

    # the rows alone pick the producer, at any size: width 1 and 2 at
    # m = n = 30, at the GeTarS size (n = 500, width 1) and at the prior
    # fit's (m = n = 5000, w=None at d = 2) are low-rank; a width-3 pass
    # and one with a source row 1e3 away are direct
    @pytest.mark.parametrize("m, d, d_out, outlier, low_rank", [
        (30, 3, 1, False, True), (30, 3, 2, False, True),
        (500, 3, 1, False, True), (5000, 2, None, False, True),
        (30, 3, 3, False, False), (30, 2, 2, True, False)],
        ids=["30-w1", "30-w2", "getars-500-w1", "prior-5000-w-none",
             "30-w3", "30-outlier"])
    def test_rule_is_structural(self, rng, monkeypatch, m, d, d_out,
                                outlier, low_rank):
        source, target, g, sigma = _toy_problem(rng, m=m, n=m, d=d)
        s = source.features.copy()
        if outlier:
            s[3] = [0.0, 1e3]
        w = None if d_out is None else qr_retract(
            rng.standard_normal((d, d_out)))
        calls = _count_low_rank(monkeypatch)
        _MmdProblem(s, target.features, g, sigma).terms(w)
        assert calls == ([1] if low_rank else [])

    def test_w_free_pass_forms_no_row_sums(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-row sums formed")

        monkeypatch.setattr(kernels_mod, "_at_rows", refuse)
        source, target, g, sigma = _toy_problem(rng, m=61, n=47, d=2)
        calls = _count_low_rank(monkeypatch)
        prob = _problem(source, target, g, sigma)
        a, b, const = prob.terms(None)
        assert calls == [1] and prob._rows is None
        assert np.isfinite(a).all() and np.isfinite(b).all() and const > 0
        with pytest.raises(AssertionError, match="per-row sums"):
            prob.terms(np.eye(2))

    @pytest.mark.parametrize("d_out", [1, 2])
    def test_one_moment_set_per_row_set(self, rng, monkeypatch, d_out):
        # the target's moments serve K_tt P_t and the cross rows K_ts^T P_t:
        # a pass with a W forms P_s's and P_t's, once each
        source, target, g, sigma = _toy_problem(rng, m=61, n=47)
        columns = []
        real = kernels_mod._moments

        def counting(t1, t2, p):
            columns.append(p.shape[1])
            return real(t1, t2, p)

        monkeypatch.setattr(kernels_mod, "_moments", counting)
        calls = _count_low_rank(monkeypatch)
        w = qr_retract(rng.standard_normal((3, d_out)))
        _problem(source, target, g, sigma).terms(w)
        assert calls == [1]
        assert columns == [2 * (1 + d_out), 1 + d_out]

    def test_bit_identical_twice(self, rng):
        source, target, g, sigma = _toy_problem(rng, m=301, n=200)
        w = qr_retract(rng.standard_normal((3, 1)))
        alpha = np.array([0.3, 0.7])
        got = []
        for _ in range(2):
            prob = _MmdProblem(source.features, target.features, g, sigma)
            assert kernels_mod.chebyshev_axes(source.features @ w,
                                              target.features @ w,
                                              sigma) is not None
            got.append([*prob.terms(w), *prob.row_grads(w, alpha),
                        prob.grad(w, alpha)])
        for x, y in zip(*got, strict=True):
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
        # the unconstrained optimum lies outside the simplex (t = 1.5 and
        # -0.5), so the vertex is the lowest candidate
        assert solve_alpha_qp(np.eye(2), np.array([2.0, -1.0])).p.tolist() == [1.0, 0.0]
        assert solve_alpha_qp(np.eye(2), np.array([-1.0, 2.0])).p.tolist() == [0.0, 1.0]
        # a vertex is its own candidate; a linear objective (A = 0)
        # reaches its vertex through no other support
        assert solve_alpha_qp(np.eye(3), np.array([-1.0, 2.0, 0.0])).p.tolist() == [0.0, 1.0, 0.0]
        linear_b = np.array([0.1, 0.3, 0.2])
        assert solve_alpha_qp(np.zeros((3, 3)), linear_b).p.tolist() == [0.0, 1.0, 0.0]

    def test_flat_objective_returns_uniform(self):
        out = solve_alpha_qp(np.zeros((3, 3)), np.zeros(3))
        assert np.allclose(out.p, 1.0 / 3.0, atol=1e-12)

    def test_single_class(self):
        out = solve_alpha_qp(np.array([[2.0]]), np.array([0.3]))
        assert out.p[0] == 1.0

    def test_kkt_residual_random_psd(self, rng):
        # the support enumeration is exact: the projected-gradient residual
        # of the problem scaled to unit max entry is at rounding level, for
        # every rank of A from 1 (rank-deficient) to full
        fval = lambda a, b, z: float(z @ a @ z - 2.0 * (b @ z))
        for c in range(2, 8):
            for rank in range(1, c + 1):
                m = rng.standard_normal((c, rank))
                a = m @ m.T
                b = rng.standard_normal(c)
                start = project_simplex(rng.standard_normal(c))
                for x0 in (None, start):
                    x = solve_alpha_qp(a, b, start=x0).p
                    scale = max(np.abs(a).max(), np.abs(b).max())
                    grad = 2.0 * (a @ x - b) / scale
                    assert np.abs(x - project_simplex(x - grad)).max() <= 1e-12
                    if x0 is not None:
                        assert fval(a, b, x) <= fval(a, b, x0)
            # a flat A = 0, b = 0 keeps the projected start, or uniform
            # without one
            flat_a, flat_b = np.zeros((c, c)), np.zeros(c)
            assert np.array_equal(solve_alpha_qp(flat_a, flat_b).p,
                                  np.full(c, 1.0 / c))
            kept = project_simplex(start)
            assert np.array_equal(solve_alpha_qp(flat_a, flat_b, start=start).p,
                                  kept / kept.sum())

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

    def test_two_class_linear_objective_takes_endpoint(self):
        # A = 11^T: alpha^T A alpha = 1 on the simplex, so the objective is
        # linear there and the larger entry of b picks the vertex
        a = np.ones((2, 2))
        assert solve_alpha_qp(a, np.array([0.3, 0.1])).p.tolist() == [1.0, 0.0]
        assert solve_alpha_qp(a, np.array([0.1, 0.3]),
                              start=np.array([0.5, 0.5])).p.tolist() == [0.0, 1.0]

    def test_two_class_flat_objective_keeps_start(self):
        a, b = np.zeros((2, 2)), np.zeros(2)
        assert solve_alpha_qp(a, b).p.tolist() == [0.5, 0.5]
        assert solve_alpha_qp(a, b, start=np.array([0.2, 0.8])).p.tolist() == [0.2, 0.8]
        off = np.array([1.0, 3.0])  # projected onto the simplex first
        assert np.array_equal(solve_alpha_qp(a, b, start=off).p,
                              project_simplex(off))

    def test_warm_start_near_optimum_never_worse(self, rng):
        # starts a few ulps from the optimum can evaluate lower than every
        # other candidate; they are kept, so no result is worse than its
        # start as projected onto the simplex and normalised
        fval = lambda a, b, z: float(z @ a @ z - 2.0 * (b @ z))
        for c in range(2, 6):
            for _ in range(200):
                m = rng.standard_normal((c, c))
                a = m @ m.T
                b = rng.standard_normal(c)
                opt = solve_alpha_qp(a, b).p
                for k in (-3, -1, 1, 3):
                    start = opt.copy()
                    start[0] = min(max(opt[0] + k * 2.0 ** -52, 0.0), 1.0)
                    start[-1] = max(1.0 - start[:-1].sum(), 0.0)
                    kept = project_simplex(start)
                    kept /= kept.sum()
                    out = solve_alpha_qp(a, b, start=start).p
                    assert fval(a, b, out) <= fval(a, b, kept)

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(ValueError):
            solve_alpha_qp(a, np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_alpha_qp(np.eye(3), np.zeros(2))

    # every comparison of candidates fails on NaN, so a NaN A or b would
    # come back as the start
    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["a", "b"])
    def test_non_finite_rejected(self, c, bad, where):
        a, b = np.eye(c), np.full(c, 0.5)
        if where == "a":
            a[0, 0] = bad
        else:
            b[1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_alpha_qp(a, b)


class TestEuclideanGradW:
    def test_matches_finite_differences(self, rng):
        source, target, g, sigma = _toy_problem(rng, m=8, n=6)
        alpha = random_prior(rng, 2).p
        w0 = rng.standard_normal((3, 2)) * 0.5
        prob = _problem(source, target, g, sigma)
        analytic = prob.grad(w0, alpha)
        numeric = central_difference(lambda w: prob.eval(w, alpha), w0)
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
        grad = _problem(source, target, g, 1.0).grad(np.eye(3), prior.p)
        assert np.abs(grad).max() <= 1e-8

    def test_duplication_invariance(self, rng):
        # doubling every source row (weights repeat) leaves the gradient
        # unchanged: sums scale by 4, the 1/m^2 factor by 1/4
        source, target, g, sigma = _toy_problem(rng, m=8, n=6)
        alpha = random_prior(rng, 2).p
        w0 = rng.standard_normal((3, 2))
        base = _problem(source, target, g, sigma).grad(w0, alpha)
        feats2 = np.vstack([source.features, source.features])
        labels2 = np.concatenate([source.labels, source.labels])
        source2 = Dataset(feats2, labels2, "noisy", 2)
        g2 = build_g_matrix(symmetric_noise(2, 0.2),
                            ClassPrior(np.array([0.5, 0.5])), labels2)
        dup = _problem(source2, target, g2, sigma).grad(w0, alpha)
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

    @staticmethod
    def _counting(fn, reject_first=0):
        # wraps an objective, counting calls; the first reject_first calls
        # return +inf so that those Armijo trials are rejected
        calls = []

        def counted(m):
            calls.append(m)
            return np.inf if len(calls) <= reject_first else fn(m)
        return counted, calls

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_relative_stationarity_stops_without_evaluating(self, rng, scale):
        # horizontal part 1e-4 of the gradient's norm, at three gradient
        # scales: the stop is scale-free, so all three return W as is
        w0 = qr_retract(rng.standard_normal((5, 2)))
        vert = w0 @ rng.standard_normal((2, 2))
        z = rng.standard_normal((5, 2))
        horiz = z - w0 @ (w0.T @ z)
        grad = (vert / np.linalg.norm(vert)
                + 1e-4 * horiz / np.linalg.norm(horiz)) * scale
        fn, calls = self._counting(lambda m: 0.0)
        state = GrassmannState(objective_fn=fn, f_current=1.0)
        proj, state = grassmann_step(w0, grad, state)
        assert proj.w is w0
        assert not state.stalled
        assert calls == []

    def test_first_trial_accepted_doubles_step(self, rng):
        fn, grad = self._quadratic(rng)
        w0 = qr_retract(rng.standard_normal((5, 2)))
        counted, calls = self._counting(fn)
        state = GrassmannState(objective_fn=counted, f_current=fn(w0),
                               step=1e-3)
        proj, state = grassmann_step(w0, grad(w0), state)
        assert len(calls) == 1
        assert proj.w is not w0
        assert state.step == 2e-3

    def test_step_after_halving_keeps_accepted_step(self, rng):
        fn, grad = self._quadratic(rng)
        w0 = qr_retract(rng.standard_normal((5, 2)))
        counted, calls = self._counting(fn, reject_first=2)
        state = GrassmannState(objective_fn=counted, f_current=fn(w0),
                               step=4e-3)
        proj, state = grassmann_step(w0, grad(w0), state)
        assert len(calls) == 3
        assert proj.w is not w0
        assert state.step == 1e-3


class TestFitConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=0)
        with pytest.raises(ValueError):
            LinearFitConfig(d_prime=1, max_outer_iters=0)

    @pytest.mark.parametrize("field", ["d_prime", "max_outer_iters", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            LinearFitConfig(**{"d_prime": 1, field: value})

    def test_numpy_integers_stored_as_int(self):
        cfg = LinearFitConfig(d_prime=np.int64(2), seed=np.uint32(7))
        assert type(cfg.d_prime) is int and type(cfg.seed) is int


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

    def test_fixed_w_mode_pins_identity(self):
        # the retired mode alias the benchmark's prior workload still
        # passes: it fits at d' = d whatever d_prime says, so it is the
        # d' = d fit bit for bit, for any seed of that fit
        source, target, q = self._shifted_pair(seed=7)
        cfg = LinearFitConfig(d_prime=1, mode="tars_fixed_w")
        res = fit(cfg, source, target, q)
        assert np.array_equal(res.w.w, np.eye(2))
        assert res.stop_reason == "converged"
        for seed in (0, 5):
            square = fit(LinearFitConfig(d_prime=2, seed=seed),
                         source, target, q)
            assert np.array_equal(square.w.w, res.w.w)
            assert np.array_equal(square.alpha.p, res.alpha.p)
            assert np.array_equal(square.objective_trace, res.objective_trace)
            assert square.stop_reason == res.stop_reason
        with pytest.raises(ValueError, match="mode"):
            LinearFitConfig(d_prime=1, mode="bogus")

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
        cfg = LinearFitConfig(d_prime=2)
        res = fit(cfg, source, target, q)
        assert np.abs(res.alpha.p - [0.7, 0.3]).sum() <= 0.2

    def test_error_shrinks_with_sample_size(self):
        # median prior-estimation error over seeds must not grow from
        # m = 300 to m = 3000
        errs = {300: [], 3000: []}
        cfg = LinearFitConfig(d_prime=2)
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
        assert LinearFitConfig(**blob["config"]) == cfg
        assert blob["stop_reason"] == res.stop_reason
        assert blob["converged"] is res.converged

    def test_stop_reason_converged_or_max_iters(self):
        source, target, q = self._shifted_pair(seed=23)
        done = fit(LinearFitConfig(d_prime=2), source, target, q)
        assert done.stop_reason == "converged" and done.converged
        capped = fit(LinearFitConfig(d_prime=1, max_outer_iters=1, seed=1),
                     source, target, q)
        assert capped.stop_reason == "max_iters" and not capped.converged
        assert len(capped.objective_trace) == 2

    def test_pinned_w_converges_after_one_round(self):
        # with W pinned nothing moves after the exact QP, so even a one-round
        # cap ends "converged", with the start and one round in the trace
        source, target, q = self._shifted_pair(seed=23)
        res = fit(LinearFitConfig(d_prime=2, max_outer_iters=1),
                  source, target, q)
        assert res.stop_reason == "converged" and res.converged
        assert len(res.objective_trace) == 2

    @pytest.mark.parametrize("seed", [0, 5])
    def test_square_w_is_the_pinned_fit(self, monkeypatch, seed):
        # d' = d: no square orthonormal W moves a Gaussian-kernel objective,
        # so the fit pins W = I whatever the seed, runs only the w=None
        # pass, and ends "converged" after its one exact QP
        source, target, q = self._shifted_pair(seed=23)
        keys = []
        real_terms = linear_mod._MmdProblem.terms
        monkeypatch.setattr(linear_mod._MmdProblem, "terms",
                            lambda self, w: keys.append(w) or real_terms(self, w))
        res = fit(LinearFitConfig(d_prime=2, seed=seed), source, target, q)
        assert keys and all(k is None for k in keys)
        assert np.array_equal(res.w.w, np.eye(2))
        assert res.stop_reason == "converged" and res.converged
        assert len(res.objective_trace) == 2

    @staticmethod
    def _alternating_alpha(monkeypatch):
        # an alpha that never settles, so the objective test cannot end the
        # fit
        priors = iter(np.tile([0.3, 0.6], 20))
        monkeypatch.setattr(linear_mod, "solve_alpha_qp",
                            lambda a, b, start=None: ClassPrior(
                                np.array([p := next(priors), 1.0 - p])))

    def test_stop_reason_stationary(self, monkeypatch):
        # a first step that finds W stationary (unchanged, not stalled) ends
        # the fit after that round
        source, target, q = self._shifted_pair(seed=23)
        self._alternating_alpha(monkeypatch)

        def stationary(w, grad, state):
            return Projection(w), state

        monkeypatch.setattr(linear_mod, "grassmann_step", stationary)
        res = fit(LinearFitConfig(d_prime=1), source, target, q)
        assert res.stop_reason == "stationary" and not res.converged
        assert len(res.objective_trace) == 2

    def test_stop_reason_stalled(self, monkeypatch):
        source, target, q = self._shifted_pair(seed=23)
        self._alternating_alpha(monkeypatch)

        def failed_line_search(w, grad, state):
            state.stalled = True
            return Projection(w), state

        monkeypatch.setattr(linear_mod, "grassmann_step", failed_line_search)
        res = fit(LinearFitConfig(d_prime=1), source, target, q)
        assert res.stop_reason == "stalled" and not res.converged
        assert len(res.objective_trace) == 2

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

    # refused before the bandwidth or any kernel work, naming the side
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_zero_rows_rejected(self, monkeypatch, side):
        source, target, q = self._shifted_pair(seed=29, m=40, n=40)
        empty = Dataset(np.empty((0, 2)))

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("bandwidth of a dataset without rows")

        monkeypatch.setattr(linear_mod, "median_bandwidth", no_kernel_work)
        pair = (empty, target) if side == "source" else (source, empty)
        with pytest.raises(ValueError, match=f"{side} dataset has no rows"):
            fit(LinearFitConfig(d_prime=1), *pair, q)
