import warnings

import numpy as np
import pytest

from conftest import (brute_force_weighted_mmd, build_gram, gaussian_kernel,
                      poly2_features, poly2_kernel_matrix)
import dcic.kernels as kernels_mod
from dcic.kernels import (_SUBSAMPLE_SEED, MAX_NODES, _augmented,
                          _chebyshev_points, _coefficient_map, _middle,
                          _weights,
                          chebyshev_axes, chebyshev_nodes, chebyshev_sums,
                          chebyshev_totals, gaussian_gram, median_bandwidth)
from dcic.linear import _MmdProblem
from dcic.noise import GMatrix


def _engine_mmd(s, t, weights, sigma):
    """The kernel engine's weighted squared MMD with free per-sample weights:
    every source row is its own class, so G alpha = weights at alpha = 1.
    Both pass shapes (class-block sums, and per-row sums at W = I) must
    agree."""
    m, d = s.shape
    g = GMatrix(np.diag(np.asarray(weights, dtype=np.float64)),
                np.arange(1, m + 1))
    prob = _MmdProblem(s, t, g, sigma)
    blocks = prob.eval(None, np.ones(m))
    rows = prob.eval(np.eye(d), np.ones(m))
    assert rows == pytest.approx(blocks, rel=1e-12, abs=1e-15)
    return blocks


class TestMedianBandwidth:
    def test_two_points(self):
        x = np.array([[0.0], [2.0]])
        assert median_bandwidth(x) == pytest.approx(2.0, abs=0)

    def test_three_points_1d(self):
        # pairwise distances {1, 2, 3}, median 2
        x = np.array([[0.0], [1.0], [3.0]])
        assert median_bandwidth(x) == pytest.approx(2.0, abs=0)

    def test_identical_rows_rejected(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.ones((5, 2)))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.ones((1, 2)))

    # one point repeated n times: every distance, so the median, is zero.
    # For each of these points the unshifted expansion left a positive
    # rounding residue (sigma 1e-11 to 1e-3 instead of the error); 1500
    # rows run the 1414-row subset
    @pytest.mark.parametrize("d, n, scale, seed", [
        (2, 3, 1e-3, 3), (2, 40, 1.0, 23), (2, 1500, 1e4, 0),
        (3, 3, 1e-3, 0), (3, 40, 1.0, 4), (3, 1500, 1e4, 9),
        (32, 3, 1e-3, 8), (32, 40, 1.0, 4), (32, 1500, 1e4, 1),
    ], ids=lambda v: str(v))
    def test_duplicated_point_set_rejected(self, d, n, scale, seed):
        v = np.random.default_rng(seed).standard_normal(d) * scale
        with pytest.raises(ValueError, match="identical rows"):
            median_bandwidth(np.tile(v, (n, 1)))

    # 4 in 5 rows at one point make 64% of the pairs identical, so the
    # median is zero. The other rows move the column mean, so the shifted
    # copies are not zero, and without a rounding floor each of these drew
    # a positive residue (sigma 8e-11 to 9e-5). Zero rows are a dead ReLU
    # layer's hidden rows, which ``joint`` passes in; 1500 rows run the
    # 1414-row subset
    @pytest.mark.parametrize("kind, d, n, seed", [
        ("zero-rows", 2, 50, 9), ("zero-rows", 3, 200, 7),
        ("zero-rows", 32, 200, 0), ("zero-rows", 32, 1500, 0),
        ("repeated-point", 2, 50, 16), ("repeated-point", 3, 200, 2),
        ("repeated-point", 32, 200, 0), ("repeated-point", 32, 1500, 0),
    ], ids=lambda v: str(v))
    def test_mostly_duplicated_rows_rejected(self, kind, d, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        if kind == "zero-rows":
            x = np.maximum(x, 0.0)
            x[:4 * n // 5] = 0.0
        else:
            x = x * 10.0 ** rng.uniform(-3, 4)
            x[:4 * n // 5] = x[-1] * 3.0
        with pytest.raises(ValueError, match="identical rows"):
            median_bandwidth(x)

    # 90 standard normal rows and one row far out on the first axis: the
    # floor from the far row's squared norm lies above every near pair's
    # squared distance, so the median comes from direct differences
    @pytest.mark.parametrize("far", [1e8, 1e10], ids=["1e8", "1e10"])
    def test_one_far_row_against_brute_force(self, far):
        x = np.random.default_rng(3).standard_normal((91, 2))
        x[-1, 0] = far
        iu = np.triu_indices(91, 1)
        diff = x[:, None, :] - x[None, :, :]
        want = np.median(np.sqrt((diff * diff).sum(axis=2)[iu]))
        assert median_bandwidth(x) == pytest.approx(want, rel=1e-12)

    def test_exact_far_from_origin(self):
        # 400 points at 1e4 + 1e-3 N(0, I_2): the unshifted expansion
        # cancelled almost every digit and put sigma 0.25% off
        x = 1e4 + 1e-3 * np.random.default_rng(1234).standard_normal((400, 2))
        iu = np.triu_indices(400, 1)
        diff = x[:, None, :] - x[None, :, :]
        want = np.median(np.sqrt((diff * diff).sum(axis=2)[iu]))
        assert median_bandwidth(x) == pytest.approx(want, rel=1e-12)

    # 50 rows use every pair; 2000 rows (2 M pairs) the 1414-row subset,
    # which need not hold the bad row
    @pytest.mark.parametrize("n, bad", [(50, np.nan), (2000, np.inf)],
                             ids=["50-nan", "2000-inf"])
    def test_non_finite_rejected(self, rng, n, bad):
        x = rng.standard_normal((n, 2))
        x[n // 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            median_bandwidth(x)

    # rows this few stream as one block, so the squared distances are the
    # bits of one product of the shifted augmented operands (g = -1), and
    # the select must give np.median of their roots, with the rounding
    # floor applied, to the bit: 42 rows give 861 pairs (one middle value),
    # 40 rows 780 (the mean of two)
    @pytest.mark.parametrize("n", [42, 40], ids=["odd-861", "even-780"])
    def test_median_tail_bit_identical(self, rng, n):
        x = rng.standard_normal((n, 1)) * 3.0
        lhs, rhs = _augmented(x, x.mean(axis=0), -1.0)
        sq = (lhs @ rhs.T)[np.triu_indices(n, 1)]
        floor = 4.0 * 3 * np.finfo(np.float64).eps * rhs[:, -1].max()
        want = np.median(np.sqrt(np.where(sq > floor, sq, 0.0)))
        assert median_bandwidth(x) == want

    @pytest.mark.parametrize("grid", [(7, 6), (8, 5)], ids=["odd-861", "even-780"])
    def test_median_tail_ties_on_integer_grid(self, grid):
        # an integer lattice: every squared distance is a small integer,
        # computed exactly, and most of them repeat
        x = np.array([(a, b) for a in range(grid[0]) for b in range(grid[1])],
                     dtype=float)
        n = len(x)
        iu = np.triu_indices(n, 1)
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)[iu]
        assert np.unique(sq).size < sq.size // 10
        assert median_bandwidth(x) == np.median(np.sqrt(sq))

    # 700 rows stream as 8 row blocks of 93 (65536 // 700), the last one
    # ragged at 49 rows; 40 rows fit in one block
    @pytest.mark.parametrize("shape", [(40, 3), (700, 1), (700, 3)],
                             ids=["40x3", "700x1", "700x3"])
    def test_matches_brute_force(self, rng, shape):
        x = rng.standard_normal(shape)
        n = shape[0]
        dists = [np.linalg.norm(x[i] - x[j])
                 for i in range(n) for j in range(i + 1, n)]
        assert median_bandwidth(x) == pytest.approx(np.median(dists), rel=1e-12)


def _blocked_product_median(x, step):
    """np.median of the roots of the strict upper triangle of the shifted
    augmented product (g = -1), each row block of ``step`` rows its own
    product, as ``median_bandwidth`` forms them (BLAS rounds a one-row or
    ragged block's entries differently from the full product's), with the
    rounding floor applied."""
    n, d = x.shape
    lhs, rhs = _augmented(x, x.mean(axis=0), -1.0)
    sq = np.concatenate([
        (lhs[lo:lo + step] @ rhs[lo:].T)[
            np.triu_indices(min(step, n - lo), 1, n - lo)]
        for lo in range(0, n - 1, step)])
    floor = 4.0 * (d + 2) * np.finfo(np.float64).eps * rhs[:, -1].max()
    return np.median(np.sqrt(np.where(sq > floor, sq, 0.0))), sq


class TestKeyedMedian:
    """The bandwidth's select on int64 keys in the +inf padded layout:
    bit-identical to a float select and to np.median."""

    # positive values with ties, negative residues, both zeros and +inf
    # padding, shuffled; the middle value (or values) above zero
    @pytest.mark.parametrize("count", [41, 40], ids=["odd", "even"])
    def test_middle_matches_float_select(self, rng, count):
        residues = [-3e-16, -1e-300, -0.0, 0.0, -7e-17, 0.0]
        ties = np.repeat(rng.uniform(0.5, 4.0, 5), 3)
        values = np.concatenate([residues, ties, rng.uniform(
            0.1, 9.0, count - len(residues) - len(ties))])
        sq = rng.permutation(np.concatenate([values, np.full(30, np.inf)]))
        mid = _middle(sq, count)
        k = count // 2
        ref = np.partition(values, k)
        want = (ref[k],) if count % 2 else (ref[:k].max(), ref[k])
        assert mid == want
        assert sum(mid) / len(mid) == np.median(values)

    # one row per block, a ragged last block (blocks of 5 rows), and one
    # block of every row, at an even (48 rows) and an odd (47) pair count;
    # 2 and 3 rows hold more padding than pairs
    @pytest.mark.parametrize("n, d, block", [
        (48, 2, 1), (48, 2, 5 * 48), (48, 2, 48 * 48), (47, 32, 1),
        (47, 32, 5 * 47), (47, 32, 47 * 47), (2, 2, 1), (2, 2, None),
        (3, 1, 1), (3, 1, None),
    ], ids=lambda v: str(v))
    def test_bit_identical_to_block_products(self, rng, monkeypatch, n, d,
                                             block):
        if block is not None:
            monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", block)
        x = rng.standard_normal((n, d))
        step = max(1, kernels_mod._BLOCK_ENTRIES // n)
        assert median_bandwidth(x) == _blocked_product_median(x, step)[0]

    # 24 of 60 rows at one point away from the mean: 16% of the pairs are
    # rounding residues, here negative at every block height, below a
    # positive median
    @pytest.mark.parametrize("block", [1, 7 * 60, None],
                             ids=["row", "ragged", "default"])
    def test_residues_below_a_positive_median(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", block)
        x = np.random.default_rng(11).standard_normal((60, 5)) * 3.0
        x[:24] = x[-1]
        step = max(1, kernels_mod._BLOCK_ENTRIES // 60)
        want, sq = _blocked_product_median(x, step)
        assert (sq < 0.0).sum() > 0
        assert median_bandwidth(x) == want
        assert want == pytest.approx(_pair_median(x), rel=1e-12)


class TestGaussianKernel:
    """The scalar reference kernel the Gram oracles are checked against."""

    def test_self_is_one(self):
        assert gaussian_kernel([1.0, 2.0], [1.0, 2.0], 0.5) == 1.0

    def test_known_values(self):
        # ||x - y|| = sigma * sqrt(2) gives exp(-1)
        sigma = 0.7
        x = np.zeros(2)
        y = np.array([sigma * np.sqrt(2.0), 0.0])
        assert gaussian_kernel(x, y, sigma) == pytest.approx(np.exp(-1.0), rel=1e-12)
        y2 = np.array([2.0 * sigma, 0.0])
        assert gaussian_kernel(x, y2, sigma) == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kernel([1.0], [1.0, 2.0], 1.0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel([1.0], [2.0], 0.0)


class TestSquaredDistances:
    """The squared distances in ``gaussian_gram``'s exponent, checked
    through the Gram: a shifted augmented product clipped at zero."""

    def test_nonnegative_under_rounding(self):
        # rows far from their mean: the unclipped product leaves a positive
        # residue on the diagonal, which the clip turns into exp(0) = 1
        x = np.random.default_rng(2).standard_normal((20, 5)) * 1e4
        lhs, rhs = _augmented(x, x.mean(axis=0), 0.5)
        assert np.diag(lhs @ rhs.T).max() > 0.0
        assert gaussian_gram(x, x, 1.0).max() <= 1.0

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("rows", [(0, 4), (4, 0)], ids=["empty-a", "empty-b"])
    def test_empty_operand_without_warning(self, rng, rows, width):
        a = rng.standard_normal((rows[0], width))
        b = rng.standard_normal((rows[1], width))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = gaussian_gram(a, b, 1.0)
        assert gram.shape == rows

    def test_out_shape_checked(self, rng):
        a = rng.standard_normal((4, 2))
        with pytest.raises(ValueError):
            gaussian_gram(a, a, 1.0, out=np.empty((4, 3)))
        with pytest.raises(ValueError):
            gaussian_gram(a, a, 1.0, out=np.empty((4, 4), dtype=np.float32))


def _expanded_squared_distances(a, b):
    """(|a|^2 + |b|^2) - 2ab in one expression, clipped at zero."""
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _plain_gaussian_gram(a, b, sigma):
    """The one-expression Gram the blocked in-place version must reproduce:
    one product of the augmented rows shifted to b's column mean, clipped
    at zero."""
    shift = b.mean(axis=0)
    a, b = a - shift, b - shift
    g = 0.5 / (sigma * sigma)
    lhs = np.column_stack([a * (2.0 * g), (a * a).sum(axis=1) * -g,
                           np.ones(len(a))])
    rhs = np.column_stack([b, np.ones(len(b)), (b * b).sum(axis=1) * -g])
    return np.exp(np.minimum(lhs @ rhs.T, 0.0))


def _direct_gaussian_gram(a, b, sigma):
    """exp(-sum (a - b)^2 / (2 sigma^2)) from per-pair difference rows."""
    diff = a[:, None, :] - b[None, :, :]
    return np.exp(-(diff * diff).sum(axis=2) / (2.0 * sigma * sigma))


class TestGaussianGramOut:
    # the shifted augmented product at widths 3 and 1, pinned for a
    # distinct b and for a is b (the shift is then the mean of a itself),
    # and within 1e-12 relative of the per-pair direct Gram
    @pytest.mark.parametrize("shape, width", [
        ((7, 5), 3), ((300, 200), 3), ((200, 300), 3),
        ((7, 5), 1), ((300, 200), 1), ((200, 300), 1),
    ], ids=["shape0", "shape1", "shape2",
            "shape0-width1", "shape1-width1", "shape2-width1"])
    def test_bit_identical_to_plain_expression(self, rng, shape, width):
        x = rng.standard_normal((max(shape), width)) * 2.0
        a, b = x[:shape[0]], x[:shape[1]]
        assert np.array_equal(gaussian_gram(a, b, 0.9), _plain_gaussian_gram(a, b, 0.9))
        assert np.array_equal(gaussian_gram(x, x, 0.9), _plain_gaussian_gram(x, x, 0.9))
        for p, q in [(a, b), (x, x)]:
            want = _direct_gaussian_gram(p, q, 0.9)
            assert np.all(np.abs(gaussian_gram(p, q, 0.9) - want) <= 1e-12 * want)

    def test_shifted_exact_under_cancellation(self, rng):
        self._check_shifted_under_cancellation(rng, 2)

    def test_width1_shifted_exact_under_cancellation(self, rng):
        self._check_shifted_under_cancellation(rng, 1)

    @staticmethod
    def _check_shifted_under_cancellation(rng, d):
        # 400 points at 1e4 + 1e-3 N(0, I_d): the unshifted expansion
        # cancels almost every digit (entries off by percents), the shift
        # to b's mean keeps them at rounding level
        x = 1e4 + 1e-3 * rng.standard_normal((400, d))
        sigma = median_bandwidth(x - x.mean(axis=0))
        for a, b in [(x[:250], x[150:]), (x, x)]:
            want = _direct_gaussian_gram(a, b, sigma)
            got = gaussian_gram(a, b, sigma)
            assert np.all(np.abs(got - want) <= 1e-12 * want)
        # the fixture does cancel: the unshifted expansion misses by > 1%
        unshifted = np.exp(_expanded_squared_distances(x, x) / (-2.0 * sigma ** 2))
        want = _direct_gaussian_gram(x, x, sigma)
        assert (np.abs(unshifted - want) / want).max() > 1e-2

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_bad_sigma_rejected(self, rng, sigma, width):
        x = rng.standard_normal((4, width))
        with pytest.raises(ValueError, match="sigma"):
            gaussian_gram(x, x, sigma)

    def test_prebuilt_operands(self, rng):
        # the kernel pass's path: row slices of operands built once; built at
        # b's column mean they give the direct call's bits
        x = rng.standard_normal((50, 3))
        lhs, rhs = _augmented(x, x[10:].mean(axis=0), 0.5 / (1.3 * 1.3))
        got = gaussian_gram(x[:20], x[10:], 1.3, operands=(lhs[:20], rhs[10:]))
        assert np.array_equal(got, gaussian_gram(x[:20], x[10:], 1.3))
        with pytest.raises(ValueError, match="operands"):
            gaussian_gram(x[:20], x[10:], 1.3, operands=(lhs[:19], rhs[10:]))

    def test_identical_rows_give_exact_one(self):
        # far from the origin, identical rows shift to exactly zero
        x = np.full((6, 1), 1e12 + 0.5)
        assert np.array_equal(gaussian_gram(x, x, 1e-6), np.ones((6, 6)))

    def test_out_reused_and_bit_identical(self, rng):
        # the chunked MMD pass hands in a reshaped prefix of one flat buffer
        a = rng.standard_normal((300, 4))
        b = rng.standard_normal((250, 4))
        view = np.full(400 * 300, np.nan)[:300 * 250].reshape(300, 250)
        got = gaussian_gram(a, b, 1.3, out=view)
        assert got is view
        assert np.array_equal(got, gaussian_gram(a, b, 1.3))


class TestBuildGram:
    def test_entrywise_matches_scalar_kernel(self, rng):
        s = rng.standard_normal((5, 3))
        t = rng.standard_normal((4, 3))
        g = build_gram(s, t, 1.3)
        for i in range(4):
            for j in range(5):
                want = gaussian_kernel(t[i], s[j], 1.3)
                assert g.k_ts[i, j] == pytest.approx(want, abs=1e-14)

    def test_self_blocks(self, rng):
        x = rng.standard_normal((6, 2))
        g = build_gram(x, x, 0.9)
        assert np.array_equal(np.diag(g.k_ss), np.ones(6))
        assert np.array_equal(g.k_ss, g.k_ss.T)
        assert np.array_equal(g.k_ss, g.k_tt)

    def test_psd(self, rng):
        x = rng.standard_normal((30, 4))
        g = build_gram(x, rng.standard_normal((3, 4)), 1.1)
        assert np.linalg.eigvalsh(g.k_ss).min() >= -1e-8

    def test_shapes(self, rng):
        g = build_gram(rng.standard_normal((5, 2)),
                       rng.standard_normal((7, 2)), 1.0)
        assert g.m == 5 and g.n == 7
        assert g.k_ts.shape == (7, 5)

    def test_blocks_frozen(self, rng):
        g = build_gram(rng.standard_normal((3, 2)),
                       rng.standard_normal((3, 2)), 1.0)
        with pytest.raises(ValueError):
            g.k_ss[0, 0] = 0.5


class TestWeightedMmdSq:
    """The weighted squared MMD of the one engine (``linear._MmdProblem``)
    with per-sample weights, against the dense oracles."""

    def test_identical_sets_unit_weights(self, rng):
        x = rng.standard_normal((20, 3))
        assert abs(_engine_mmd(x, x, np.ones(20), median_bandwidth(x))) <= 1e-12

    def test_single_points(self):
        # m = n = 1 with unit weight: 1 - 2 k(s, t) + 1
        s = np.array([[0.0, 0.0]])
        t = np.array([[1.0, 1.0]])
        k = gaussian_kernel(s[0], t[0], 1.0)
        assert _engine_mmd(s, t, np.ones(1), 1.0) == pytest.approx(
            2.0 * (1.0 - k), rel=1e-12)

    def test_brute_force_small(self, rng):
        s = rng.standard_normal((5, 2))
        t = rng.standard_normal((4, 2))
        g = build_gram(s, t, 0.8)
        w = rng.uniform(-1.0, 2.0, size=5)
        want = brute_force_weighted_mmd(g.k_ss, g.k_tt, g.k_ts, w)
        assert _engine_mmd(s, t, w, 0.8) == pytest.approx(want, abs=1e-14)

    def test_explicit_feature_map_oracle(self, rng):
        # degree-2 polynomial kernel admits an explicit phi; the dense
        # oracle's kernelized quadratic form must equal the literal
        # embedding difference
        s = rng.standard_normal((7, 3))
        t = rng.standard_normal((5, 3))
        w = rng.uniform(0.2, 2.0, size=7)
        got = brute_force_weighted_mmd(poly2_kernel_matrix(s, s),
                                       poly2_kernel_matrix(t, t),
                                       poly2_kernel_matrix(t, s), w)
        mu_s = (poly2_features(s) * w[:, None]).mean(axis=0)
        mu_t = poly2_features(t).mean(axis=0)
        want = float(((mu_s - mu_t) ** 2).sum())
        assert got == pytest.approx(want, abs=1e-10)

    def test_permutation_invariance(self, rng):
        s = rng.standard_normal((6, 2))
        t = rng.standard_normal((4, 2))
        w = rng.uniform(0.0, 2.0, size=6)
        perm = rng.permutation(6)
        assert _engine_mmd(s[perm], t, w[perm], 1.0) == pytest.approx(
            _engine_mmd(s, t, w, 1.0), rel=1e-12)

    def test_length_mismatch(self, rng):
        g = GMatrix(np.eye(4), np.arange(1, 5))
        with pytest.raises(ValueError):
            _MmdProblem(rng.standard_normal((5, 2)),
                        rng.standard_normal((4, 2)), g, 1.0)

    def test_quadratic_term_convex(self, rng):
        # with one class per row and G = I, the engine's alpha-quadratic is
        # A = K_ss / m^2, which is PSD, so u -> u^T A u is convex: the
        # midpoint value never exceeds the average of endpoint values
        x = rng.standard_normal((10, 2))
        a, _, _ = _MmdProblem(x, x, GMatrix(np.eye(10), np.arange(1, 11)),
                              1.0).terms(None)
        u = rng.standard_normal(10)
        v = rng.standard_normal(10)
        f = lambda w: float(w @ a @ w)
        assert f(0.5 * (u + v)) <= 0.5 * (f(u) + f(v)) + 1e-12


def _pair_median(x):
    """np.median of ||x_i - x_j|| over all i < j, one row of differences at
    a time (no (pairs, d) array)."""
    dists = [np.sqrt(np.square(x[i + 1:] - x[i]).sum(axis=1))
             for i in range(len(x) - 1)]
    return float(np.median(np.concatenate(dists)))


def _subset_median(x):
    """``_pair_median`` over the fixed-seed subset of 1414 rows."""
    rng = np.random.default_rng(_SUBSAMPLE_SEED)
    return _pair_median(x[np.sort(rng.choice(len(x), 1414, replace=False))])


class TestLargeMedianPath:
    def test_subsample_close_to_exact_statistic(self):
        # above 10^6 pairs the heuristic subsamples; check it lands near the
        # known population median for an isotropic Gaussian cloud
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2000, 2))
        exact_med = median_bandwidth(x[:1400])  # exact path (< 10^6 pairs)
        sub_med = median_bandwidth(x)           # subsampled path
        assert abs(sub_med - exact_med) / exact_med < 0.05

    # above 10^6 pairs the median is the exact one over the fixed-seed
    # subset, to rounding (shifted products) at widths 1, 3 and 32 (32 is
    # the joint model's hidden width), also for points at
    # 1e4 + 1e-3 N(0, I_3), where an unshifted expansion would cancel
    # almost every digit
    @pytest.mark.parametrize("n, d, offset, scale", [
        (1415, 1, 0.0, 1.0), (1415, 3, 0.0, 1.0), (1415, 32, 0.0, 1.0),
        (1500, 3, 0.0, 1.0),
        (3000, 1, 0.0, 1.0), (3000, 3, 0.0, 1.0), (3000, 32, 0.0, 1.0),
        (1500, 3, 1e4, 1e-3),
    ], ids=["1415x1", "1415x3", "1415x32", "1500x3", "3000x1", "3000x3",
            "3000x32", "far-1500x3"])
    def test_subset_matches_brute_force(self, n, d, offset, scale):
        x = offset + scale * np.random.default_rng(2).standard_normal((n, d))
        assert median_bandwidth(x) == pytest.approx(_subset_median(x),
                                                    rel=1e-12)

    def test_1414_rows_use_every_pair(self):
        # 1414 rows give 998,991 pairs, the most at or below 10^6; 1415 give
        # 1,000,405 and drop one row, which moves the median
        x = np.random.default_rng(5).standard_normal((1415, 1))
        assert median_bandwidth(x[:1414]) == pytest.approx(
            _pair_median(x[:1414]), rel=1e-12)
        assert median_bandwidth(x) == pytest.approx(_subset_median(x),
                                                    rel=1e-12)
        assert _subset_median(x) != _pair_median(x)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1500, 2))
        assert median_bandwidth(x) == median_bandwidth(x)


def _direct_gram(x, y, sigma):
    """Per-pair Gaussian Gram, the oracle for the interpolated kernel."""
    diff = x[:, None, :] - y[None, :, :]
    return np.exp(-(diff * diff).sum(axis=2) / (2.0 * sigma * sigma))


class TestChebyshevPass:
    """The low-rank producer of the pass's per-row sums: the node-count rule,
    the Lagrange weights, and the sums against per-pair Grams."""

    def test_node_count_never_falls_as_the_width_grows(self):
        widths = np.concatenate([[0.0, 1e-12, 1e-6], np.linspace(1e-3, 30, 601)])
        counts = [chebyshev_nodes(w) for w in widths]
        assert counts[0] == 1
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert chebyshev_nodes(5.0) == 34 and chebyshev_nodes(12.5) == MAX_NODES

    def test_axes_fall_back_at_width_three_and_on_wide_spans(self, rng):
        s, t = rng.standard_normal((40, 3)), rng.standard_normal((30, 3))
        assert chebyshev_axes(s, t, 1.0) is None
        axes = chebyshev_axes(s[:, :2], t[:, :2], 1.0)
        assert [r for _, _, r in axes] == [
            chebyshev_nodes(hi - lo) for lo, hi, _ in axes]
        far = s[:, :2].copy()
        far[0, 1] = 1e3  # one far outlier
        assert chebyshev_axes(far, t[:, :2], 1.0) is None
        far[0, 1] = np.nan
        assert chebyshev_axes(far, t[:, :2], 1.0) is None
        assert chebyshev_axes(s[:, :2], t[:0, :2], 1.0) is None

    # the axis ranges are min(axis=0) / max(axis=0) over both row sets, to
    # the bit; a NaN in either set refuses the pass
    @pytest.mark.parametrize("rows, d", [(5000, 2), (500, 1)],
                             ids=["5000x2", "500x1"])
    def test_axes_exact_ranges(self, rng, rows, d):
        s = rng.standard_normal((rows, d))
        t = rng.standard_normal((rows, d)) * 0.7 + 0.4
        lo = np.minimum(s.min(axis=0), t.min(axis=0))
        hi = np.maximum(s.max(axis=0), t.max(axis=0))
        assert chebyshev_axes(s, t, 1.3) == [
            (a, b, chebyshev_nodes((b - a) / 1.3)) for a, b in zip(lo, hi)]
        t[rows // 2, -1] = np.nan
        assert chebyshev_axes(s, t, 1.3) is None

    @pytest.mark.parametrize("r", [2, 3, 16, 33])
    def test_lagrange_weights(self, rng, r):
        # the Lagrange weights that the polynomials imply, C T: a partition
        # of unity that reproduces polynomials of degree < r, with each
        # node's own unit row, to rounding, when a value lands on a node
        nodes = _chebyshev_points(r)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 50), nodes])
        polys = _weights(x[:, None], [(-1.0, 1.0, r)])[0]
        lw = (_coefficient_map(r) @ polys).T
        assert np.abs(lw.sum(axis=1) - 1.0).max() <= 1e-14
        assert np.abs(lw[50:] - np.eye(r)).max() <= 1e-14
        coef = rng.standard_normal(r)
        poly = np.polynomial.chebyshev.chebval
        assert np.abs(lw @ poly(nodes, coef) - poly(x, coef)).max() <= 1e-13

    def test_one_point_is_the_constant(self):
        assert np.array_equal(_weights(np.full((5, 1), 0.3), [(0.3, 0.3, 1)]),
                              [np.ones((1, 5))] * 2)

    # both axes run one recurrence to the larger r and keep their own r;
    # a zero-span axis keeps T_0 alone, and maps no value (no 0 / 0)
    @pytest.mark.parametrize("r", [2, 5, 34])
    def test_polynomials_by_recurrence(self, rng, r):
        x = np.column_stack([rng.uniform(-2, 3, 40), rng.uniform(0, 1, 40)])
        vander = np.polynomial.chebyshev.chebvander
        for other in (1, 3, 40):
            hi = 1.0 if other > 1 else 0.0
            with np.errstate(all="raise"):
                t1, t2 = _weights(x, [(-2.0, 3.0, r), (0.0, hi, other)])
            want = vander((x[:, 0] - 0.5) / 2.5, r - 1)
            assert np.abs(t1.T - want).max() <= 1e-13
            want = (np.ones((40, 1)) if other == 1 else
                    vander(2.0 * x[:, 1] - 1.0, other - 1))
            assert np.abs(t2.T - want).max() <= 1e-13

    @pytest.mark.parametrize("width", [0.5, 5.0, 12.5])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("block", [None, 100], ids=["one-block", "blocks"])
    def test_sums_match_per_pair_grams(self, rng, monkeypatch, width, d,
                                       block):
        # every sum within 1e-14 of the per-pair Gram's, relative to the
        # sum of |p| over its column; 100-value row blocks leave ragged
        # last blocks in every loop
        if block is not None:
            monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", block)
        s, t = rng.uniform(-1, 1, (70, d)), rng.uniform(-1, 1, (45, d))
        s[0], t[0] = -1.0, 1.0
        sigma = 2.0 / width
        p_s, p_t = rng.standard_normal((70, 3)), rng.standard_normal((45, 2))
        axes = chebyshev_axes(s, t, sigma)
        got = chebyshev_sums(s, t, sigma, axes, p_s, p_t)
        k_ts = _direct_gram(t, s, sigma)
        want = (_direct_gram(s, s, sigma) @ p_s, k_ts @ p_s, k_ts.T @ p_t,
                _direct_gram(t, t, sigma) @ p_t)
        for x, y, p in zip(got, want, (p_s, p_s, p_t, p_t), strict=True):
            assert x.shape == y.shape
            assert (np.abs(x - y) <= 1e-14 * np.abs(p).sum(axis=0)).all()

    def test_cross_rows_take_the_target_columns(self, rng):
        # no column set of its own: the cross rows are K_ts^T p_t
        s, t = rng.standard_normal((20, 2)), rng.standard_normal((15, 2))
        axes = chebyshev_axes(s, t, 1.5)
        p_s, p_t = rng.standard_normal((20, 3)), rng.standard_normal((15, 2))
        r_ss, r_ts, r_st, r_tt = chebyshev_sums(s, t, 1.5, axes, p_s, p_t)
        assert r_st.shape == (20, 2) and r_tt.shape == (15, 2)
        want = _direct_gram(t, s, 1.5).T @ p_t
        assert (np.abs(r_st - want) <= 1e-14 * np.abs(p_t).sum(axis=0)).all()

    # the end rows of an axis whose mapped values round just outside
    # [-1, 1]: lo to -1 - 4.4e-16 in one, hi to 1 + 2.2e-16 in the other
    @pytest.mark.parametrize("lo, hi", [
        (-2.486104997138254, -1.5791369604234018),
        (-2.2394701216901676, -1.2194533896633033)], ids=["lo", "hi"])
    def test_end_rows_rounding_outside_the_interval(self, rng, lo, hi):
        u = _weights(np.array([[lo], [hi]]), [(lo, hi, 2)])[0][1]
        assert u[0] < -1.0 or u[1] > 1.0
        s = rng.uniform(lo, hi, (70, 2))
        t = rng.uniform(lo, hi, (45, 2))
        s[0], t[0] = lo, hi
        sigma = 0.1
        axes = chebyshev_axes(s, t, sigma)
        assert [a[:2] for a in axes] == [(lo, hi)] * 2
        p_s, p_t = rng.standard_normal((70, 3)), rng.standard_normal((45, 2))
        got = chebyshev_sums(s, t, sigma, axes, p_s, p_t)
        k_ts = _direct_gram(t, s, sigma)
        want = (_direct_gram(s, s, sigma) @ p_s, k_ts @ p_s, k_ts.T @ p_t,
                _direct_gram(t, t, sigma) @ p_t)
        for x, y, p in zip(got, want, (p_s, p_s, p_t, p_t), strict=True):
            assert (np.abs(x - y) <= 1e-14 * np.abs(p).sum(axis=0)).all()

    @pytest.mark.parametrize("width", [0.5, 5.0, 12.5])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("block", [None, 100], ids=["one-block", "blocks"])
    def test_totals_match_per_pair_grams(self, rng, monkeypatch, width, d,
                                         block):
        # p_s^T K_ss p_s, p_t^T K_ts p_s and p_t^T K_tt p_t from the moments,
        # each within 1e-14 of the per-pair Gram's, relative to the product
        # of the sums of |p| over its two columns
        if block is not None:
            monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", block)
        s, t = rng.uniform(-1, 1, (70, d)), rng.uniform(-1, 1, (45, d))
        s[0], t[0] = -1.0, 1.0
        sigma = 2.0 / width
        p_s, p_t = rng.standard_normal((70, 3)), rng.standard_normal((45, 2))
        axes = chebyshev_axes(s, t, sigma)
        got = chebyshev_totals(s, t, sigma, axes, p_s, p_t)
        want = (p_s.T @ _direct_gram(s, s, sigma) @ p_s,
                p_t.T @ _direct_gram(t, s, sigma) @ p_s,
                p_t.T @ _direct_gram(t, t, sigma) @ p_t)
        pairs = ((p_s, p_s), (p_t, p_s), (p_t, p_t))
        for x, y, (p, q) in zip(got, want, pairs, strict=True):
            assert x.shape == y.shape
            scale = np.outer(np.abs(p).sum(axis=0), np.abs(q).sum(axis=0))
            assert (np.abs(x - y) <= 1e-14 * scale).all()
