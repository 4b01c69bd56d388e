"""Gaussian kernel primitives: the median-distance bandwidth heuristic
and the kernel pass's two producers. The weighted squared MMD lives in one
place, ``linear._MmdProblem``, which asks for per-row sums
(``kernel_sums``: K_ss p_s, K_ts p_s, K_ts^T p_t and K_tt p_t, with
K_ts = k(t_i, s_j)) or class totals alone (``kernel_totals``: p^T of those
sums, K_ts^T p_t dropped) and never sees which producer ran. Both entry
points refuse a sigma that is not finite and positive before either
producer reads it, so both producers fail the same way at every width.

A pass is low-rank exactly when ``chebyshev_axes`` returns its axes, from
the rows alone: width 1 or 2, and no axis needing more than MAX_NODES =
64 Chebyshev points (spans up to 12.7 sigma). Every other pass (width
>= 3, wide spans, outliers, far-apart clouds) takes the direct Gram
blocks. Both sides of a pass have rows: ``linear.fit`` and
``joint.fit_joint`` refuse an empty dataset before any kernel work. With
per-row sums the low-rank pass took about 15 against 224 ms at
m = n = 5000 and width 2, and 0.28 against 1.5 ms at m = n = 500 and
width 1; with totals alone 4.1 against 150 ms at m = n = 5000 and width
2; below about m = n = 150 (300 at width 2 with per-row sums) up to 1.9
times the direct pass's 0.14 to 0.9 ms (one OpenBLAS thread, 2-CPU
Xeon). Both producers are deterministic.

The direct producer (``gram_sums``) runs every source chunk of
DEFAULT_CHUNK rows (its K_ss rows), then every target chunk (its K_ts and
K_tt rows), writing each block into one (chunk, max(m, n)) buffer that
the pass allocates and contracting it straight into the sums; of the
symmetric K_ss and K_tt it computes only the upper block-triangle. Each
block is one ``_gaussian_block`` call on row slices of operands built
once per pass: s and t each shifted to its own column mean, and t's lhs
for K_ts to s's mean, so every block is shifted to the mean of the set
its columns come from and does not cancel when the two sets sit far
apart. The call writes the exponent's product into a prefix of the
buffer, clips it at zero and exponentiates it there.

The direct pass's blocks and the bandwidth take each block of the
Gaussian exponent, or of squared distances, as one BLAS product of slices
of per-row augmented operands (``_augmented``), at every width, shifted
first to a column mean: the kernel and the distance depend only on a - b,
and the shift keeps the product from cancelling when the points sit far
from the origin.

The bandwidth is the median distance over all pairs of rows up to 10^6
pairs, and above that over all pairs of a fixed-seed subset of 1414 rows,
the most whose pairs fit in 10^6: one exact path, run on every row or on
the subset. Each row block's squared distances go into its own slot of
one array, padded with +inf, for one select on its int64 view.

With the median bandwidth the rows span only a few sigma per axis, and
over such a span the Gaussian is numerically low rank, as the black-box
fast multipole method uses (Fong & Darve, J. Comput. Phys. 2009). The
low-rank producer interpolates it at the fewest Chebyshev points r per
axis whose interpolant is within CHEB_TOL = 1e-15 of the Gaussian by the
Bernstein-ellipse bound (``chebyshev_nodes``: r from span / sigma alone,
16 at 1 sigma, 34 at 5). A row's weights on an axis are the Chebyshev
polynomials T_0 .. T_{r-1} of its mapped value, by the three-term
recurrence; the change of basis from values at the points to polynomial
coefficients sits in the r x r node Gram. It gives per-row sums
(``chebyshev_sums``) or the totals straight from its moments
(``chebyshev_totals``), within about 1e-14 of the direct ones relative to
the sum of |p| over each column.

Convention: k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_EXACT_PAIRS = 10 ** 6
_SUBSAMPLE_SEED = 74  # fixed: the heuristic must not depend on caller seeds
# values per row block of the bandwidth's squared distances (512 KiB); 2^16
# beat 2^15 streaming all pairs of 2000 x 32 rows (4.7 against 5.5 ms, one
# OpenBLAS thread)
_BLOCK_ENTRIES = 2 ** 16


def _augmented(x: np.ndarray, shift: np.ndarray | float,
               g: float) -> tuple[np.ndarray, np.ndarray]:
    """Augmented operands (lhs, rhs) of one row set x, shifted first:

        lhs = [2g (x - shift), -g |x - shift|^2, 1],
        rhs = [x - shift, 1, -g |x - shift|^2],

    so that a's lhs @ b's rhs.T = -g ||a_i - b_j||^2 for two row sets
    built with the same shift. g = 1 / (2 sigma^2) gives the Gaussian
    exponent, g = -1 the squared distance. Both depend only on a - b, so
    the shift changes no value in exact arithmetic; shifting to the column
    mean of b keeps the product from cancelling when the points sit far
    from the origin relative to their spread (``x - mean`` is exact for
    points within a factor of two of the mean).
    """
    x = x - shift
    sq = (x * x).sum(axis=1) * -g
    ones = np.ones(x.shape[0])
    return (np.column_stack([x * (2.0 * g), sq, ones]),
            np.column_stack([x, ones, sq]))


def _middle(sq: np.ndarray, count: int) -> tuple[float, ...]:
    """The middle value of the ``count`` least in ``sq``, or their two
    middle values (lower, upper) for an even count, by one select at
    k = count // 2 on the int64 view, in place. Doubles of one sign order
    like their bits as int64, and negatives and -0.0 read below +0.0, so
    the keys keep the order of the positive values and +inf, and put every
    residue before them: a middle value above zero is the float select's.
    No value may be NaN."""
    k = count // 2
    sq.view(np.int64).partition(k)
    return (float(sq[k]),) if count % 2 else (float(sq[:k].max()),
                                               float(sq[k]))


def _upper_pairs(n: int, step: int, block) -> tuple[np.ndarray, int]:
    """The strict upper triangle of a symmetric n x n array padded with
    +inf, and its size: ``block(lo, hi, out)`` writes rows [lo, hi) from
    column lo on into that row block's own slot, and one mask sets the
    block's entries on and below its diagonal to +inf, which sorts after
    every value, so the triangle is the first n (n - 1) / 2 in order. No
    n x n array is held."""
    blocks = [(lo, min(step, n - lo)) for lo in range(0, n - 1, step)]
    sq = np.empty(sum(h * (n - lo) for lo, h in blocks))
    pad = np.tri(min(step, n), dtype=bool)
    at = 0
    for lo, h in blocks:
        slot = sq[at:at + h * (n - lo)].reshape(h, n - lo)
        block(lo, lo + h, slot)
        slot[:, :h][pad[:h, :h]] = np.inf
        at += slot.size
    return sq, n * (n - 1) // 2


def median_bandwidth(features: np.ndarray) -> float:
    """Median Euclidean distance over all i < j pairs of rows; above
    MAX_EXACT_PAIRS (10^6) pairs, over all pairs of a fixed subset of
    r = isqrt(2 MAX_EXACT_PAIRS) = 1414 rows.

    r(r - 1) / 2 <= 10^6 < (r + 1) r / 2, so more than 10^6 pairs is the
    same test as more than r rows. The subset is drawn without replacement
    from a fixed seed and sorted, so it depends only on n. This is the
    median heuristic as kernel two-sample tests take it (Gretton et al.,
    JMLR 2012): exactness buys nothing at that size. On 12 standard normal
    clouds of 4000 rows it was 0.44% (d = 2) and 0.19% (d = 32) from the
    full-data median on average, 0.95% at most.

    The squared distances of rows [lo, hi) to rows lo.. are computed one row
    block of at most _BLOCK_ENTRIES values at a time, each straight into its
    own slot of the select array, padded with +inf on and below the block's
    diagonal (``_upper_pairs``): no n x n array. A block is one BLAS product of
    slices of operands built once per call: the rows shifted to their
    column mean and augmented (``_augmented`` with g = -1). A value is
    then off by rounding of about eps max |a|^2 (a the shifted rows):
    about one ulp of sigma for a cloud, more when a few rows sit far out
    (one row 1e6 from 90 standard normal rows put sigma 1e-10 to 5e-9
    relative off over 20 draws). Identical rows get a residue of either
    sign up to a floor (below), and values at or below it count as zero.

    The median is one select (``_middle``), bit-identical to np.median of
    the roots when its middle value (or values) lies above the floor. Else,
    as when one far row lifts the floor above every near pair, the squared
    distances are recomputed by direct differences in row blocks, where
    identical rows give exactly 0, and the median read from those. A
    10000 x 2 call took 2.4 ms and a 2000 x 32 call 4.2 ms, against 3.5 and
    5.4 ms with a float select of the gathered triangle, on one OpenBLAS
    0.3.31 thread of a 2-CPU Xeon. Errors if fewer than 2 rows, any feature
    is not finite (checked on every row, not only the subset), or the
    median is zero (duplicated point set, such as the all-zero hidden rows
    of a dead ReLU layer making up most rows).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("median_bandwidth needs at least 2 rows")
    if not np.isfinite(x).all():
        raise ValueError("median_bandwidth needs finite features")
    r = math.isqrt(2 * MAX_EXACT_PAIRS)
    if x.shape[0] > r:
        keep = np.random.default_rng(_SUBSAMPLE_SEED).choice(
            x.shape[0], r, replace=False)
        keep.sort()
        x = x[keep]
    n, d = x.shape
    # for two identical shifted rows a with rounded squared norm s, the
    # entry's exact value is 2 (s - |a|^2), at most 2 gamma_d |a|^2, and
    # summing its d + 2 terms, of total size at most 4 |a|^2 (1 + gamma_d),
    # adds at most gamma_{d+2} times that (gamma_k = k u / (1 - k u),
    # u = eps / 2): below about 3 (d + 2) eps |a|^2 together, so
    # floor = 4 (d + 2) eps max |a|^2. Random trials at d = 2 to 64 reached
    # 0.62 (d + 2) eps |a|^2, and 3000 at d = 1 left no residue
    lhs, rhs = _augmented(x, x.mean(axis=0), -1.0)
    eps = np.finfo(np.float64).eps
    floor = 4.0 * (d + 2) * eps * float(rhs[:, -1].max())
    step = max(1, _BLOCK_ENTRIES // n)

    def product(lo, hi, out):
        np.matmul(lhs[lo:hi], rhs[lo:].T, out=out)

    def differences(lo, hi, out):
        diff = x[lo:hi, None, :] - x[None, lo:, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out)

    mid = _middle(*_upper_pairs(n, step, product))
    if min(mid) <= floor:
        floor = 0.0
        mid = _middle(*_upper_pairs(n, max(1, step // d), differences))
    # sqrt is correctly rounded and monotone, so the roots of the middle
    # values are the middle roots; np.median averages the two of an even
    # count as (a + b) / 2
    roots = [math.sqrt(v) if v > floor else 0.0 for v in mid]
    med = roots[0] if len(roots) == 1 else (roots[0] + roots[1]) / 2.0
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical rows)")
    return med


# Rows per chunk of the direct pass. At m = 500 this gives four row blocks,
# so the self-Grams' upper block-triangle computes about 62% of each square
# (10 of 16 blocks). Chunks of 65 rows (2^16-value blocks at 1000 columns)
# made the 1000 x 32 pass 6% slower
DEFAULT_CHUNK = 128


def _gaussian_block(lhs: np.ndarray, rhs: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """The Gaussian between the rows of lhs and of rhs, two operands
    ``_augmented`` with g = 1 / (2 sigma^2) and one shift, written into the
    float64 (len(lhs), len(rhs)) array ``out`` and returned: the exponent's
    product, clipped at zero (rounding residue), exponentiated in place."""
    np.matmul(lhs, rhs.T, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


def _add_symmetric_rows(out, k, rhs, lo, hi):
    """Add to ``out`` the two parts of K @ rhs that a symmetric K's row
    block [lo, hi), given from column lo on, contributes: the block itself
    to rows lo..hi, and its part right of the diagonal block, transposed,
    to the rows from hi on."""
    out[lo:hi] += k @ rhs[lo:]
    out[hi:] += k[:, hi - lo:].T @ rhs[lo:hi]


def gram_sums(s: np.ndarray, t: np.ndarray, sigma: float,
              p_s: np.ndarray, p_t: np.ndarray):
    """The kernel pass's per-row sums (K_ss p_s, K_ts p_s, K_ts^T p_t,
    K_tt p_t), with K_ts = k(t_i, s_j), from chunked Gram blocks: every
    source chunk, then every target chunk, into one buffer the pass
    allocates (the module docstring has the operands and the chunks)."""
    m, n = s.shape[0], t.shape[0]
    step = DEFAULT_CHUNK
    g = 0.5 / (sigma * sigma)
    mu_s = s.mean(axis=0)
    ss, tt = _augmented(s, mu_s, g), _augmented(t, t.mean(axis=0), g)
    ts = (_augmented(t, mu_s, g)[0], ss[1])
    width = max(m, n)
    buf = np.empty(min(step, width) * width)

    def gram(ops, lo, hi, col):
        # the block of lhs rows [lo, hi) and rhs rows col.. in a C-contiguous
        # prefix of the buffer, so BLAS sees the layout of a fresh array
        lhs, rhs = ops[0][lo:hi], ops[1][col:]
        out = buf[:len(lhs) * len(rhs)].reshape(len(lhs), len(rhs))
        return _gaussian_block(lhs, rhs, out)

    r_ss, r_ts = np.zeros((m, p_s.shape[1])), np.zeros((n, p_s.shape[1]))
    r_st, r_tt = np.zeros((m, p_t.shape[1])), np.zeros((n, p_t.shape[1]))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        _add_symmetric_rows(r_ss, gram(ss, lo, hi, lo), p_s, lo, hi)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        k_ts = gram(ts, lo, hi, 0)  # used before K_tt overwrites it
        r_ts[lo:hi] = k_ts @ p_s
        r_st += k_ts.T @ p_t[lo:hi]
        _add_symmetric_rows(r_tt, gram(tt, lo, hi, lo), p_t, lo, hi)
    return r_ss, r_ts, r_st, r_tt


# The low-rank pass: the Gaussian interpolated at Chebyshev points. An axis
# takes the fewest points whose bound on the interpolation error reaches
# CHEB_TOL, and at most MAX_NODES
CHEB_TOL = 1e-15
MAX_NODES = 64


def chebyshev_nodes(width: float) -> int:
    """Fewest Chebyshev points r whose polynomial interpolant of the
    Gaussian k(x, y) = exp(-(x - y)^2 / (2 sigma^2)), as a function of x on
    an interval ``width`` sigmas wide, is within CHEB_TOL of k for every
    real y.

    Mapped to [-1, 1], k is entire in x, and on the Bernstein ellipse of
    parameter rho > 1 (imaginary part at most (rho - 1/rho) / 2) its
    modulus is at most M = exp(beta ((rho - 1/rho) / 2)^2), with
    beta = width^2 / 8. The interpolant in r points, of degree r - 1, is
    then within 4 M rho^(1 - r) / (rho - 1) of k (Trefethen, Approximation
    Theory and Approximation Practice, Thm 8.2), and r is the least that
    brings this bound, minimised over the fixed grid of rho, to CHEB_TOL.
    For each rho the bound grows with the width, so r never decreases as
    the width grows. It reads 1 at width 0, 16 at width 1, 34 at width 5
    and 64 up to width 12.7.
    """
    rho, half = _ellipses()
    beta = float(width) ** 2 / 8.0
    with np.errstate(over="ignore"):
        log_bound = math.log(4.0) + beta * half * half - np.log(rho - 1.0)
    need = ((log_bound - math.log(CHEB_TOL)) / np.log(rho)).min()
    return 1 + math.ceil(max(need, 0.0))


@functools.cache
def _ellipses():
    """The grid of rho over which ``chebyshev_nodes`` minimises its bound,
    from 1 + 1e-3 to 1 + 1e16, 20 per decade of rho - 1, and each
    ellipse's half-height (rho - 1/rho) / 2. Every rho gives a valid bound,
    so the grid only decides how tight r is: of 2000 widths up to 13, 34
    read one more point than on a grid ten times finer, and none fewer."""
    rho = 1.0 + 10.0 ** np.linspace(-3.0, 16.0, 381)
    return rho, (rho - 1.0 / rho) / 2.0


def chebyshev_axes(s: np.ndarray, t: np.ndarray, sigma: float):
    """The nodes of a low-rank pass over the rows of s and t, one
    (lo, hi, r) per axis: the axis's range over both row sets and its
    ``chebyshev_nodes`` at width (hi - lo) / sigma. None at width >= 3, or
    when an axis would need more than MAX_NODES points (wide spans,
    outliers, far-apart clouds): such a pass takes the direct blocks.
    Both s and t must have rows.
    """
    if s.shape[1] > 2:
        return None
    axes = []
    for k in range(s.shape[1]):
        # by column (5 against 135 us at 5000 rows); np.minimum keeps a NaN
        lo = np.minimum(s[:, k].min(), t[:, k].min())
        hi = np.maximum(s[:, k].max(), t[:, k].max())
        width = float(hi - lo) / sigma
        r = chebyshev_nodes(width) if math.isfinite(width) else MAX_NODES + 1
        if r > MAX_NODES:
            return None
        axes.append((float(lo), float(hi), r))
    return axes


def _row_blocks(rows: int, per_row: int):
    """(lo, hi) row blocks of at most _BLOCK_ENTRIES values each."""
    step = max(1, _BLOCK_ENTRIES // max(per_row, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _chebyshev_points(r: int) -> np.ndarray:
    """The r > 1 Chebyshev points of the second kind on [-1, 1], from 1
    down; the sin form makes them symmetric about 0 to the bit."""
    return np.sin(np.pi * (r - 1 - 2 * np.arange(r)) / (2 * (r - 1)))


@functools.cache
def _coefficient_map(r: int) -> np.ndarray:
    """The symmetric r x r map C from values at the r > 1 Chebyshev points
    to the Chebyshev coefficients of their interpolant, coef = C^T f:

        C[j, k] = (2 / (r - 1)) h_j h_k cos(j k pi / (r - 1)),

    h = 1/2 at both ends and 1 elsewhere. j k is reduced mod 2 (r - 1)
    first, so every cosine is taken of an angle below 2 pi. Read-only: it
    is cached per r."""
    n = r - 1
    j = np.arange(r)
    h = np.ones(r)
    h[[0, -1]] = 0.5
    angle = np.pi * (np.outer(j, j) % (2 * n)) / n
    c = (2.0 / n) * h[:, None] * np.cos(angle) * h
    c.flags.writeable = False
    return c


def _node_gram(lo: float, hi: float, r: int, sigma: float) -> np.ndarray:
    """The one-axis Gaussian between the r Chebyshev points on [lo, hi], in
    the coefficient basis: C^T K C, so that T(x)^T (C^T K C) T(y) is the
    interpolant of k(x, y) in both arguments."""
    if r == 1:
        return np.ones((1, 1))
    nodes = _chebyshev_points(r)
    diff = (nodes[:, None] - nodes) * ((hi - lo) / (2.0 * sigma))
    c = _coefficient_map(r)
    return c.T @ np.exp(-0.5 * diff * diff) @ c


def _moments(t1: np.ndarray, t2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(r1, k, r2) sums over the rows i of t1[a, i] p[i, j] t2[b, i], one
    r1 x r2 moment per column of p, from (r, rows) weights: no (rows, r1 r2)
    product of the two axes' weights. Each row block's products p t2 go
    into one reused buffer, the first block's size, from p's columns made
    contiguous: two one-hot columns of 5000 rows at r = 34 took 1.3-1.7 ms
    this way, against 3.8 ms with a fresh product of p's strided columns
    per block (one OpenBLAS thread)."""
    r1, k, r2 = t1.shape[0], p.shape[1], t2.shape[0]
    out = np.zeros((r1, k * r2))
    cols = np.ascontiguousarray(p.T)
    blocks = _row_blocks(len(p), k * r2)
    buf = np.empty(k * r2 * blocks[0][1])
    for a, b in blocks:
        rows = buf[:k * r2 * (b - a)].reshape(k, r2, b - a)
        np.multiply(cols[:, None, a:b], t2[None, :, a:b], out=rows)
        out += t1[:, a:b] @ rows.reshape(k * r2, b - a).T
    return out.reshape(r1, k, r2)


def _at_rows(t1: np.ndarray, t2: np.ndarray, coef: np.ndarray,
             out: np.ndarray) -> None:
    """out[i, j] = the sum over a, b of t1[a, i] coef[a, j, b] t2[b, i], in
    row blocks."""
    r1, k, r2 = coef.shape
    flat = coef.reshape(r1, k * r2)
    for a, b in _row_blocks(t1.shape[1], k * r2):
        y = (flat.T @ t1[:, a:b]).reshape(k, r2, b - a)
        np.einsum("jbi,bi->ij", y, t2[:, a:b], out=out[a:b])


def _weights(x: np.ndarray, axes) -> list[np.ndarray]:
    """Each axis's (r, rows) Chebyshev polynomials T_0 .. T_{r-1} of the
    rows x, mapped from the axis's [lo, hi] to [-1, 1], by the three-term
    recurrence T_{k+1} = 2u T_k - T_{k-1}: one multiply and one subtract
    per degree, no division. One recurrence runs every axis to the largest
    r, and each axis keeps its own r; an axis of one point (zero span)
    reads T_0 = 1 alone, as does the one-point second axis at width 1."""
    r = max(r for _, _, r in axes)
    out = np.empty((r, len(axes), len(x)))
    out[0] = 1.0
    if r > 1:
        for k, (lo, hi, rk) in enumerate(axes):
            out[1, k] = ((x[:, k] - (lo + hi) / 2.0) / ((hi - lo) / 2.0)
                         if rk > 1 else 0.0)
        twice = 2.0 * out[1]
        for j in range(2, r):
            np.multiply(twice, out[j - 1], out=out[j])
            out[j] -= out[j - 2]
    ts = [out[:rk, k] for k, (_, _, rk) in enumerate(axes)]
    return ts + [np.ones((1, len(x)))] * (2 - len(axes))


def _through_nodes(axes, sigma: float, moms: list[np.ndarray]):
    """K1 M K2 for each r1 x r2 moment M of each (r1, k, r2) array of
    ``moms``, with each axis's node Gram (``_node_gram``; a one-point
    second axis at width 1): the coefficients of the kernel's sums against
    that moment's column."""
    grams = [_node_gram(lo, hi, r, sigma) for lo, hi, r in axes]
    grams += [np.ones((1, 1))] * (2 - len(axes))
    out = []
    for mom in moms:
        r1, k, r2 = mom.shape
        coef = (grams[0] @ mom.reshape(r1, k * r2)).reshape(r1 * k, r2)
        out.append((coef @ grams[1]).reshape(r1, k, r2))
    return out


def chebyshev_sums(s: np.ndarray, t: np.ndarray, sigma: float, axes,
                   p_s: np.ndarray, p_t: np.ndarray):
    """The kernel pass's per-row sums (K_ss p_s, K_ts p_s, K_ts^T p_t,
    K_tt p_t), with K_ts = k(t_i, s_j), from the Gaussian interpolated at
    the Chebyshev points of ``axes`` (``chebyshev_axes``) in both
    arguments: no kernel block is formed.

    Per axis the interpolant is k(x, y) ~ T(x)^T (C^T K C) T(y), with T the
    Chebyshev polynomials of degree < r of the mapped value (``_weights``),
    K the Gaussian between the points and C the map from values at the
    points to coefficients (``_node_gram``): the Lagrange form
    l(x)^T K l(y), since l(x) = C T(x). The Gaussian is a product over
    axes, so at width 2 each column p of a row set gives one r1 x r2
    moment M = T1 diag(p) T2^T (``_moments``), the node Grams act on it one
    axis at a time, K1 M K2, and a row x reads T1(x)^T (K1 M K2) T2(x)
    (``_at_rows``). Width 1 is the same with a one-point second axis, as
    is an axis of zero span. Both row sets' weights come from one
    recurrence, each set forms one moment set, and one read-out over the
    stacked weights gives every row both sets' sums, all in row blocks.

    Each axis's interpolant is within CHEB_TOL of the Gaussian, so an
    interpolated entry is within about (2 + 2 Lambda) CHEB_TOL of the
    kernel, Lambda being the points' Lebesgue constant (below 3.7 at 64
    points), and each sum within that times sum |p| of its column:
    per-row sums of 300 and 200 rows at spans of 0.5 to 12.6 sigma, width
    1 and 2, were within 4.1e-16 of per-pair Grams relative to sum |p|.
    """
    ks, m = p_s.shape[1], len(s)
    both = _weights(np.vstack([s, t]), axes)  # one recurrence for both sets
    from_s, from_t = _through_nodes(axes, sigma, [
        _moments(*[w[:, :m] for w in both], p_s),
        _moments(*[w[:, m:] for w in both], p_t)])
    out = np.empty((len(s) + len(t), ks + p_t.shape[1]))
    _at_rows(*both, np.concatenate([from_s, from_t], axis=1), out)
    return out[:m, :ks], out[m:, :ks], out[:m, ks:], out[m:, ks:]


def chebyshev_totals(s: np.ndarray, t: np.ndarray, sigma: float, axes,
                     p_s: np.ndarray, p_t: np.ndarray):
    """The kernel pass's column sums (p_s^T K_ss p_s, p_t^T K_ts p_s,
    p_t^T K_tt p_t) from the same interpolant as ``chebyshev_sums``, read
    straight from the moments: with M_s, M_t the moments of p_s and p_t,
    they are M_s . (K1 M_s K2), M_t . (K1 M_s K2) and M_t . (K1 M_t K2),
    summed over both axes' coefficients. No per-row sum is formed, so the
    rows cost one pass to build their weights and one to sum the moments,
    and one row set's weights are held at a time.
    """
    mom_s = _moments(*_weights(s, axes), p_s)
    mom_t = _moments(*_weights(t, axes), p_t)
    from_s, from_t = _through_nodes(axes, sigma, [mom_s, mom_t])

    def dot(mom, coef):
        return np.tensordot(mom, coef, axes=([0, 2], [0, 2]))

    return dot(mom_s, from_s), dot(mom_t, from_s), dot(mom_t, from_t)


def _check_sigma(sigma: float) -> None:
    """Refuse a bandwidth that is not finite and positive, before either
    producer reads it: both then fail the same way, at every width."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")


def kernel_sums(s: np.ndarray, t: np.ndarray, sigma: float,
                p_s: np.ndarray, p_t: np.ndarray):
    """(K_ss p_s, K_ts p_s, K_ts^T p_t, K_tt p_t), from ``chebyshev_sums``
    exactly when ``chebyshev_axes`` finds axes, else from ``gram_sums``.
    Both s and t must have rows, and ``sigma`` must be finite and
    positive."""
    _check_sigma(sigma)
    axes = chebyshev_axes(s, t, sigma)
    if axes is None:
        return gram_sums(s, t, sigma, p_s, p_t)
    return chebyshev_sums(s, t, sigma, axes, p_s, p_t)


def kernel_totals(s: np.ndarray, t: np.ndarray, sigma: float,
                  p_s: np.ndarray, p_t: np.ndarray):
    """(p_s^T K_ss p_s, p_t^T K_ts p_s, p_t^T K_tt p_t), from
    ``chebyshev_totals`` exactly when ``chebyshev_axes`` finds axes, else
    as p^T of ``gram_sums``. Both s and t must have rows, and ``sigma``
    must be finite and positive."""
    _check_sigma(sigma)
    axes = chebyshev_axes(s, t, sigma)
    if axes is None:
        r_ss, r_ts, _, r_tt = gram_sums(s, t, sigma, p_s, p_t)
        return p_s.T @ r_ss, p_t.T @ r_ts, p_t.T @ r_tt
    return chebyshev_totals(s, t, sigma, axes, p_s, p_t)
