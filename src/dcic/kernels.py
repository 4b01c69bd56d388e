"""Gaussian kernel primitives: Gram blocks written into an optional
caller buffer, the median-distance bandwidth heuristic, and a low-rank
producer of the kernel pass's per-row sums. The weighted squared MMD built
from these lives in one place, the kernel pass of ``linear._MmdProblem``,
which takes its per-row sums K P from one of two producers: chunked Gram
blocks (``gaussian_gram``), or at projected width 1 or 2 the Gaussian
interpolated at Chebyshev points (``chebyshev_sums``), when that costs
less.

The Gram blocks and the bandwidth take each block of squared distances,
or of the Gaussian exponent, as one BLAS product of slices of per-row
augmented operands (``_augmented``), at every width, shifted first to a
column mean: the kernel and the distance depend only on a - b, and the
shift keeps the product from cancelling when the points sit far from the
origin. The operands are built once per row set (and shift), not once per
block: once per call in ``median_bandwidth``, and once per direct pass,
which hands ``gaussian_gram`` row slices of them.

The bandwidth is the median distance over all pairs of rows up to 10^6
pairs, and above that over all pairs of a fixed-seed subset of 1414 rows,
the most whose pairs fit in 10^6: one exact path, run on every row or on
the subset.

With the median bandwidth the rows span only a few sigma per axis, and
over such a span the Gaussian is numerically low rank, as the black-box
fast multipole method uses (Fong & Darve, J. Comput. Phys. 2009). Each
axis takes the fewest Chebyshev points r whose interpolant is within
CHEB_TOL = 1e-15 of the Gaussian by the Bernstein-ellipse bound
(``chebyshev_nodes``): r follows from span / sigma alone, 34 at 5 sigma,
never from trials on the data, and an axis that would need more than
MAX_NODES = 64 (beyond 12.7 sigma) leaves the pass to the Gram blocks.

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


def _median_of_roots(sq: np.ndarray, floor: float) -> float:
    """np.median(np.sqrt(np.where(sq > floor, sq, 0))) to the bit,
    reordering ``sq`` in place; ``floor`` >= 0.

    One select at k = size // 2 puts the upper middle value at k and the
    lower ones before it. Zeroing every value at or below ``floor`` is
    monotone, and sqrt is correctly rounded and monotone, so the roots of
    those two are the middle roots: rounding residue (a product block's
    negative entries, or identical rows' entries up to
    ``median_bandwidth``'s floor) needs no pass over ``sq``. np.median
    averages the two of an even count as (a + b) / 2. All values must be
    finite: np.median's NaN probe is not made here.
    """
    k = sq.size // 2
    sq.partition(k)
    hi = float(np.sqrt(sq[k])) if sq[k] > floor else 0.0
    if sq.size % 2:
        return hi
    lo = sq[:k].max()
    return ((float(np.sqrt(lo)) if lo > floor else 0.0) + hi) / 2.0


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
    block at a time into one reused buffer of at most _BLOCK_ENTRIES values,
    and the entries right of the block's diagonal, the strict upper
    triangle, are kept: no n x n array. A block is one BLAS product of
    slices of operands built once per call: the rows shifted to their
    column mean and augmented (``_augmented`` with g = -1), so a value can
    differ from a per-pair difference by rounding (about one ulp of sigma),
    at any offset of the points from the origin. Identical rows get a
    residue of either sign up to a floor (below), and every value at or
    below it counts as zero.

    The median is one select (``_median_of_roots``), bit-identical to
    np.median of the square roots with the floor applied. A 10000 x 2 call
    took 5.2-5.6 ms and a 2000 x 32 call 6.1 ms, against 31-32 and 9.5-9.7
    ms for a fixed draw of 10^6 pairs, on one OpenBLAS 0.3.31 thread of a
    2-CPU Xeon. Errors if fewer than 2 rows, any feature is not finite
    (checked on every row, not only the subset), or the median is zero
    (duplicated point set, such as the all-zero hidden rows of a dead ReLU
    layer making up most rows).
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
    buf = np.empty(min(step, n) * n)
    sq = np.empty(n * (n - 1) // 2)
    at = 0
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n)
        blk = buf[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        np.matmul(lhs[lo:hi], rhs[lo:].T, out=blk)
        # the strict upper triangle of the block's h x h diagonal part by a
        # mask, then the rectangle right of it; the select is order-free.
        # ~tri builds the mask in about 40% of np.triu(ones)'s time, which
        # made a 200 x 32 call slower than the row loop
        h = hi - lo
        tri = blk[:, :h][~np.tri(h, dtype=bool)]
        sq[at:at + tri.size] = tri
        at += tri.size
        rect = sq[at:at + h * (n - hi)].reshape(h, n - hi)
        rect[...] = blk[:, h:]
        at += rect.size
    med = _median_of_roots(sq, floor)
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical rows)")
    return med


def gaussian_gram(a: np.ndarray, b: np.ndarray, sigma: float,
                  out: np.ndarray | None = None,
                  operands: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
    """Dense kernel matrix k(a_i, b_j); the building block of the chunked
    kernel pass, which never holds a full Gram.

    ``out``, if given, is a float64 (len(a), len(b)) array that receives
    the kernel matrix and is returned, so a chunked pass can reuse one
    buffer; entries are bit-identical with and without it, and no other
    array of that size is allocated. ``sigma`` must be finite and positive.

    Either way one BLAS product of a's lhs and b's rhs operands is written
    into ``out`` and finished in place. With g = 1 / (2 sigma^2), the
    augmented operands (``_augmented``)

        [2g a, -g |a|^2, 1] . [b, 1, -g |b|^2]^T = -g ||a - b||^2,

    both shifted to the column mean of ``b``, give the exponent, which is
    clipped at zero (rounding residue) and exponentiated. ``operands``, if
    given, hands in (lhs, rhs) already built with g and one shared shift,
    one row per row of a and of b. The kernel pass builds them once per
    pass and passes row slices.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dim mismatch: {a.shape} vs {b.shape}")
    shape = (a.shape[0], b.shape[0])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    if operands is not None:
        lhs, rhs = operands
        if (len(lhs), len(rhs)) != shape:
            raise ValueError(f"operands must have {shape} rows")
    else:
        g = 0.5 / (sigma * sigma)
        # an empty b has no mean, and its product is empty whatever the shift
        shift = b.mean(axis=0) if len(b) else 0.0
        lhs, rhs = _augmented(a, shift, g)[0], _augmented(b, shift, g)[1]
    np.matmul(lhs, rhs.T, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


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
    ``chebyshev_nodes`` at width (hi - lo) / sigma. None at width >= 3,
    with no rows on one side, or when an axis would need more than
    MAX_NODES points (wide spans, outliers, far-apart clouds): such a pass
    takes the direct blocks.
    """
    if s.shape[1] > 2 or not (len(s) and len(t)):
        return None
    axes = []
    for lo, hi in zip(np.minimum(s.min(axis=0), t.min(axis=0)),
                      np.maximum(s.max(axis=0), t.max(axis=0))):
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


def _lagrange(x: np.ndarray, lo: float, hi: float, r: int) -> np.ndarray:
    """(len(x), r) Lagrange weights of the values x at r Chebyshev points
    of the second kind on [lo, hi], by the barycentric formula, filled in
    row blocks. A value that lands on a node gets that node's unit row;
    one point (r = 1) is the constant interpolant."""
    if r == 1:
        return np.ones((x.size, 1))
    nodes = _chebyshev_points(r)
    bary = (-1.0) ** np.arange(r)
    bary[[0, -1]] *= 0.5
    u = (x - (lo + hi) / 2.0) / ((hi - lo) / 2.0)
    out = np.empty((x.size, r))
    for a, b in _row_blocks(x.size, r):
        q = np.subtract(u[a:b, None], nodes, out=out[a:b])
        # a value on a node divides by zero: its row sum is infinite, and
        # the row reads NaN at that node and zero elsewhere
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(bary, q, out=q)
            total = q.sum(axis=1)
            q /= total[:, None]
        hit = ~np.isfinite(total)
        if hit.any():
            q[hit] = np.isnan(q[hit])
    return out


def _chebyshev_points(r: int) -> np.ndarray:
    """The r > 1 Chebyshev points of the second kind on [-1, 1], from 1
    down; the sin form makes them symmetric about 0 to the bit."""
    return np.sin(np.pi * (r - 1 - 2 * np.arange(r)) / (2 * (r - 1)))


def _node_gram(lo: float, hi: float, r: int, sigma: float) -> np.ndarray:
    """The one-axis Gaussian between the r Chebyshev points on [lo, hi]."""
    if r == 1:
        return np.ones((1, 1))
    nodes = _chebyshev_points(r)
    diff = (nodes[:, None] - nodes) * ((hi - lo) / (2.0 * sigma))
    return np.exp(-0.5 * diff * diff)


def _moments(l1: np.ndarray, l2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(r1, k, r2) sums over the rows of l1[i, a] p[i, j] l2[i, b], one
    r1 x r2 moment per column of p, in row blocks: no (rows, r1 r2)
    product of the two axes' weights."""
    r1, k, r2 = l1.shape[1], p.shape[1], l2.shape[1]
    out = np.zeros((r1, k * r2))
    for a, b in _row_blocks(len(p), k * r2):
        rows = (p[a:b, :, None] * l2[a:b, None, :]).reshape(b - a, k * r2)
        out += l1[a:b].T @ rows
    return out.reshape(r1, k, r2)


def _at_rows(l1: np.ndarray, l2: np.ndarray, coef: np.ndarray,
             out: np.ndarray) -> None:
    """out[i, j] = the sum over a, b of l1[i, a] coef[a, j, b] l2[i, b], in
    row blocks."""
    r1, k, r2 = coef.shape
    flat = coef.reshape(r1, k * r2)
    for a, b in _row_blocks(len(l1), k * r2):
        y = (l1[a:b] @ flat).reshape(b - a, k, r2)
        np.einsum("ijb,ib->ij", y, l2[a:b], out=out[a:b])


def chebyshev_sums(s: np.ndarray, t: np.ndarray, sigma: float, axes,
                   p_s: np.ndarray, p_t: np.ndarray, p_st: np.ndarray):
    """The kernel pass's per-row sums (K_ss p_s, K_ts p_s, K_ts^T p_st,
    K_tt p_t), with K_ts = k(t_i, s_j), from the Gaussian interpolated at
    the Chebyshev points of ``axes`` (``chebyshev_axes``) in both
    arguments: no kernel block is formed.

    Per axis, k(x, y) ~ sum_ab l_a(x) k(z_a, z_b) l_b(y), with l the
    Lagrange weights of the points z. The Gaussian is a product over axes,
    so at width 2 each column p of a row set gives one r1 x r2 moment
    M = L1^T diag(p) L2 (``_moments``), the node Grams act on it one axis
    at a time, K1 M K2, and a row x reads l1(x)^T (K1 M K2) l2(x)
    (``_at_rows``). Width 1 is the same with a one-point second axis, as is
    an axis of zero span. Each row set's weights are built once, in row
    blocks, and the moments and the read-outs run in row blocks too.
    Without p_st columns the source rows are read out before the target
    rows' weights are built, so one row set's weights are held at a time.

    Each axis's interpolant is within CHEB_TOL of the Gaussian, so an
    interpolated entry is within about (2 + 2 Lambda) CHEB_TOL of the
    kernel, Lambda being the points' Lebesgue constant (below 3.7 at 64
    points), and each sum within that times sum |p| of its column.
    """
    ks, kt = p_s.shape[1], p_t.shape[1]
    at_s = np.empty((len(s), ks + p_st.shape[1]))
    at_t = np.empty((len(t), ks + kt))
    grams = [_node_gram(lo, hi, r, sigma) for lo, hi, r in axes]
    grams += [np.ones((1, 1))] * (2 - len(axes))

    def weights(x):
        """The two axes' Lagrange weights of the rows x."""
        ls = [_lagrange(x[:, k], lo, hi, r)
              for k, (lo, hi, r) in enumerate(axes)]
        return ls + [np.ones((len(x), 1))] * (2 - len(axes))

    def through_nodes(l1, l2, p):
        mom = _moments(l1, l2, p)
        r1, k, r2 = mom.shape
        coef = (grams[0] @ mom.reshape(r1, k * r2)).reshape(r1 * k, r2)
        return (coef @ grams[1]).reshape(r1, k, r2)

    ls = weights(s)
    from_s = through_nodes(*ls, p_s)
    if not p_st.shape[1]:
        _at_rows(*ls, from_s, at_s)
        ls = None
    lt = weights(t)
    from_t = through_nodes(*lt, np.hstack([p_t, p_st]))
    _at_rows(*lt, np.concatenate([from_s, from_t[:, :kt]], axis=1), at_t)
    if ls is not None:
        _at_rows(*ls, np.concatenate([from_s, from_t[:, kt:]], axis=1), at_s)
    return at_s[:, :ks], at_t[:, :ks], at_s[:, ks:], at_t[:, ks:]
