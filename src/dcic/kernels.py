"""Gaussian kernel primitives: Gram blocks written into an optional
caller buffer, and the median-distance bandwidth heuristic. The weighted
squared MMD built from these blocks lives in one place, the chunked kernel
pass of ``linear._MmdProblem``.

Both take each block of squared distances, or of the Gaussian exponent,
as one BLAS product of slices of per-row augmented operands
(``_augmented``), at every width, shifted first to a column mean: the
kernel and the distance depend only on a - b, and the shift keeps the
product from cancelling when the points sit far from the origin. The
operands are built once per row set (and shift), not once per block: once
per call in ``median_bandwidth``, and once per pass in the kernel pass,
which hands ``gaussian_gram`` row slices of them.

The bandwidth is the median distance over all pairs of rows up to 10^6
pairs, and above that over all pairs of a fixed-seed subset of 1414 rows,
the most whose pairs fit in 10^6: one exact path, run on every row or on
the subset.

Convention: k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).
"""

from __future__ import annotations

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
