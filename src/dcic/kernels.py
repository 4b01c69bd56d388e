"""Gaussian kernel primitives: Gram blocks written into an optional
caller buffer, pairwise squared distances and the median-distance
bandwidth heuristic. The weighted squared MMD built from these blocks
lives in one place, the chunked kernel pass of ``linear._MmdProblem``.

A Gram block or a block of squared distances takes one of two paths by
feature width. One column (every d' = 1 projection) takes direct
differences, correctly rounded. Two or more take one BLAS product of
augmented operands (``_augmented``), shifted first to a column mean: the
kernel and the distance depend only on a - b, and the shift keeps the
product from cancelling when the points sit far from the origin.

The bandwidth takes one of three branches by the pair count P of n rows.
Up to 10^6 pairs it is exact. Above, it uses a fixed-seed draw of 10^6
pairs, cached per n for the last two sizes. Up to 4 x 10^6 pairs that
draw touches at least a quarter of all pairs, and computing every
distance in cache-sized row blocks and taking the drawn ones by offset
beats gathering 10^6 difference rows (4 MB per cached plan). Beyond that
the drawn rows are gathered (8 MB per cached plan).

Convention: k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

MAX_EXACT_PAIRS = 10 ** 6
_SUBSAMPLE_SEED = 74  # fixed: the heuristic must not depend on caller seeds
_GATHER_ENTRIES = 2 ** 15  # values per sparse-branch gather buffer (256 KiB)
# a row block of all distances holds at most 2^_OFFSET_BITS values (512 KiB),
# so a flat offset into one fits in _OFFSET_BITS bits; 2^16 beat 2^15 on a
# 2000 x 32 dense call (4.7 against 5.5 ms, one OpenBLAS thread)
_OFFSET_BITS = 16
# the blocked dense branch beat the per-pair gather below about 4 M pairs
# at d = 2, 4.5 M at d = 8 and 5-6 M at d = 32 (warm calls, one BLAS
# thread); the bound takes the lowest
_DENSE_PAIRS = 4 * MAX_EXACT_PAIRS


def squared_distances(a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """All pairwise ||a_i - b_j||^2; the width-1 Gram blocks of
    ``gaussian_gram``.

    ``out``, if given, is a float64 array of shape (len(a), len(b)) that
    receives the result and is returned; no other array of that size is
    allocated.

    With one feature column (every d' = 1 projection) each entry is the
    direct difference (a_i - b_j)^2, taken with ``np.subtract.outer`` and
    squared in place: one correctly rounded subtraction and one product, so
    it is exact to rounding even where |a_i| and |b_j| are large and close.

    With two or more columns both operands are shifted to the column mean
    of ``b`` and one BLAS product of augmented rows (``_augmented`` with
    g = -1),

        [-2a, |a|^2, 1] . [b, 1, |b|^2]^T = ||a - b||^2,

    is written into ``out``, its negative rounding residue clipped at zero.
    Two identical rows need not give exactly zero: see ``_row_blocks``.
    """
    a, b, out = _operands(a, b, out)
    if a.shape[1] == 1:
        np.subtract.outer(a[:, 0], b[:, 0], out=out)
        return np.square(out, out=out)
    lhs, rhs = _augmented(a, b, -1.0)
    np.matmul(lhs, rhs.T, out=out)
    return np.maximum(out, 0.0, out=out)


def _operands(a, b, out):
    """(a, b, out) as float64 arrays, a and b (rows, d) of one width d and
    ``out`` of shape (len(a), len(b)), allocated when None."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dim mismatch: {a.shape} vs {b.shape}")
    shape = (a.shape[0], b.shape[0])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    return a, b, out


def _augmented(a: np.ndarray, b: np.ndarray,
               g: float) -> tuple[np.ndarray, np.ndarray]:
    """Augmented operands (lhs, rhs) with lhs @ rhs.T = -g ||a_i - b_j||^2.

    Both are shifted to the column mean of ``b`` first, then

        lhs = [2g a, -g |a|^2, 1],  rhs = [b, 1, -g |b|^2].

    g = 1 / (2 sigma^2) gives the Gaussian exponent, g = -1 the squared
    distance. Both depend only on a - b, so the shift changes no value in
    exact arithmetic; it keeps the product from cancelling when the points
    sit far from the origin relative to their spread (``a - mean`` is exact
    for points within a factor of two of the mean). An empty ``b`` has no
    mean to take, and its product is empty whatever the shift.
    """
    shift = b.mean(axis=0) if len(b) else 0.0
    a = a - shift
    b = b - shift
    lhs = np.column_stack([a * (2.0 * g), (a * a).sum(axis=1) * -g,
                           np.ones(a.shape[0])])
    rhs = np.column_stack([b, np.ones(b.shape[0]), (b * b).sum(axis=1) * -g])
    return lhs, rhs


def _row_blocks(x: np.ndarray) -> tuple[Iterator[np.ndarray], float]:
    """(blocks, floor): the squared distances of rows [lo, hi) to rows
    lo.. for row blocks of at most 2^_OFFSET_BITS values each, and the
    largest value rounding can give two identical rows. Every block is
    written into one reused contiguous buffer, so a caller must take what
    it needs before asking for the next.

    At width 1 a block is ``squared_distances``' direct differences, and
    identical rows give exactly zero: floor is 0. At two or more the rows
    are shifted to their column mean and augmented once per call
    (``_augmented`` with g = -1); a block is then one BLAS product of
    slices of those operands, not clipped, so an entry can hold a rounding
    residue of either sign. For two identical shifted rows a with rounded
    squared norm s, the entry's exact value is 2 (s - |a|^2), at most
    2 gamma_d |a|^2, and summing its d + 2 terms, of total size at most
    4 |a|^2 (1 + gamma_d), adds at most gamma_{d+2} times that
    (gamma_k = k u / (1 - k u), u = eps / 2): below about 3 (d + 2) eps
    |a|^2 together, so floor = 4 (d + 2) eps max |a|^2. Random trials at
    d = 2 to 64 reached 0.62 (d + 2) eps |a|^2.
    """
    n, d = x.shape
    step = _block_rows(n)
    if d == 1:
        floor = 0.0
    else:
        lhs, rhs = _augmented(x, x, -1.0)
        eps = np.finfo(np.float64).eps
        floor = 4.0 * (d + 2) * eps * float(rhs[:, -1].max())

    def blocks():
        buf = np.empty(min(step, n) * n)
        for lo in range(0, n - 1, step):
            hi = min(lo + step, n)
            out = buf[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
            if d == 1:
                yield squared_distances(x[lo:hi], x[lo:], out)
            else:
                yield np.matmul(lhs[lo:hi], rhs[lo:].T, out=out)

    return blocks(), floor


def _block_rows(n: int) -> int:
    """Rows per block of ``_row_blocks``; the dense plan's offsets use it."""
    return max(1, (1 << _OFFSET_BITS) // n)


@functools.lru_cache(maxsize=2)
def _subsample_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-seed pair draw for n rows, built once per n.

    Draws i and j with two int64 ``rng.integers`` calls, drops i == j and
    puts each pair in (min, max) order, which changes no value:
    (a - b)^2 == (b - a)^2. Above _DENSE_PAIRS pairs it returns (i, j) as
    int32 (8 MB). At or below, it returns (offsets, counts): the pairs
    sorted by row block of ``_row_blocks``, each as its flat offset into
    that block's squared distances, and the pair count of every block
    (4 MB). Both arrays are read-only, since every call shares them.
    """
    rng = np.random.default_rng(_SUBSAMPLE_SEED)
    i = rng.integers(0, n, size=MAX_EXACT_PAIRS).astype(np.int32)
    j = rng.integers(0, n, size=MAX_EXACT_PAIRS).astype(np.int32)
    keep = i != j
    i, j = i[keep], j[keep]
    i, j = np.minimum(i, j), np.maximum(i, j, out=j)
    if n * (n - 1) // 2 > _DENSE_PAIRS:
        plan = (i, j)
    else:
        # pair (i, j) sits in row block b = i // step, which starts at row
        # lo = b step and is n - lo wide, at flat offset
        # (i - lo)(n - lo) + (j - lo) < step n <= 2^16; sorting the int32
        # key b 2^16 + offset in place orders the pairs by block
        step = _block_rows(n)
        blk = i // step
        lo = blk * step
        i -= lo
        j -= lo
        np.subtract(n, lo, out=lo)
        i *= lo
        i += j
        del j, lo  # 8 MB freed before the sort takes its own buffer
        blk <<= _OFFSET_BITS
        i += blk
        i.sort()
        n_blocks = len(range(0, n - 1, step))
        counts = np.diff(np.searchsorted(
            i, np.arange(n_blocks + 1, dtype=np.int32) << _OFFSET_BITS))
        i &= (1 << _OFFSET_BITS) - 1
        plan = (i, counts)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _median_of_roots(sq: np.ndarray, floor: float) -> float:
    """np.median(np.sqrt(np.where(sq > floor, sq, 0))) to the bit,
    reordering ``sq`` in place; ``floor`` >= 0.

    One select at k = size // 2 puts the upper middle value at k and the
    lower ones before it. Zeroing every value at or below ``floor`` is
    monotone, and sqrt is correctly rounded and monotone, so the roots of
    those two are the middle roots: rounding residue (a product block's
    negative entries, or identical rows' entries up to ``_row_blocks``'
    floor) needs no pass over ``sq``. np.median averages the two of an
    even count as (a + b) / 2. All values must be finite: np.median's NaN
    probe is not made here.
    """
    k = sq.size // 2
    sq.partition(k)
    hi = float(np.sqrt(sq[k])) if sq[k] > floor else 0.0
    if sq.size % 2:
        return hi
    lo = sq[:k].max()
    return ((float(np.sqrt(lo)) if lo > floor else 0.0) + hi) / 2.0


def median_bandwidth(features: np.ndarray) -> float:
    """Median Euclidean distance over all i < j pairs.

    Three branches by the pair count P = n(n - 1) / 2, each streaming
    squared distances into one vector with no n x n or (pairs, d) array:

    - exact, P <= MAX_EXACT_PAIRS (10^6): the row block [lo, hi) against
      rows lo.. is computed into one reused buffer of at most
      2^_OFFSET_BITS values (``_row_blocks``) and the entries right of its
      diagonal, the strict upper triangle, are kept;
    - dense subsample, P <= _DENSE_PAIRS (4 x 10^6): a fixed-seed draw of
      10^6 pairs touches at least a quarter of all pairs, so the same
      block loop runs and each block's drawn pairs are taken from it by
      offset;
    - sparse subsample, above: the drawn pairs' difference rows are
      gathered through two reused buffers of about _GATHER_ENTRIES values.

    At width 1 every squared distance is a direct difference. At two or
    more the exact and dense blocks are one BLAS product each of the rows
    shifted to their column mean, so a value can differ from a per-pair
    difference by rounding (about one ulp of sigma), at any offset of the
    points from the origin. Identical rows there get a residue of either
    sign up to 4 (d + 2) eps times the largest squared norm of a shifted
    row (``_row_blocks``' floor), and every value at or below that floor
    counts as zero. A 2000 x 32 dense call took 4.9 against the unshifted
    expansion's 8.3 ms on one OpenBLAS 0.3.31 thread of a 2-CPU Xeon.

    The subsample is statistical: exactness buys nothing at that size. Its
    pair draw depends only on n and is cached per n (``_subsample_plan``,
    the last two sizes: 4 MB per dense plan, 8 MB per sparse one). The
    median is one select over the squared distances (``_median_of_roots``),
    bit-identical to np.median of their square roots with the floor
    applied. Errors if fewer than 2 rows, any feature is not finite, or the
    median is zero (duplicated point set, such as the all-zero hidden rows
    of a dead ReLU layer making up most rows).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("median_bandwidth needs at least 2 rows")
    if not np.isfinite(x).all():
        raise ValueError("median_bandwidth needs finite features")
    n = x.shape[0]
    n_pairs = n * (n - 1) // 2
    if n_pairs <= MAX_EXACT_PAIRS:
        blocks, floor = _row_blocks(x)
        sq = np.empty(n_pairs)
        at = 0
        for blk in blocks:
            for r in range(blk.shape[0]):
                row = blk[r, r + 1:]
                sq[at:at + row.size] = row
                at += row.size
    elif n_pairs <= _DENSE_PAIRS:
        offsets, counts = _subsample_plan(n)
        blocks, floor = _row_blocks(x)
        sq = np.empty(offsets.size)
        at = 0
        for blk, cnt in zip(blocks, counts):
            # mode="clip": with the default "raise", numpy gathers into a
            # temporary and copies it to out; the offsets are in range, so
            # clipping never changes a value
            np.take(blk.ravel(), offsets[at:at + cnt], out=sq[at:at + cnt],
                    mode="clip")
            at += cnt
    else:
        i, j = _subsample_plan(n)
        sq = np.empty(i.size)
        floor = 0.0  # direct differences: identical rows give exactly zero
        # two (pairs, d) buffers of about _GATHER_ENTRIES values each, reused
        # for every block: no allocation or page fault inside the loop
        step = max(1, _GATHER_ENTRIES // x.shape[1])
        diff = np.empty((step, x.shape[1]))
        other = np.empty_like(diff)
        for lo in range(0, i.size, step):
            ib, jb = i[lo:lo + step], j[lo:lo + step]
            d, o = diff[:ib.size], other[:ib.size]
            np.take(x, ib, axis=0, out=d, mode="clip")
            np.take(x, jb, axis=0, out=o, mode="clip")
            d -= o
            d *= d
            d.sum(axis=1, out=sq[lo:lo + ib.size])
    med = _median_of_roots(sq, floor)
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical rows)")
    return med


def gaussian_gram(a: np.ndarray, b: np.ndarray, sigma: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel matrix k(a_i, b_j); the building block of the chunked
    kernel pass, which never holds a full Gram.

    ``out``, if given, is a float64 (len(a), len(b)) array that receives
    the kernel matrix and is returned, so a chunked pass can reuse one
    buffer; entries are bit-identical with and without it. ``sigma`` must
    be finite and positive.

    One feature column: ``squared_distances``' direct differences, divided
    by -2 sigma^2 and exponentiated in ``out``.

    Two or more: with g = 1 / (2 sigma^2), one BLAS product of the
    operands shifted to the column mean of ``b`` (``_augmented``)

        [2g a, -g |a|^2, 1] . [b, 1, -g |b|^2]^T = -g ||a - b||^2

    is written into ``out``, clipped at zero (rounding residue) and
    exponentiated in place: no further pass over the block. A 128-row
    block took 1.7 against the unshifted expansion's 2.8 ns per entry at
    d = 2 (5000 columns) and 2.7 against 3.9 at d = 32 (2000 columns), on
    one OpenBLAS 0.3.31 thread of a 2-CPU Xeon.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    a, b, out = _operands(a, b, out)
    if a.shape[1] == 1:
        k = squared_distances(a, b, out=out)
        k /= -2.0 * sigma * sigma
        return np.exp(k, out=k)
    lhs, rhs = _augmented(a, b, 0.5 / (sigma * sigma))
    np.matmul(lhs, rhs.T, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)
