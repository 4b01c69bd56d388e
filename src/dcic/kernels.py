"""Gaussian kernel primitives: Gram blocks written into an optional
caller buffer, pairwise squared distances and the median-distance
bandwidth heuristic. The weighted squared MMD built from these blocks
lives in one place, the chunked kernel pass of ``linear._MmdProblem``.

A Gram block takes one of two paths by feature width. One column (every
d' = 1 projection) takes direct differences, correctly rounded. Two or
more take one BLAS product of augmented operands, shifted first to the
column mean of ``b``: the kernel depends only on a - b, and the shift
keeps the expansion from cancelling when the points sit far from the
origin.

The bandwidth takes one of three branches by the pair count P of n rows.
Up to 10^6 pairs it is exact. Above, it uses a fixed-seed draw of 10^6
pairs, cached per n for the last two sizes. Up to 4 x 10^6 pairs that
draw touches at least a quarter of all pairs, and computing every
distance in cache-sized row blocks and taking the drawn ones by offset
beats gathering 10^6 difference rows (4 MB per cached plan). Beyond that
the drawn rows are gathered (8 MB per cached plan). Its squared
distances at width >= 2 are the unshifted inner-product expansion.

Convention: k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_EXACT_PAIRS = 10 ** 6
_SUBSAMPLE_SEED = 74  # fixed: the heuristic must not depend on caller seeds
_BLOCK_ENTRIES = 2 ** 15  # float64 values per temporary block (256 KiB)
_OFFSET_BITS = 15  # a flat offset into one block is below _BLOCK_ENTRIES
# the blocked dense branch beat the per-pair gather below about 4 M pairs
# at d = 2, 4.5 M at d = 8 and 5-6 M at d = 32 (warm calls, one BLAS
# thread); the bound takes the lowest
_DENSE_PAIRS = 4 * MAX_EXACT_PAIRS


def squared_distances(a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """All pairwise ||a_i - b_j||^2: the width-1 Gram blocks of
    ``gaussian_gram`` and, through ``_row_blocks``, the bandwidth.

    ``out``, if given, is a float64 array of shape (len(a), len(b)) that
    receives the result and is returned; no other array of that size is
    allocated.

    With one feature column (every d' = 1 projection) each entry is the
    direct difference (a_i - b_j)^2, taken with ``np.subtract.outer`` and
    squared in place: one correctly rounded subtraction and one product, so
    it is exact to rounding even where |a_i| and |b_j| are large and close,
    and faster than the expansion below (a 128 x 500 block: 1.7 against
    4.3 ns per entry on one OpenBLAS thread).

    With two or more columns it is the inner-product expansion
    (|a_i|^2 + |b_j|^2) - 2 a_i.b_j: a b^T is written straight into
    ``out`` by BLAS and the rest is done in place, bit-identical to the
    plain expression. Negative rounding residue is clipped at zero. The
    expansion is not shifted, so it loses digits when the points sit far
    from the origin relative to their spread. (At two columns a direct
    difference took 4.3 against the expansion's 3.2 ns per entry, so it is
    kept to width 1.)
    """
    return _squared_distances_into(*_operands(a, b, out))


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


def _squared_distances_into(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                            a_sq: np.ndarray | None = None,
                            b_sq: np.ndarray | None = None) -> np.ndarray:
    """``squared_distances`` into a checked ``out``. a_sq and b_sq, if
    given, are the rows' squared norms (x * x).sum(axis=1); a caller that
    passes the same rows block after block computes them once. A row's sum
    does not depend on the rows around it, so the result is bit-identical."""
    if a.shape[1] == 1:
        np.subtract.outer(a[:, 0], b[:, 0], out=out)
        return np.square(out, out=out)
    np.matmul(a, b.T, out=out)
    if a_sq is None:
        a_sq = (a * a).sum(axis=1)
    if b_sq is None:
        b_sq = (b * b).sum(axis=1)
    shape = out.shape
    # |a|^2 + |b|^2 goes in a row block at a time, so its temporary stays
    # small; -2ab + (|a|^2 + |b|^2) rounds exactly as (|a|^2 + |b|^2) - 2ab
    step = max(1, _BLOCK_ENTRIES // max(1, shape[1]))
    for lo in range(0, shape[0], step):
        blk = out[lo:lo + step]
        blk *= -2.0
        blk += np.add.outer(a_sq[lo:lo + step], b_sq)
    return np.maximum(out, 0.0, out=out)


def _row_blocks(x: np.ndarray):
    """Yield squared_distances(x[lo:hi], x[lo:]) for row blocks [lo, hi)
    of about _BLOCK_ENTRIES values each, the rows' squared norms taken
    once. Every block is written into one reused contiguous buffer, so a
    caller must take what it needs before asking for the next."""
    n = x.shape[0]
    step = _block_rows(n)
    buf = np.empty(min(step, n) * n)
    norms = (x * x).sum(axis=1)
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n)
        out = buf[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        yield _squared_distances_into(x[lo:hi], x[lo:], out,
                                      norms[lo:hi], norms[lo:])


def _block_rows(n: int) -> int:
    """Rows per block of ``_row_blocks``; the dense plan's offsets use it."""
    return max(1, _BLOCK_ENTRIES // n)


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
        # (i - lo)(n - lo) + (j - lo) < step n <= 2^15; sorting the int32
        # key b 2^15 + offset in place orders the pairs by block
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


def _median_of_roots(sq: np.ndarray) -> float:
    """np.median(np.sqrt(sq)) to the bit, reordering ``sq`` in place.

    One select at k = size // 2 puts the upper middle value at k and the
    lower ones before it. sqrt is correctly rounded and monotone, so the
    roots of those are the middle roots, and np.median averages the two of
    an even count as (a + b) / 2. All values must be finite: np.median's
    NaN probe is not made here.
    """
    k = sq.size // 2
    sq.partition(k)
    hi = float(np.sqrt(sq[k]))
    if sq.size % 2:
        return hi
    return (float(np.sqrt(sq[:k].max())) + hi) / 2.0


def median_bandwidth(features: np.ndarray) -> float:
    """Median Euclidean distance over all i < j pairs.

    Three branches by the pair count P = n(n - 1) / 2, each streaming
    squared distances into one vector with no n x n or (pairs, d) array:

    - exact, P <= MAX_EXACT_PAIRS (10^6): the row block [lo, hi) against
      rows lo.. is computed into one reused buffer of about _BLOCK_ENTRIES
      values (``_row_blocks``) and the entries right of its diagonal, the
      strict upper triangle, are kept;
    - dense subsample, P <= _DENSE_PAIRS (4 x 10^6): a fixed-seed draw of
      10^6 pairs touches at least a quarter of all pairs, so the same
      block loop runs and each block's drawn pairs are taken from it by
      offset. The blocks use the BLAS expansion at d >= 2, so a value can
      differ from a per-pair difference by rounding (about one ulp of
      sigma);
    - sparse subsample, above: the drawn pairs' difference rows are
      gathered through two reused buffers of about _BLOCK_ENTRIES values.

    The subsample is statistical: exactness buys nothing at that size. Its
    pair draw depends only on n and is cached per n (``_subsample_plan``,
    the last two sizes: 4 MB per dense plan, 8 MB per sparse one). The
    median is one select over the squared distances (``_median_of_roots``),
    bit-identical to np.median of their square roots. Errors if fewer than
    2 rows, any feature is not finite, or the median is zero (duplicated
    point set).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("median_bandwidth needs at least 2 rows")
    if not np.isfinite(x).all():
        raise ValueError("median_bandwidth needs finite features")
    n = x.shape[0]
    n_pairs = n * (n - 1) // 2
    if n_pairs <= MAX_EXACT_PAIRS:
        sq = np.empty(n_pairs)
        at = 0
        for blk in _row_blocks(x):
            for r in range(blk.shape[0]):
                row = blk[r, r + 1:]
                sq[at:at + row.size] = row
                at += row.size
    elif n_pairs <= _DENSE_PAIRS:
        offsets, counts = _subsample_plan(n)
        sq = np.empty(offsets.size)
        at = 0
        for blk, cnt in zip(_row_blocks(x), counts):
            # mode="clip": with the default "raise", numpy gathers into a
            # temporary and copies it to out; the offsets are in range, so
            # clipping never changes a value
            np.take(blk.ravel(), offsets[at:at + cnt], out=sq[at:at + cnt],
                    mode="clip")
            at += cnt
    else:
        i, j = _subsample_plan(n)
        sq = np.empty(i.size)
        # two (pairs, d) buffers of about _BLOCK_ENTRIES values each, reused
        # for every block: no allocation or page fault inside the loop
        step = max(1, _BLOCK_ENTRIES // x.shape[1])
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
    med = _median_of_roots(sq)
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

    Two or more: both operands are shifted by the column mean of ``b``,
    which changes no kernel value in exact arithmetic and keeps the
    expansion below from cancelling when the points sit far from the
    origin (``a - mean`` is exact for points within a factor of two of the
    mean). With g = 1 / (2 sigma^2) and shifted rows, one BLAS product

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
    shift = b.mean(axis=0)
    a = a - shift
    b = b - shift
    g = 0.5 / (sigma * sigma)
    lhs = np.column_stack([a * (2.0 * g), (a * a).sum(axis=1) * -g,
                           np.ones(a.shape[0])])
    rhs = np.column_stack([b, np.ones(b.shape[0]), (b * b).sum(axis=1) * -g])
    np.matmul(lhs, rhs.T, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)
