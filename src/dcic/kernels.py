"""Gaussian kernel primitives: pairwise squared distances, the
median-distance bandwidth heuristic and Gram blocks written into an
optional caller buffer. The weighted squared MMD built from these blocks
lives in one place, the chunked kernel pass of ``linear._MmdProblem``.

Convention: k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).
"""

from __future__ import annotations

import numpy as np

MAX_EXACT_PAIRS = 10 ** 6
_SUBSAMPLE_SEED = 74  # fixed: the heuristic must not depend on caller seeds
_BLOCK_ENTRIES = 2 ** 15  # float64 values per temporary block (256 KiB)


def squared_distances(a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """All pairwise ||a_i - b_j||^2.

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
    plain expression. Negative rounding residue is clipped at zero so
    downstream kernels stay in (0, 1]. (At two columns a direct difference
    took 4.3 against the expansion's 3.2 ns per entry, so it is kept to
    width 1.)
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dim mismatch: {a.shape} vs {b.shape}")
    shape = (a.shape[0], b.shape[0])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    if a.shape[1] == 1:
        np.subtract.outer(a[:, 0], b[:, 0], out=out)
        return np.square(out, out=out)
    np.matmul(a, b.T, out=out)
    a_sq = (a * a).sum(axis=1)
    b_sq = (b * b).sum(axis=1)
    # |a|^2 + |b|^2 goes in a row block at a time, so its temporary stays
    # small; -2ab + (|a|^2 + |b|^2) rounds exactly as (|a|^2 + |b|^2) - 2ab
    step = max(1, _BLOCK_ENTRIES // max(1, shape[1]))
    for lo in range(0, shape[0], step):
        blk = out[lo:lo + step]
        blk *= -2.0
        blk += np.add.outer(a_sq[lo:lo + step], b_sq)
    return np.maximum(out, 0.0, out=out)


def median_bandwidth(features: np.ndarray) -> float:
    """Median Euclidean distance over all i < j pairs.

    Exact when the pair count is at most 10^6; beyond that a fixed-seed
    subsample of 10^6 pairs is used (the heuristic is statistical, exactness
    buys nothing at that size). Both branches stream squared distances into
    one vector, a block of about _BLOCK_ENTRIES values at a time through
    reused buffers of cache size, and take the median of its square roots.
    The exact branch computes the row block [lo, hi) against rows lo.. and
    keeps the entries right of its diagonal, the strict upper triangle; the
    subsample branch gathers its pairs' difference rows. Memory is
    O(pairs + block), with no n x n or (pairs, d) array. Errors if fewer
    than 2 rows or the median is zero (duplicated point set).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("median_bandwidth needs at least 2 rows")
    n = x.shape[0]
    n_pairs = n * (n - 1) // 2
    if n_pairs <= MAX_EXACT_PAIRS:
        sq = np.empty(n_pairs)
        step = max(1, _BLOCK_ENTRIES // n)
        buf = np.empty(min(step, n) * n)
        at = 0
        for lo in range(0, n - 1, step):
            hi = min(lo + step, n)
            blk = squared_distances(
                x[lo:hi], x[lo:],
                out=buf[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo))
            for r in range(hi - lo):
                row = blk[r, r + 1:]
                sq[at:at + row.size] = row
                at += row.size
    else:
        rng = np.random.default_rng(_SUBSAMPLE_SEED)
        i = rng.integers(0, n, size=MAX_EXACT_PAIRS)
        j = rng.integers(0, n, size=MAX_EXACT_PAIRS)
        keep = i != j
        sq = np.empty(int(keep.sum()))
        # two (pairs, d) buffers of about _BLOCK_ENTRIES values each, reused
        # for every block: no allocation or page fault inside the loop
        step = max(1, _BLOCK_ENTRIES // max(1, x.shape[1]))
        diff = np.empty((step, x.shape[1]))
        other = np.empty_like(diff)
        at = 0
        for lo in range(0, MAX_EXACT_PAIRS, step):
            kb = keep[lo:lo + step]
            ib, jb = i[lo:lo + step][kb], j[lo:lo + step][kb]
            d, o = diff[:ib.size], other[:ib.size]
            # mode="clip": with the default "raise", numpy gathers into a
            # temporary and copies it to out; indices from integers(0, n)
            # are always in range, so clipping never changes a value
            np.take(x, ib, axis=0, out=d, mode="clip")
            np.take(x, jb, axis=0, out=o, mode="clip")
            d -= o
            d *= d
            d.sum(axis=1, out=sq[at:at + ib.size])
            at += ib.size
    med = float(np.median(np.sqrt(sq, out=sq), overwrite_input=True))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical rows)")
    return med


def gaussian_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for single vectors."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dim mismatch: {x.shape} vs {y.shape}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def gaussian_gram(a: np.ndarray, b: np.ndarray, sigma: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel matrix k(a_i, b_j); the building block of the chunked
    kernel pass, which never holds a full Gram.

    ``out``, if given, is a float64 (len(a), len(b)) array that receives
    the kernel matrix and is returned, so a chunked pass can reuse one
    buffer. The squared distances, the division by -2 sigma^2 and the exp
    all happen in that array; entries are bit-identical with and without
    ``out``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k = squared_distances(a, b, out=out)
    k /= -2.0 * sigma * sigma
    return np.exp(k, out=k)

