"""Core value types shared by every stage: datasets, flip-rate matrices,
class priors, and orthonormal projections; and the dataset CSV reader.

Labels are 1-based everywhere in the public API. All types are validated at
construction and frozen afterwards, so instances can be shared read-only
across workers. Two rules here serve every value type of the package:

- ``frozen_field`` stores each array field: a private C-contiguous copy
  of the field's dtype, refused if it is a float array with a NaN or an
  inf, and frozen. The caller's array is never stored or frozen.
- ``check_labels`` checks each label vector: it must be non-empty, with
  every label an integer in 1..c.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-9
PRIOR_SUM_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8
COND_BOUND = 1e6


def int_field(name: str, value) -> int:
    """A config field's integer value, as an int. A bool, a float (even an
    integral one such as 60.0) or any other non-integer raises ValueError:
    truncating it would run a different config than the one given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def float_field(name: str, value) -> float:
    """A config field's real value, as a float. A bool, a non-number or a
    non-finite value (JSON configs may hold NaN and Infinity) raises
    ValueError: JSON's true would otherwise run as 1.0, and a NaN tolerance
    would never be met."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def frozen_field(obj, name: str, value, dtype=np.float64) -> np.ndarray:
    """Store ``value`` as the array field ``name`` of the frozen dataclass
    ``obj``, and return it: a C-contiguous copy of ``dtype``, made
    read-only. A float array with a non-finite entry raises ValueError
    naming the field. The copy is always made, so the caller's array stays
    writable and a later write to it leaves the field as it was."""
    a = np.array(value, dtype=dtype, order="C")
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{name} contain non-finite entries")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def check_labels(labels, c: int | None) -> int:
    """The class count of a 1-based label vector: ``c``, or the largest
    label when ``c`` is None. An empty vector, a label that is not an
    integer (checked on the values given, before any cast, so 1.5 is not
    read as 1, nor True as 1), a label below 1 and a label above ``c``
    raise ValueError, in that order."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("labels must be a non-empty vector")
    if labels.dtype == bool or not (
            np.issubdtype(labels.dtype, np.integer)
            or np.all(np.isfinite(labels) & (labels == np.round(labels)))):
        raise ValueError("labels must be integers")
    if labels.min() < 1:
        raise ValueError(f"labels must be >= 1, got {int(labels.min())}")
    c = int(labels.max()) if c is None else c
    if labels.max() > c:
        raise ValueError(f"labels must lie in 1..{c}")
    return c


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional 1-based integer labels. Whether labels
    are clean or noisy is set by where a dataset is passed (``fit`` takes
    a noisy source and an unlabeled target), not by the dataset.

    Args:
        features: (n, d) real matrix, one row per sample.
        labels: optional (n,) int vector in {1..n_classes}.
        n_classes: number of classes, an int (a bool or a float is
            refused); defaults to max(labels) when labels are present.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    n_classes: int | None = None

    def __post_init__(self):
        feats = frozen_field(self, "features", self.features)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if self.n_classes is not None:
            c = int_field("n_classes", self.n_classes)
            if c < 1:
                raise ValueError(f"n_classes must be >= 1, got {c}")
            object.__setattr__(self, "n_classes", c)
        if self.labels is None:
            return

        if np.shape(self.labels) != feats.shape[:1]:
            raise ValueError("labels must be a vector matching the sample count")
        object.__setattr__(self, "n_classes",
                           check_labels(self.labels, self.n_classes))
        frozen_field(self, "labels", self.labels, np.int64)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Same labels and class count over a new feature matrix."""
        return Dataset(features, self.labels, self.n_classes)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic c x c flip-rate matrix: entry (i, j) is the probability
    that clean class i is observed as class j.

    Rejected at construction if rows do not sum to one, entries leave [0, 1],
    or the condition number exceeds COND_BOUND (the pipeline multiplies by
    the inverse, so ill-conditioned matrices would silently amplify noise).
    """

    q: np.ndarray

    def __post_init__(self):
        q = frozen_field(self, "q", self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"transition matrix must be square, got {q.shape}")
        if np.any(q < -1e-12) or np.any(q > 1 + 1e-12):
            raise ValueError("transition entries must lie in [0, 1]")
        row_sums = q.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, got {row_sums}")
        cond = np.linalg.cond(q)
        if not np.isfinite(cond) or cond > COND_BOUND:
            raise ValueError(
                f"transition matrix is singular or ill-conditioned (cond={cond:.3g}, "
                f"bound={COND_BOUND:.3g})"
            )

    @property
    def n_classes(self) -> int:
        return self.q.shape[0]

    def to_json(self) -> str:
        return json.dumps({"c": self.n_classes, "rows": self.q.tolist()})

    @staticmethod
    def from_json(text: str, source: str) -> "TransitionMatrix":
        """The matrix that ``to_json`` wrote; every error it raises names
        ``source``, the text's origin (a file path). Each entry is read by
        ``float_field``, so a JSON boolean or a numeric string is refused."""
        obj = json.loads(text)
        missing = [k for k in ("c", "rows")
                   if not isinstance(obj, dict) or k not in obj]
        if missing:
            raise ValueError(f"{source}: missing key(s) {', '.join(missing)}")
        c = int_field(f"{source}: c", obj["c"])
        rows = obj["rows"]
        if not (isinstance(rows, list) and len(rows) == c and all(
                isinstance(row, list) and len(row) == c for row in rows)):
            raise ValueError(f"{source}: rows must be c = {c} lists of {c} "
                             f"numbers each")
        rows = [[float_field(f"{source}: rows[{i}][{j}]", v)
                 for j, v in enumerate(row)] for i, row in enumerate(rows)]
        try:
            return TransitionMatrix(rows)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None


def symmetric_noise(c: int, rho: float) -> TransitionMatrix:
    """Uniform flip matrix: stay with probability 1 - rho, flip to each other
    class with probability rho / (c - 1)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if c < 2 and rho > 0:
        raise ValueError("flipping requires at least 2 classes")
    q = np.full((c, c), rho / (c - 1) if c > 1 else 0.0)
    np.fill_diagonal(q, 1.0 - rho)
    return TransitionMatrix(q)


@dataclass(frozen=True)
class ClassPrior:
    """Probability vector over classes: entries >= 0, summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = frozen_field(self, "p", self.p)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("prior must be a non-empty vector")
        if np.any(p < 0):
            raise ValueError("prior entries must be finite and non-negative")
        if abs(p.sum() - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"prior must sum to 1 within {PRIOR_SUM_TOL}, got {float(p.sum())}")

    @property
    def n_classes(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class Projection:
    """Column-orthonormal d x d' matrix realizing the feature map x -> W^T x."""

    w: np.ndarray

    def __post_init__(self):
        w = frozen_field(self, "w", self.w)
        if w.ndim != 2:
            raise ValueError("projection must be a matrix")
        d, d_prime = w.shape
        if d_prime > d:
            raise ValueError(f"projection is {d}x{d_prime}; need d' <= d")
        gram = w.T @ w
        err = np.linalg.norm(gram - np.eye(d_prime))
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"columns not orthonormal: ||W^T W - I||_F = {err:.3g}")


def empirical_prior(labels: np.ndarray, c: int) -> ClassPrior:
    """Relative class frequencies of a 1-based label vector, refused as
    ``check_labels`` refuses it."""
    check_labels(labels, c)
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels - 1, minlength=c).astype(np.float64)
    return ClassPrior(counts / labels.size)


def read_dataset_csv(path: str) -> Dataset:
    """Load a dataset from CSV: a header row ``f1,...,fd[,label]``, then one
    row per sample of d floats and, under a ``label`` header, a 1-based
    integer label. The class count is the largest label; a file without
    a label column loads unlabeled. A non-blank row whose field
    count is not the header's, or a field that does not parse, raises
    ValueError naming the file and line; a header without feature columns,
    a file without data rows and every value ``Dataset`` refuses (a
    non-finite feature, a label below 1) raise ValueError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        has_label = header[-1:] == ["label"]
        n_feats = len(header) - (1 if has_label else 0)
        if n_feats == 0:
            raise ValueError(f"{path}: header {header} has no feature columns")
        if header[:n_feats] != [f"f{i + 1}" for i in range(n_feats)]:
            raise ValueError(f"{path}: malformed header {header}")
        feats, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} "
                                 f"fields, the header has {len(header)}")
            try:
                feats.append([float(v) for v in row[:n_feats]])
                if has_label:
                    labels.append(int(row[n_feats]))
            except ValueError as exc:  # a feature or label that does not parse
                raise ValueError(
                    f"{path}, line {reader.line_num}: {exc}") from None
    if not feats:
        raise ValueError(f"{path}: no data rows")
    try:
        if has_label:
            return Dataset(feats, np.asarray(labels))
        return Dataset(feats)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
