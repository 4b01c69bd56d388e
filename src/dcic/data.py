"""Core value types shared by every stage: datasets, flip-rate matrices,
class priors, and orthonormal projections; and the dataset CSV reader.

Labels are 1-based everywhere in the public API. All types are validated at
construction and frozen afterwards, so instances can be shared read-only
across workers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

LABEL_KINDS = ("clean", "noisy", "unlabeled")

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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional 1-based integer labels.

    Args:
        features: (n, d) real matrix, one row per sample.
        labels: optional (n,) int vector in {1..n_classes}.
        label_kind: "clean", "noisy", or "unlabeled".
        n_classes: number of classes; defaults to max(labels) when labels
            are present.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    label_kind: str = "unlabeled"
    n_classes: int | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        object.__setattr__(self, "features", _freeze(feats))

        if self.label_kind not in LABEL_KINDS:
            raise ValueError(f"label_kind must be one of {LABEL_KINDS}")

        if self.labels is None:
            if self.label_kind != "unlabeled":
                raise ValueError("label_kind %r requires labels" % self.label_kind)
            return
        if self.label_kind == "unlabeled":
            raise ValueError("labels given but label_kind is 'unlabeled'")

        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be a vector matching the sample count")
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == np.round(labels)):
                raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)
        if labels.size == 0:
            raise ValueError("labels present but empty")

        if labels.min() < 1:
            raise ValueError(f"labels must be >= 1, got {labels.min()}")
        c = self.n_classes if self.n_classes is not None else int(labels.max())
        if c < 1:
            raise ValueError("n_classes must be >= 1")
        if labels.max() > c:
            raise ValueError(f"labels must lie in 1..{c}")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "n_classes", int(c))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Same labels/kind over a new feature matrix."""
        return Dataset(features, self.labels, self.label_kind, self.n_classes)


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
        q = np.asarray(self.q, dtype=np.float64)
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
        object.__setattr__(self, "q", _freeze(q))

    @property
    def n_classes(self) -> int:
        return self.q.shape[0]

    def to_json(self) -> str:
        return json.dumps({"c": self.n_classes, "rows": self.q.tolist()})

    @staticmethod
    def from_json(text: str, source: str = "flip-rate JSON") -> "TransitionMatrix":
        """The matrix that ``to_json`` wrote; every error it raises names
        ``source``, the text's origin (a file path)."""
        obj = json.loads(text)
        missing = [k for k in ("c", "rows")
                   if not isinstance(obj, dict) or k not in obj]
        if missing:
            raise ValueError(f"{source}: missing key(s) {', '.join(missing)}")
        c = int_field(f"{source}: c", obj["c"])
        try:
            rows = np.asarray(obj["rows"], dtype=np.float64)
        except (ValueError, TypeError):  # ragged, or not numbers
            rows = None
        if rows is None or rows.shape != (c, c):
            raise ValueError(f"{source}: rows must be c = {c} lists of {c} "
                             f"numbers each")
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
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("prior must be a non-empty vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("prior entries must be finite and non-negative")
        if abs(p.sum() - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"prior must sum to 1 within {PRIOR_SUM_TOL}, got {float(p.sum())}")
        object.__setattr__(self, "p", _freeze(p))

    @property
    def n_classes(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class Projection:
    """Column-orthonormal d x d' matrix realizing the feature map x -> W^T x."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("projection must be a matrix")
        d, d_prime = w.shape
        if d_prime > d:
            raise ValueError(f"projection is {d}x{d_prime}; need d' <= d")
        gram = w.T @ w
        err = np.linalg.norm(gram - np.eye(d_prime))
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"columns not orthonormal: ||W^T W - I||_F = {err:.3g}")
        object.__setattr__(self, "w", _freeze(w))


def empirical_prior(labels: np.ndarray, c: int) -> ClassPrior:
    """Relative class frequencies of a 1-based label vector.

    Raises on an empty vector or an out-of-range label.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot estimate a prior from zero labels")
    if labels.min() < 1 or labels.max() > c:
        raise ValueError(f"labels must lie in 1..{c}")
    counts = np.bincount(labels.astype(np.int64) - 1, minlength=c).astype(np.float64)
    return ClassPrior(counts / labels.size)


def read_dataset_csv(path: str, label_kind: str = "clean") -> Dataset:
    """Load a dataset from CSV: a header row ``f1,...,fd[,label]``, then one
    row per sample of d floats and, under a ``label`` header, a 1-based
    integer label. The class count is the largest label.

    ``label_kind`` applies only when the file has a label column; files
    without one always load as unlabeled. A non-blank row whose field
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
            return Dataset(feats, np.asarray(labels), label_kind)
        return Dataset(feats)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
