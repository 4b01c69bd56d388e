"""Linear invariant-component model with label-noise-corrected reweighting.

The objective is the squared MMD between the reweighted source embedding
mean and the target embedding mean on projected features x' = W^T x, with
per-sample source weights v = G alpha tied to a target-prior candidate
alpha through the flip-rate algebra:

    J(W, alpha) = v^T K_ss v / m^2 - 2 * 1^T K_ts v / (m n) + 1^T K_tt 1 / n^2.

Since rows of G repeat per noisy class, every sum collapses to class-block
sums, which is how the large-sample paths avoid materializing any full
Gram matrix. Optimization alternates a simplex-constrained QP in alpha
with conjugate-gradient steps for W on the manifold of orthonormal column
frames. The QP is solved exactly for every class count, by enumerating
the 2^c - 1 supports of its optimum. The fit ends on the first round that
leaves W where it was: with A and b unchanged, another exact QP would only
repeat the last one.

The kernel pass's sums come from ``kernels.kernel_sums`` and
``kernels.kernel_totals``; the ``kernels`` module docstring describes
their two producers and the rule that picks between them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .data import (ClassPrior, Dataset, Projection, TransitionMatrix,
                   empirical_prior, int_field)
from .kernels import kernel_sums, kernel_totals, median_bandwidth
from .noise import GMatrix, build_g_matrix, clean_prior_from_noisy
from .rng import as_generator

ARMIJO_C1 = 1e-4
STATIONARY_RTOL = 1e-3  # |horizontal grad| / |grad| at which W counts as stationary
W_CG_ITERS = 5  # W steps per round at most
OBJECTIVE_TOL = 1e-9  # objective change between rounds that ends a fit
BACKTRACK = 0.5
MAX_HALVINGS = 40


@dataclass(frozen=True)
class LinearFitConfig:
    """Knobs for the alternating fit: the projection width d_prime, the
    outer-round cap and the seed of W's random start. A d_prime equal to
    the input dim pins W to the identity (see ``fit``). The noise-ignorant
    baseline is the same fit with an identity flip-rate matrix.

    ``mode`` is a retired alias kept for the benchmark's prior workload:
    "tars_fixed_w" fits at d_prime = input dim whatever d_prime says.
    """

    d_prime: int
    max_outer_iters: int = 12
    seed: int = 0
    mode: str = "dcic"

    def __post_init__(self):
        for name in ("d_prime", "max_outer_iters", "seed"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        if self.d_prime < 1 or self.max_outer_iters < 1:
            raise ValueError("d_prime and max_outer_iters must be >= 1")
        if self.mode not in ("dcic", "tars_fixed_w"):
            raise ValueError("mode must be 'dcic' or 'tars_fixed_w'")


@dataclass(frozen=True)
class LinearFitResult:
    """A fit's W, alpha and objective trace, and why it stopped
    (``stop_reason``): "converged" (objective change below OBJECTIVE_TOL,
    or, with W pinned, its one exact QP done), "max_iters" (max_outer_iters
    rounds ran), or, after the first round that accepted no W step,
    "stalled" when that round's line search failed and "stationary" when
    it found W stationary (STATIONARY_RTOL)."""

    w: Projection
    alpha: ClassPrior
    objective_trace: np.ndarray
    stop_reason: str
    config: LinearFitConfig
    sigma: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha.p.tolist(),
            "w": self.w.w.tolist(),
            "objective_trace": np.asarray(self.objective_trace).tolist(),
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "sigma": self.sigma,
            "config": {"d_prime": self.w.w.shape[1],  # the width fitted
                       "max_outer_iters": self.config.max_outer_iters,
                       "seed": self.config.seed},
        })


class _MmdProblem:
    """The package's one weighted squared-MMD implementation: evaluates the
    objective, its alpha-quadratic, its gradients with respect to the
    projected rows and its W gradient from one kernel pass per W.
    ``fit`` uses it on raw features; the joint model (``joint``) uses it on
    hidden-layer rows with an identity W, for its penalty and the alpha
    refresh.

    Holds raw features, the per-class weight rows, and the bandwidth. The
    most recent pass is cached keyed on the value of W (a private copy,
    compared with ``np.array_equal``; ``None`` is its own key), so repeated
    evaluations at one W cost one pass total, whichever array carries it.

    A pass with a W asks ``kernels.kernel_sums`` for per-row sums, one
    contraction for every W: with one-hot noisy labels oh, S' = Xs W and
    T' = Xt W, the source columns P_s = [oh, oh (x) S'] (class-split
    projected rows) and target columns P_t = [1, T'] give K_ss P_s,
    K_ts P_s, K_ts^T P_t and K_tt P_t, the O((m + n) c (1 + d')) values the
    W gradient needs. The class-block sums are the first c columns of
    K_ss P_s and K_ts P_s and the first column of K_tt P_t, and
    ``row_grads`` contracts the rows with any alpha. With ``w=None``
    (features used as they are) the pass asks ``kernels.kernel_totals``
    for oh^T K_ss oh, 1^T K_ts oh and 1^T K_tt 1 and keeps no per-row
    sums: only ``row_grads`` reads them, and it refuses ``w=None``. The
    ``kernels`` module docstring describes the two producers behind both.
    """

    def __init__(self, source_feats: np.ndarray, target_feats: np.ndarray,
                 g: GMatrix, sigma: float):
        self.s = np.asarray(source_feats, dtype=np.float64)
        self.t = np.asarray(target_feats, dtype=np.float64)
        self.g = g
        self.sigma = float(sigma)
        m = self.s.shape[0]
        if g.n_samples != m:
            raise ValueError("G rows must match the source sample count")
        onehot = np.zeros((m, g.n_classes))
        onehot[np.arange(m), g.labels - 1] = 1.0
        self.onehot = onehot
        self._cache_w = None
        self._cache_val = None
        self._rows = None

    def _cached(self, w) -> bool:
        if self._cache_val is None or (w is None) != (self._cache_w is None):
            return False
        return w is None or np.array_equal(w, self._cache_w)

    def terms(self, w: np.ndarray | None):
        """(A, b, const) with objective(alpha) = a^T A a - 2 b^T a + const."""
        if self._cached(w):
            return self._cache_val
        w = None if w is None else np.array(w, dtype=np.float64)
        s = self.s if w is None else self.s @ w
        t = self.t if w is None else self.t @ w
        m, n = s.shape[0], t.shape[0]
        c = self.g.n_classes
        oh = self.onehot
        if w is None:  # the value reads only the class totals
            block, cross, tt = kernel_totals(s, t, self.sigma, oh,
                                             np.ones((n, 1)))
            cross_by_class, tt_total = cross[0], tt[0, 0]
            self._rows = None
        else:
            p_s = np.hstack([oh, (oh[:, :, None] * s[:, None, :]).reshape(m, -1)])
            p_t = np.hstack([np.ones((n, 1)), t])
            rows = kernel_sums(s, t, self.sigma, p_s, p_t)
            r_ss, r_ts, _, r_tt = rows
            block = oh.T @ r_ss[:, :c]
            cross_by_class = r_ts[:, :c].sum(axis=0)
            tt_total = r_tt[:, 0].sum()
            self._rows = (s, t, *rows)
        ghat = self.g.class_rows
        a = ghat.T @ block @ ghat / (m * m)
        a = 0.5 * (a + a.T)
        b = ghat.T @ cross_by_class / (m * n)
        const = tt_total / (n * n)
        self._cache_w = w
        self._cache_val = (a, b, const)
        return self._cache_val

    def eval(self, w: np.ndarray | None, alpha: np.ndarray) -> float:
        a, b, const = self.terms(w)
        return float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)

    def row_grads(self, w: np.ndarray, alpha: np.ndarray):
        """Gradients (dS, dT) of the objective with respect to the projected
        rows S' = Xs W and T' = Xt W, shapes (m, d') and (n, d').

        Contracts the cached per-row sums of the pass at W (running the pass
        if W is not the cached one) with the per-class source weights
        u = G_hat alpha, v = oh u. With the kernel derivative
        dk(x, y)/dx = -k (x - y) / sigma^2,

            dS = -2/(s^2 m^2) v o ((K_ss v) o S' - K_ss (v o S'))
                 + 2/(s^2 m n) v o ((K_ts^T 1) o S' - K_ts^T T')
            dT = 2/(s^2 m n) ((K_ts v) o T' - K_ts (v o S'))
                 - 2/(s^2 n^2) ((K_tt 1) o T' - K_tt T')

        (s = sigma, o = row-wise product). With W the identity the projected
        rows are the features themselves (x @ I == x exactly), so these are
        the gradients with respect to the features: the joint model's
        hidden-layer penalty takes them straight into backpropagation.
        """
        if w is None:
            raise ValueError("the gradients need an explicit W")
        self.terms(w)
        s, t, r_ss, r_ts, r_st, r_tt = self._rows
        m, n = s.shape[0], t.shape[0]
        c, d_out = self.g.n_classes, s.shape[1]
        u = self.g.class_rows @ np.asarray(alpha, dtype=np.float64)
        v = self.onehot @ u
        sig2 = self.sigma ** 2
        k_ss_v = r_ss[:, :c] @ u
        k_ss_vs = u @ r_ss[:, c:].reshape(m, c, d_out)
        k_ts_v = r_ts[:, :c] @ u
        k_ts_vs = u @ r_ts[:, c:].reshape(n, c, d_out)
        d_s = v[:, None] * (
            (-2.0 / (sig2 * m * m)) * (k_ss_v[:, None] * s - k_ss_vs)
            + (2.0 / (sig2 * m * n)) * (r_st[:, :1] * s - r_st[:, 1:]))
        d_t = ((2.0 / (sig2 * m * n)) * (k_ts_v[:, None] * t - k_ts_vs)
               - (2.0 / (sig2 * n * n)) * (r_tt[:, :1] * t - r_tt[:, 1:]))
        return d_s, d_t

    def grad(self, w: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Gradient of the objective with respect to W, a (d, d') matrix:
        the chain rule Xs^T dS + Xt^T dT over ``row_grads``. W need not be
        orthonormal."""
        d_s, d_t = self.row_grads(w, alpha)
        return self.s.T @ d_s + self.t.T @ d_t


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, O(c log c)."""
    v = np.asarray(v, dtype=np.float64).ravel()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def solve_alpha_qp(a: np.ndarray, b: np.ndarray,
                   start: np.ndarray | None = None) -> ClassPrior:
    """Minimize alpha^T A alpha - 2 b^T alpha over the simplex, exactly, by
    enumerating the 2^c - 1 supports of the optimum.

    The candidates are the warm start projected onto the simplex (the
    uniform vector without one), each vertex, and for each larger support
    S the solution of the KKT system [2 A_SS, s 1; s 1^T, 0] (the
    constraint row scaled by s, the largest |entry| of A and b, to
    condition it like A_SS), solved by least squares so that a
    rank-deficient A works, and projected onto the simplex. Some optimum
    is a vertex or the unique KKT point of its own support, so the lowest
    candidate is optimal to rounding. Candidates are compared as they are
    returned, normalised to sum to one, and the projected start is kept
    unless one is strictly lower, so a flat objective returns it and no
    result is worse than it. A solve took about 0.13 ms at c = 2,
    0.3 ms at c = 3 and 60 ms at c = 10 (2-CPU Xeon, one OpenBLAS thread).
    A non-finite A or b is rejected: every comparison would pass or fail on
    NaN without error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    c = b.size
    if a.shape != (c, c):
        raise ValueError(f"A must be {c}x{c}, got {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    if np.abs(a - a.T).max() > 1e-8:
        raise ValueError("A is not symmetric within 1e-8")
    a = 0.5 * (a + a.T)
    best = project_simplex(np.full(c, 1.0 / c) if start is None
                           else np.asarray(start, dtype=np.float64))
    best /= best.sum()
    best_f = _qp_value(a, b, best)
    scale = max(np.abs(a).max(), np.abs(b).max()) or 1.0
    for size in range(1, c + 1):
        for support in itertools.combinations(range(c), size):
            z = np.zeros(c)
            if size == 1:
                z[support] = 1.0
            else:
                idx = list(support)
                kkt = np.full((size + 1, size + 1), scale)
                kkt[:size, :size] = 2.0 * a[np.ix_(idx, idx)]
                kkt[size, size] = 0.0
                rhs = np.append(2.0 * b[idx], scale)
                z[idx] = project_simplex(
                    np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size])
                z /= z.sum()
            f = _qp_value(a, b, z)
            if f < best_f:
                best, best_f = z, f
    return ClassPrior(best)


def _qp_value(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> float:
    return float(z @ a @ z - 2.0 * (b @ z))


def qr_retract(m: np.ndarray) -> np.ndarray:
    """Thin QR with positive R diagonal: the retraction back onto the
    orthonormal frames, deterministic in sign."""
    q, r = np.linalg.qr(m)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign[None, :]


@dataclass
class GrassmannState:
    """Mutable line-search and conjugate-direction memory between steps.

    objective_fn maps a raw (d, d') matrix to the objective value; it is
    the single evaluation path, so accepted values and recorded traces
    agree to the bit.
    """

    objective_fn: object
    f_current: float | None = None
    prev_grad: np.ndarray | None = None
    prev_dir: np.ndarray | None = None
    step: float = 1.0
    stalled: bool = False


def grassmann_step(w, euclidean_grad: np.ndarray, state: GrassmannState):
    """One conjugate-gradient step over orthonormal frames.

    Projects the gradient to the horizontal space. If that Riemannian
    gradient is at most STATIONARY_RTOL of the full gradient's norm, W is
    stationary to the precision the objective resolves: W comes back
    unchanged (the same array), ``state.stalled`` stays False and the
    objective is not called. Otherwise the step combines the horizontal
    gradient with the previous direction (non-negative Polak-Ribiere
    factor, restart when the combination is not a descent direction),
    backtracks from ``state.step`` under the Armijo rule, and retracts by
    QR. The step length carries over: ``state.step`` doubles when the
    first trial is accepted and otherwise becomes the accepted step. A
    failed line search (40 halvings) returns W unchanged with
    ``state.stalled`` set.
    """
    w_mat = np.asarray(w, dtype=np.float64)
    grad = np.asarray(euclidean_grad, dtype=np.float64)
    horiz = grad - w_mat @ (w_mat.T @ grad)
    state.stalled = False
    if np.linalg.norm(horiz) <= STATIONARY_RTOL * np.linalg.norm(grad):
        return Projection(w_mat), state

    direction = -horiz
    if state.prev_grad is not None:
        denom = float((state.prev_grad * state.prev_grad).sum())
        if denom > 0:
            beta = max(0.0, float((horiz * (horiz - state.prev_grad)).sum()) / denom)
            direction = -horiz + beta * state.prev_dir
        if float((direction * horiz).sum()) >= 0.0:
            direction = -horiz
    slope = float((direction * horiz).sum())

    f0 = state.f_current
    if f0 is None:
        f0 = float(state.objective_fn(w_mat))
    step = state.step
    for halvings in range(MAX_HALVINGS):
        candidate = qr_retract(w_mat + step * direction)
        f_cand = float(state.objective_fn(candidate))
        if f_cand <= f0 + ARMIJO_C1 * step * slope:
            state.f_current = f_cand
            state.prev_grad = horiz
            state.prev_dir = direction
            state.step = 2.0 * step if halvings == 0 else step
            return Projection(candidate), state
        step *= BACKTRACK
    state.stalled = True
    state.f_current = f0
    return Projection(w_mat), state


def fit(config: LinearFitConfig, noisy_source: Dataset, target: Dataset,
        q: TransitionMatrix) -> LinearFitResult:
    """Alternating optimization: the simplex QP in alpha, solved exactly
    (``solve_alpha_qp``; its cost grows as 2^c), then up to W_CG_ITERS CG
    steps for W on the manifold, until the objective change drops below
    OBJECTIVE_TOL or a round leaves W where it was.

    A round of W steps ends early when a step finds W stationary (relative
    horizontal gradient at most STATIONARY_RTOL) or its line search
    stalls; the step length carries over between rounds. A round that
    accepted no W step ends the fit, since W, A and b are then as the round
    found them and the next round's exact QP could only repeat its own.
    A d_prime equal to the input dim pins W = I and ends "converged" after
    one round: the kernel sees only distances, which every square
    orthonormal W keeps, so no such W moves the objective. The bandwidth
    is the median pairwise distance of the stacked raw features, fixed
    before optimization. The result's ``stop_reason`` names the exit taken.
    A source or target without rows is refused before any kernel work.
    """
    for name, data in (("source", noisy_source), ("target", target)):
        if data.n_samples == 0:
            raise ValueError(f"{name} dataset has no rows")
    if noisy_source.labels is None:
        raise ValueError("source dataset must carry labels")
    d = noisy_source.dim
    if target.dim != d:
        raise ValueError("source/target feature dims differ")
    c = q.n_classes
    if noisy_source.n_classes != c:
        raise ValueError(
            f"source class count {noisy_source.n_classes} (largest label "
            f"{int(noisy_source.labels.max())}) does not match the flip-rate "
            f"matrix's {c} classes")
    d_prime = d if config.mode == "tars_fixed_w" else config.d_prime
    if d_prime > d:
        raise ValueError("d_prime must not exceed the input dim")

    noisy_prior = empirical_prior(noisy_source.labels, c)
    clean_prior = clean_prior_from_noisy(noisy_prior, q)
    g = build_g_matrix(q, clean_prior, noisy_source.labels)
    sigma = median_bandwidth(
        np.vstack([noisy_source.features, target.features]))

    pinned = d_prime == d
    w_mat = (np.eye(d) if pinned else qr_retract(
        as_generator(config.seed).standard_normal((d, d_prime))))

    prob = _MmdProblem(noisy_source.features, target.features, g, sigma)
    w_key = None if pinned else w_mat
    alpha = np.full(c, 1.0 / c)
    trace = [prob.eval(w_key, alpha)]
    step_memory = 1.0
    stop_reason = "max_iters"

    for _ in range(config.max_outer_iters):
        a, b, _ = prob.terms(w_key)
        alpha = solve_alpha_qp(a, b, start=alpha).p
        f_now = prob.eval(w_key, alpha)
        w_before = w_mat

        if not pinned:
            state = GrassmannState(
                objective_fn=lambda m_, al=alpha: prob.eval(m_, al),
                f_current=f_now, step=step_memory)
            for _ in range(W_CG_ITERS):
                grad = prob.grad(w_mat, alpha)  # W's pass is cached
                proj, state = grassmann_step(w_mat, grad, state)
                if state.stalled or proj.w is w_mat:
                    break  # line search failed, or W already stationary
                w_mat = proj.w
            step_memory = min(state.step, 1e6)
            f_now = state.f_current
            w_key = w_mat

        trace.append(f_now)
        if w_mat is w_before:
            # pinned, or the round's first step stalled or found W stationary
            stop_reason = ("converged" if pinned
                           else "stalled" if state.stalled else "stationary")
            break
        if abs(trace[-2] - trace[-1]) < OBJECTIVE_TOL:
            stop_reason = "converged"
            break

    return LinearFitResult(Projection(w_mat), ClassPrior(alpha / alpha.sum()),
                           np.asarray(trace), stop_reason, config, sigma)
