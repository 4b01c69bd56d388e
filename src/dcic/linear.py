"""Linear invariant-component model with label-noise-corrected reweighting.

The objective is the squared MMD between the reweighted source embedding
mean and the target embedding mean on projected features x' = W^T x, with
per-sample source weights v = G alpha tied to a target-prior candidate
alpha through the flip-rate algebra:

    J(W, alpha) = v^T K_ss v / m^2 - 2 * 1^T K_ts v / (m n) + 1^T K_tt 1 / n^2.

Since rows of G repeat per noisy class, every sum collapses to class-block
sums, which is how the large-sample paths avoid materializing any full
Gram matrix. Optimization alternates an exact simplex-constrained QP in
alpha with conjugate-gradient steps for W on the manifold of orthonormal
column frames.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import ClassPrior, Dataset, Projection, TransitionMatrix, empirical_prior
from .kernels import gaussian_gram, median_bandwidth
from .noise import GMatrix, build_g_matrix, clean_prior_from_noisy
from .rng import as_generator

MODES = ("dcic", "cic_baseline", "tars_fixed_w")

DEFAULT_CHUNK = 1024
KKT_TOL = 1e-7
QP_MAX_ITERS = 20000
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 40
MAX_CONSECUTIVE_STALLS = 3
TRACE_SLACK = 1e-10  # accepted-iterate objective may wiggle below this


def _as_w_matrix(w) -> np.ndarray:
    if isinstance(w, Projection):
        return w.w
    return np.asarray(w, dtype=np.float64)


def _as_alpha_vector(alpha) -> np.ndarray:
    if isinstance(alpha, ClassPrior):
        return alpha.p
    return np.asarray(alpha, dtype=np.float64).ravel()


@dataclass(frozen=True)
class LinearFitConfig:
    """Knobs for the alternating fit.

    mode:
        dcic          - full model: noise-corrected weights, W optimized.
        cic_baseline  - noise-ignorant baseline: flip rates forced to the
                        identity, otherwise identical.
        tars_fixed_w  - prior estimation only: W pinned to the identity
                        (d_prime is overridden to the input dim).
    """

    d_prime: int
    max_outer_iters: int = 12
    w_cg_iters: int = 5
    alpha_tol: float = KKT_TOL
    objective_tol: float = 1e-9
    mode: str = "dcic"
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK

    def __post_init__(self):
        if self.d_prime < 1:
            raise ValueError("d_prime must be >= 1")
        if self.max_outer_iters < 1 or self.w_cg_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.alpha_tol <= 0 or self.objective_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class LinearFitResult:
    w: Projection
    alpha: ClassPrior
    objective_trace: np.ndarray
    converged: bool
    config: LinearFitConfig
    sigma: float

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha.p.tolist(),
            "w": self.w.w.tolist(),
            "objective_trace": np.asarray(self.objective_trace).tolist(),
            "converged": bool(self.converged),
            "sigma": self.sigma,
            "config": asdict(self.config),
        })


def _add_symmetric_rows(rows, k, rhs, lo, hi):
    """rows += K @ rhs for a symmetric K given as its row block [lo, hi) from
    column lo on: the block itself feeds rows lo..hi, and its part right of
    the diagonal block, transposed, feeds the later rows."""
    rows[lo:hi] += k @ rhs[lo:]
    rows[hi:] += k[:, hi - lo:].T @ rhs[lo:hi]


class _MmdProblem:
    """Evaluates the objective, its alpha-quadratic and its W gradient from
    one chunked kernel pass per W.

    Holds raw features, the per-class weight rows, and the bandwidth. The
    most recent pass is cached keyed on the value of W (a private copy,
    compared with ``np.array_equal``; ``None`` is its own key), so repeated
    evaluations at one W cost one pass total, whichever array carries it.

    A pass walks the rows in chunks of ``chunk_size`` and writes every
    chunk's kernel block into one reused (chunk, max(m, n)) buffer. For the
    symmetric self-blocks K_ss and K_tt it computes only the columns at or
    right of the chunk's first row (the upper block-triangle).

    With ``w=None`` (features used as they are) the pass keeps only the
    class-block sums: the diagonal block counts once and the block right of
    it twice. With a W it keeps the per-row sums the W gradient needs,
    O((m + n) c (1 + d')) values: with S' = Xs W, T' = Xt W, one-hot noisy
    labels oh and P = [oh, oh (x) S'] (class-split projected rows),

        K_ss P, K_ts P, K_ts^T [1, T'], K_tt [1, T'].

    The class-block sums are the first c columns of K_ss P and K_ts P and the
    first column of K_tt [1, T'], so the value needs no further kernel work,
    and ``grad`` contracts the rows with any alpha.
    """

    def __init__(self, source_feats: np.ndarray, target_feats: np.ndarray,
                 g: GMatrix, sigma: float, chunk_size: int = DEFAULT_CHUNK):
        self.s = np.asarray(source_feats, dtype=np.float64)
        self.t = np.asarray(target_feats, dtype=np.float64)
        self.g = g
        self.sigma = float(sigma)
        self.chunk = int(chunk_size)
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
        width = max(m, n)
        buf = np.empty(min(self.chunk, width) * width)

        def gram(a, b):
            # a C-contiguous prefix of the shared buffer, so BLAS sees the
            # same layout as a freshly allocated block
            out = buf[:a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0])
            return gaussian_gram(a, b, self.sigma, out=out)

        oh = self.onehot
        if w is not None:
            p_s = np.hstack([oh, (oh[:, :, None] * s[:, None, :]).reshape(m, -1)])
            p_t = np.hstack([np.ones((n, 1)), t])
            r_ss, r_ts = np.zeros((m, p_s.shape[1])), np.zeros((n, p_s.shape[1]))
            r_st, r_tt = np.zeros((m, p_t.shape[1])), np.zeros((n, p_t.shape[1]))
        block = np.zeros((c, c))
        cross_by_class = np.zeros(c)
        tt_total = 0.0
        for lo in range(0, m, self.chunk):
            hi = min(lo + self.chunk, m)
            k = gram(s[lo:hi], s[lo:])
            if w is None:
                block += oh[lo:hi].T @ (k[:, :hi - lo] @ oh[lo:hi])
                off = oh[lo:hi].T @ (k[:, hi - lo:] @ oh[hi:])
                block += off + off.T
            else:
                _add_symmetric_rows(r_ss, k, p_s, lo, hi)
        for lo in range(0, n, self.chunk):
            hi = min(lo + self.chunk, n)
            k_ts = gram(t[lo:hi], s)
            if w is None:
                cross_by_class += (k_ts @ oh).sum(axis=0)
            else:
                r_ts[lo:hi] = k_ts @ p_s
                r_st += k_ts.T @ p_t[lo:hi]
            k = gram(t[lo:hi], t[lo:])
            if w is None:
                tt_total += k[:, :hi - lo].sum() + 2.0 * k[:, hi - lo:].sum()
            else:
                _add_symmetric_rows(r_tt, k, p_t, lo, hi)
        if w is not None:
            block = oh.T @ r_ss[:, :c]
            cross_by_class = r_ts[:, :c].sum(axis=0)
            tt_total = r_tt[:, 0].sum()
        ghat = self.g.class_rows
        a = ghat.T @ block @ ghat / (m * m)
        a = 0.5 * (a + a.T)
        b = ghat.T @ cross_by_class / (m * n)
        const = tt_total / (n * n)
        self._cache_w = w
        self._cache_val = (a, b, const)
        self._rows = None if w is None else (s, t, r_ss, r_ts, r_st, r_tt)
        return self._cache_val

    def eval(self, w: np.ndarray | None, alpha: np.ndarray) -> float:
        a, b, const = self.terms(w)
        return float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)

    def grad(self, w: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Gradient of the objective with respect to W, a (d, d') matrix.

        Contracts the cached per-row sums of the pass at W (running the pass
        if W is not the cached one) with the per-class source weights
        u = G_hat alpha, v = oh u. With the kernel derivative
        dk(x, y)/dx = -k (x - y) / sigma^2, the gradients with respect to
        the projected rows are

            dS = -2/(s^2 m^2) v o ((K_ss v) o S' - K_ss (v o S'))
                 + 2/(s^2 m n) v o ((K_ts^T 1) o S' - K_ts^T T')
            dT = 2/(s^2 m n) ((K_ts v) o T' - K_ts (v o S'))
                 - 2/(s^2 n^2) ((K_tt 1) o T' - K_tt T')

        (s = sigma, o = row-wise product), and the W gradient follows by the
        chain rule Xs^T dS + Xt^T dT. W need not be orthonormal.
        """
        if w is None:
            raise ValueError("the W gradient needs an explicit W")
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
        return self.s.T @ d_s + self.t.T @ d_t


def objective(w, alpha, source: Dataset, target: Dataset, g: GMatrix,
              sigma: float) -> float:
    """The weighted MMD objective at (W, alpha).

    ``w`` may be a Projection or a raw (d, d') array; raw arrays are not
    required to be orthonormal, which keeps finite-difference probes valid.
    """
    prob = _MmdProblem(source.features, target.features, g, sigma)
    return prob.eval(_as_w_matrix(w), _as_alpha_vector(alpha))


def alpha_qp_terms(w, source: Dataset, target: Dataset, g: GMatrix,
                   sigma: float):
    """Quadratic form of the objective in alpha at fixed W: (A, b) with
    objective(alpha) = alpha^T A alpha - 2 b^T alpha + const."""
    prob = _MmdProblem(source.features, target.features, g, sigma)
    a, b, _ = prob.terms(_as_w_matrix(w))
    return a, b


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, O(c log c)."""
    v = np.asarray(v, dtype=np.float64).ravel()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def solve_alpha_qp(a: np.ndarray, b: np.ndarray, start: np.ndarray | None = None,
                   tol: float = KKT_TOL, max_iters: int = QP_MAX_ITERS) -> ClassPrior:
    """Minimize alpha^T A alpha - 2 b^T alpha over the simplex.

    Accelerated projected gradient with function-value restarts; stops at
    KKT residual ||x - P(x - grad)||_inf <= tol. A flat objective returns
    the uniform vector (the documented tie-break). Warm starts never come
    back worse than where they started.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    c = b.size
    if a.shape != (c, c):
        raise ValueError(f"A must be {c}x{c}, got {a.shape}")
    if np.abs(a - a.T).max() > 1e-8:
        raise ValueError("A is not symmetric within 1e-8")
    a = 0.5 * (a + a.T)
    if c == 1:
        return ClassPrior(np.ones(1))

    def fval(z):
        return float(z @ a @ z - 2.0 * (b @ z))

    def kkt(z):
        return float(np.abs(z - project_simplex(z - 2.0 * (a @ z - b))).max())

    x = project_simplex(np.full(c, 1.0 / c) if start is None
                        else np.asarray(start, dtype=np.float64))
    f_start = fval(x)
    lip = max(2.0 * float(np.linalg.eigvalsh(a).max()), 1e-12)
    best_x, best_f = x.copy(), f_start
    y, tk = x.copy(), 1.0
    f_prev = f_start
    for _ in range(max_iters):
        x_new = project_simplex(y - 2.0 * (a @ y - b) / lip)
        f_new = fval(x_new)
        if f_new < best_f:
            best_f, best_x = f_new, x_new.copy()
        if kkt(x_new) <= tol:
            # fp guard: a warm start at the optimum must not come back worse
            if f_new > f_start and best_f <= f_start:
                x_new = best_x
            return ClassPrior(x_new / x_new.sum())
        if f_new > f_prev:  # momentum overshoot, restart
            y, tk = x_new.copy(), 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            y = x_new + ((tk - 1.0) / t_next) * (x_new - x)
            tk = t_next
        x, f_prev = x_new, f_new
    return ClassPrior(best_x / best_x.sum())


def euclidean_grad_w(w, alpha, source: Dataset, target: Dataset, g: GMatrix,
                     sigma: float) -> np.ndarray:
    """Gradient of the objective with respect to W as an unconstrained
    (d, d') matrix.

    A thin wrapper over ``_MmdProblem.grad``: one chunked kernel pass at W,
    then the per-row sums are contracted with alpha and mapped back through
    the chain rule Xs^T dS + Xt^T dT. ``fit`` calls the engine directly, so
    its gradients reuse the pass the line search already ran.
    """
    prob = _MmdProblem(source.features, target.features, g, sigma)
    return prob.grad(_as_w_matrix(w), _as_alpha_vector(alpha))


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

    Projects the gradient to the horizontal space, combines it with the
    previous direction (non-negative Polak-Ribiere factor, restart when the
    combination is not a descent direction), backtracks under the Armijo
    rule, and retracts by QR. A failed line search (40 halvings) returns W
    unchanged with ``state.stalled`` set.
    """
    w_mat = _as_w_matrix(w)
    grad = np.asarray(euclidean_grad, dtype=np.float64)
    horiz = grad - w_mat @ (w_mat.T @ grad)
    state.stalled = False
    if float((horiz * horiz).sum()) <= 1e-28:
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
    for _ in range(MAX_HALVINGS):
        candidate = qr_retract(w_mat + step * direction)
        f_cand = float(state.objective_fn(candidate))
        if f_cand <= f0 + ARMIJO_C1 * step * slope:
            state.f_current = f_cand
            state.prev_grad = horiz
            state.prev_dir = direction
            state.step = 2.0 * step
            return Projection(candidate), state
        step *= BACKTRACK
    state.stalled = True
    state.f_current = f0
    return Projection(w_mat), state


def fit(config: LinearFitConfig, noisy_source: Dataset, target: Dataset,
        q: TransitionMatrix) -> LinearFitResult:
    """Alternating optimization: exact QP in alpha, then W-steps on the
    manifold, until the objective change drops below objective_tol.

    The bandwidth is the median pairwise distance of the stacked raw
    features, fixed before optimization. cic_baseline replaces q with the
    identity; tars_fixed_w pins W to the identity and skips W updates.
    """
    if noisy_source.labels is None:
        raise ValueError("source dataset must carry labels")
    d = noisy_source.dim
    if target.dim != d:
        raise ValueError("source/target feature dims differ")
    c = q.n_classes
    if noisy_source.n_classes != c:
        raise ValueError("source class count does not match the flip-rate matrix")

    q_eff = TransitionMatrix(np.eye(c)) if config.mode == "cic_baseline" else q
    noisy_prior = empirical_prior(noisy_source.labels, c)
    clean_prior = clean_prior_from_noisy(noisy_prior, q_eff)
    g = build_g_matrix(q_eff, clean_prior, noisy_source.labels)
    sigma = median_bandwidth(
        np.vstack([noisy_source.features, target.features]))

    fixed_w = config.mode == "tars_fixed_w"
    if fixed_w:
        w_mat = np.eye(d)
    else:
        if config.d_prime > d:
            raise ValueError("d_prime must not exceed the input dim")
        rng = as_generator(config.seed)
        w_mat = qr_retract(rng.standard_normal((d, config.d_prime)))

    prob = _MmdProblem(noisy_source.features, target.features, g, sigma,
                       config.chunk_size)
    w_key = None if fixed_w else w_mat
    alpha = np.full(c, 1.0 / c)
    trace = [prob.eval(w_key, alpha)]
    step_memory = 1.0
    stall_streak = 0
    converged = False

    for _ in range(config.max_outer_iters):
        a, b, const = prob.terms(w_key)
        alpha = solve_alpha_qp(a, b, start=alpha, tol=config.alpha_tol).p
        f_now = float(alpha @ a @ alpha - 2.0 * (b @ alpha) + const)

        if fixed_w:
            stall_streak = 0
        else:
            alpha_fixed = alpha
            state = GrassmannState(
                objective_fn=lambda m_, al=alpha_fixed: prob.eval(m_, al),
                f_current=f_now, step=step_memory)
            accepted_any = False
            for _ in range(config.w_cg_iters):
                grad = prob.grad(w_mat, alpha)  # W's pass is cached
                proj, state = grassmann_step(w_mat, grad, state)
                if state.stalled or proj.w is w_mat:
                    break  # line search failed, or W already stationary
                accepted_any = True
                w_mat = proj.w
            step_memory = min(state.step, 1e6)
            f_now = state.f_current
            w_key = w_mat
            stall_streak = 0 if accepted_any else stall_streak + 1

        trace.append(f_now)
        if abs(trace[-2] - trace[-1]) < config.objective_tol:
            converged = True
            break
        if stall_streak >= MAX_CONSECUTIVE_STALLS:
            break

    return LinearFitResult(Projection(w_mat), ClassPrior(alpha / alpha.sum()),
                           np.asarray(trace), converged, config, sigma)
