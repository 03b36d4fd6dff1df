"""Weighted logistic regression and adaptive-lasso penalized logistic
regression.

The unpenalized fit is full-batch Newton with backtracking line search and a
tiny ridge (1e-6) for separable-data stability. The adaptive lasso is the
classic two-stage estimator: an initial unpenalized fit supplies per-feature
penalty weights 1/|beta_j|^gamma, then cyclic coordinate descent with
soft-thresholding solves the reweighted L1 problem on successive quadratic
approximations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .data import Dataset, check_matrix, zscore
from .errors import ConvergenceError, DataError

RIDGE = 1e-6
ZERO_WEIGHT_EPS = 1e-4  # adaptive weight floor: zero estimates get 1/eps
CD_TOL = 1e-7


def sigmoid(z):
    return expit(np.asarray(z, dtype=float))


@dataclass
class LinearModel:
    intercept: float
    coef: np.ndarray
    feature_names: list[str]
    # optional standardization applied at predict time
    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        if len(self.coef) != len(self.feature_names):
            raise DataError("coefficient / name length mismatch")
        if not np.isfinite(self.coef).all() or not np.isfinite(self.intercept):
            raise DataError("non-finite coefficients")

    def _transform(self, X):
        X = check_matrix(X, len(self.coef))
        if self.means is not None:
            return zscore(X, self.means, self.stds)
        return X

    def decision_margin(self, X):
        return self.intercept + self._transform(X) @ self.coef

    def predict_proba(self, X):
        return sigmoid(self.decision_margin(X))


def _loss_grad_hess(X, y, w, beta0, beta, ridge=RIDGE):
    """Weighted-mean NLL with ridge on the slopes; gradient wrt (b0, beta)."""
    W = w.sum()
    z = beta0 + X @ beta
    p = sigmoid(z)
    eps = 1e-12
    ll = y * np.log(np.clip(p, eps, None)) + (1 - y) * np.log(np.clip(1 - p, eps, None))
    loss = -(w * ll).sum() / W + ridge * float(beta @ beta)
    r = w * (p - y) / W
    g0 = r.sum()
    g = X.T @ r + 2.0 * ridge * beta
    return loss, g0, g, p


def fit_logistic(
    data: Dataset,
    tol: float = 1e-6,
    max_iter: int = 100,
    ridge: float = RIDGE,
    feature_names=None,
) -> LinearModel:
    """Newton's method with backtracking; deterministic from zero init."""
    X, y, w = data.X, data.y, data.w
    if y.min() == y.max():
        raise DataError("logistic fit needs both classes present")
    n, d = X.shape
    W = w.sum()
    beta0, beta = 0.0, np.zeros(d)
    loss, g0, g, p = _loss_grad_hess(X, y, w, beta0, beta, ridge)
    for it in range(max_iter):
        gnorm = max(abs(g0), np.abs(g).max() if d else 0.0)
        if gnorm <= tol:
            break
        hw = np.clip(w * p * (1 - p) / W, 1e-12, None)
        Xa = np.column_stack([np.ones(n), X])
        H = (Xa * hw[:, None]).T @ Xa
        H[1:, 1:] += 2.0 * ridge * np.eye(d)
        H[np.diag_indices_from(H)] += 1e-12
        step = np.linalg.solve(H, np.concatenate([[g0], g]))
        # backtracking line search on the ridged loss
        t = 1.0
        for _ in range(60):
            nb0 = beta0 - t * step[0]
            nb = beta - t * step[1:]
            nloss, ng0, ng, np_ = _loss_grad_hess(X, y, w, nb0, nb, ridge)
            if nloss <= loss + 1e-14:
                beta0, beta, loss, g0, g, p = nb0, nb, nloss, ng0, ng, np_
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "line search failed", iterations=it, grad_norm=float(gnorm)
            )
    else:
        raise ConvergenceError(
            "Newton did not converge",
            iterations=max_iter,
            grad_norm=float(max(abs(g0), np.abs(g).max())),
        )
    names = feature_names if feature_names is not None else list(data.feature_names)
    return LinearModel(
        intercept=float(beta0),
        coef=beta,
        feature_names=names,
        diagnostics={"iterations": it, "grad_norm": float(max(abs(g0), np.abs(g).max()))},
    )


def soft_threshold(v: float, t: float) -> float:
    """sign(v) * max(|v| - t, 0); t must be non-negative."""
    if t < 0:
        raise ValueError("threshold must be non-negative")
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def adaptive_weights(initial_coef, gamma: float = 1.0) -> np.ndarray:
    """1/|beta_j|^gamma with zero estimates floored at 1/eps."""
    mags = np.maximum(np.abs(np.asarray(initial_coef, float)), ZERO_WEIGHT_EPS)
    return 1.0 / mags**gamma


def _cd_penalized(X, y, w, lam, pen_w, beta0, beta, ridge=RIDGE, max_outer=200):
    """Proximal-Newton outer loop with cyclic coordinate descent on the local
    quadratic model of the weighted loss. Intercept is unpenalized.

    The quadratic model is kept in gradient/hessian form (never forming the
    per-sample working response), so near-saturated probabilities cannot blow
    up the inner iterates.
    """
    n, d = X.shape
    W = w.sum()
    for outer in range(max_outer):
        z = beta0 + X @ beta
        p = sigmoid(z)
        g = w * (p - y) / W
        h = w * p * (1 - p) / W
        col_h = (X * X * h[:, None]).sum(axis=0) + 2.0 * ridge
        h_sum = h.sum()
        g_sum = g.sum()
        # e tracks X (beta - beta_outer) + (beta0 - beta0_outer)
        e = np.zeros(n)
        max_delta_outer = 0.0

        def sweep(cols):
            max_delta = 0.0
            nonlocal beta0, e
            for j in cols:
                xj = X[:, j]
                smooth_grad = xj @ (g + h * e) + 2.0 * ridge * beta[j]
                rho = col_h[j] * beta[j] - smooth_grad
                new = soft_threshold(rho, lam * pen_w[j]) / col_h[j]
                delta = new - beta[j]
                if delta != 0.0:
                    e += xj * delta
                    beta[j] = new
                    max_delta = max(max_delta, abs(delta))
            db0 = -(g_sum + h @ e) / h_sum
            if db0 != 0.0:
                beta0 += db0
                e += db0
                max_delta = max(max_delta, abs(db0))
            return max_delta

        def active_newton():
            """Exact minimization of the quadratic model over the current
            active set with signs held fixed. Cyclic updates crawl when
            active columns are strongly correlated; solving the small
            fixed-sign system directly sidesteps that. Coefficients whose
            step would cross zero are clipped to zero and dropped."""
            nonlocal beta0, e
            for _ in range(50):
                active = np.flatnonzero(beta)
                if active.size == 0:
                    return
                M = X[:, active]
                s = np.sign(beta[active])
                m = active.size
                Mh = M * h[:, None]
                K = np.empty((m + 1, m + 1))
                K[0, 0] = h_sum
                K[0, 1:] = K[1:, 0] = h @ M
                K[1:, 1:] = M.T @ Mh
                K[1:, 1:][np.diag_indices(m)] += 2.0 * ridge
                rhs = np.empty(m + 1)
                rhs[0] = -(g_sum + h @ e)
                rhs[1:] = -(
                    M.T @ (g + h * e)
                    + 2.0 * ridge * beta[active]
                    + lam * pen_w[active] * s
                )
                try:
                    step = np.linalg.solve(K, rhs)
                except np.linalg.LinAlgError:
                    return
                # clip the step at the first zero crossing, if any
                frac = 1.0
                hit = -1
                for i in range(m):
                    if step[i + 1] != 0.0:
                        t = -beta[active[i]] / step[i + 1]
                        if 0.0 < t < frac:
                            frac, hit = t, i
                beta0 += frac * step[0]
                beta[active] += frac * step[1:]
                e += frac * (step[0] + M @ step[1:])
                if hit >= 0:
                    beta[active[hit]] = 0.0
                    continue
                return

        # full passes handle active-set changes; the exact solve finishes
        # the fixed-sign subproblem between them
        for _ in range(200):
            max_delta = sweep(range(d))
            max_delta_outer = max(max_delta_outer, max_delta)
            if max_delta < CD_TOL:
                break
            active_newton()
        else:
            raise ConvergenceError("coordinate descent stalled", iterations=outer)
        if max_delta_outer < CD_TOL:
            return beta0, beta, outer
    raise ConvergenceError("penalized fit did not converge", iterations=max_outer)


def lambda_max(X, y, w, pen_w, ridge=RIDGE) -> float:
    """Smallest penalty at which the all-zero slope solution is optimal."""
    W = w.sum()
    # intercept-only optimum
    p0 = (w * y).sum() / W
    r = w * (p0 - y) / W
    grad = np.abs(X.T @ r)
    return float(np.max(grad / pen_w)) if len(grad) else 0.0


def fit_adaptive_lasso(
    data: Dataset,
    lam,
    gamma: float = 1.0,
    validation: Dataset | None = None,
    n_grid: int = 50,
) -> LinearModel:
    """Two-stage adaptive lasso. ``lam`` may be a number or ``"auto"``, in
    which case a 50-point logarithmic grid below lambda_max is scored by
    validation log-loss (a deterministic 1-in-4 stride split of the training
    rows when no validation set is given)."""
    X, y, w = data.X, data.y, data.w
    if y.min() == y.max():
        raise DataError("adaptive lasso needs both classes present")
    initial = fit_logistic(data)
    pen_w = adaptive_weights(initial.coef, gamma)

    if lam == "auto":
        if validation is None:
            idx = np.arange(data.n)
            val_mask = idx % 4 == 3
            fit_part = Dataset(X[~val_mask], y[~val_mask], w[~val_mask], data.feature_names)
            val_part = Dataset(X[val_mask], y[val_mask], w[val_mask], data.feature_names)
        else:
            fit_part, val_part = data, validation
        lmax = lambda_max(fit_part.X, fit_part.y, fit_part.w, pen_w)
        grid = np.geomspace(lmax, lmax * 1e-4, n_grid) if lmax > 0 else [0.0]
        from .metrics import log_loss

        best = (np.inf, 0.0)
        beta0w, betaw = float(initial.intercept), initial.coef.copy()
        for lam_k in grid:
            beta0w, betaw, _ = _cd_penalized(
                fit_part.X, fit_part.y, fit_part.w, float(lam_k), pen_w, beta0w, betaw.copy()
            )
            probs = sigmoid(beta0w + val_part.X @ betaw)
            score = log_loss(probs, val_part.y, val_part.w)
            if score < best[0] - 1e-12:
                best = (score, float(lam_k))
        lam = best[1]

    lam = float(lam)
    if lam < 0:
        raise DataError("lambda must be non-negative")
    beta0, beta, outer = _cd_penalized(
        X, y, w, lam, pen_w, float(initial.intercept), initial.coef.copy()
    )
    return LinearModel(
        intercept=float(beta0),
        coef=beta,
        feature_names=list(data.feature_names),
        diagnostics={
            "lambda": lam,
            "gamma": gamma,
            "outer_iterations": outer,
            "nonzero": int(np.sum(beta != 0.0)),
        },
    )
