"""Weighted logistic regression and adaptive-lasso penalized logistic
regression.

The unpenalized fit is full-batch Newton with backtracking line search and a
tiny ridge (1e-6) for separable-data stability. The adaptive lasso is the
classic two-stage estimator: an initial unpenalized fit supplies per-feature
penalty weights 1/|beta_j|^gamma, then coordinate descent with
soft-thresholding solves the reweighted L1 problem on successive quadratic
approximations (proximal Newton).

Each quadratic model is held in covariance form (glmnet's "covariance
updates", Friedman, Hastie & Tibshirani 2010): X^T diag(h) X is formed once
per outer iteration, so a coordinate step costs O(d), not O(n). Sweeps visit
the nonzero slopes and then only the zero slopes that violate the KKT
condition, found with one vectorized test. The outer step is damped by
halving until the penalized objective does not increase, which keeps warm
starts far from the optimum (small samples) from oscillating.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_matrix, zscore
from .errors import ConvergenceError, DataError

RIDGE = 1e-6
ZERO_WEIGHT_EPS = 1e-4  # adaptive weight floor: zero estimates get 1/eps
CD_TOL = 1e-7


@np.errstate(over="ignore", under="ignore")
def sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)) as float64, computed in one
    new buffer. exp overflows for z below about -709.78; the result there is
    exactly 0. Overflow and underflow raise no warning, under any
    ``np.errstate``. A 0-d input gives a numpy scalar."""
    z = np.asarray(z, dtype=float)
    out = np.negative(z, out=np.empty(z.shape))
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out if out.ndim else out[()]


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
    return LinearModel(
        intercept=float(beta0),
        coef=beta,
        feature_names=list(data.feature_names),
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


def _penalized_objective(z, y, w, beta, lam, pen_w, ridge):
    """Weighted-mean NLL at margins ``z`` plus the ridge and the weighted L1
    penalty on the slopes: what each outer step must not increase."""
    nll = (w * (np.logaddexp(0.0, z) - y * z)).sum() / w.sum()
    return nll + ridge * float(beta @ beta) + lam * float(pen_w @ np.abs(beta))


def _cd_penalized(X, y, w, lam, pen_w, beta0, beta, ridge=RIDGE, max_outer=200):
    """Proximal-Newton outer loop with coordinate descent on the local
    quadratic model of the weighted loss. Intercept is unpenalized.

    The model is kept in covariance form: per outer iteration
    ``Q = X^T diag(h) X``, ``c = X^T h`` and the gradient ``X^T g`` are
    formed once, and the model's gradient at the inner iterate is carried
    as a length-d vector that a coordinate step of ``delta`` updates by
    ``Q[j] * delta``. The outer step is halved until the penalized
    objective does not increase.
    """
    W = w.sum()
    thresholds = lam * pen_w
    z = beta0 + X @ beta
    objective = _penalized_objective(z, y, w, beta, lam, pen_w, ridge)
    for outer in range(max_outer):
        p = sigmoid(z)
        g = w * (p - y) / W
        h = w * p * (1 - p) / W
        Xs = X * np.sqrt(h)[:, None]
        Q = Xs.T @ Xs
        c = X.T @ h
        h_sum = h.sum()
        diag = Q.diagonal() + 2.0 * ridge
        # gradient of the quadratic model at (new0, new), ridge term excluded
        grad = X.T @ g
        grad0 = g.sum()
        new0, new = beta0, beta.copy()
        max_delta_outer = 0.0

        def coordinate(j):
            nonlocal grad, grad0
            bj = new[j]
            rho = diag[j] * bj - (grad[j] + 2.0 * ridge * bj)
            new[j] = soft_threshold(rho, thresholds[j]) / diag[j]
            delta = new[j] - bj
            if delta != 0.0:
                grad += Q[j] * delta
                grad0 += c[j] * delta
            return abs(delta)

        def sweep():
            """One pass over the nonzero slopes, then over the zero slopes
            that violate KKT (a zero slope that satisfies it would not
            move), then the intercept."""
            nonlocal new0, grad, grad0
            max_delta = 0.0
            for j in np.flatnonzero(new):
                max_delta = max(max_delta, coordinate(j))
            for j in np.flatnonzero((new == 0.0) & (np.abs(grad) > thresholds)):
                max_delta = max(max_delta, coordinate(j))
            db0 = -grad0 / h_sum
            if db0 != 0.0:
                new0 += db0
                grad += c * db0
                grad0 += h_sum * db0
                max_delta = max(max_delta, abs(db0))
            return max_delta

        def active_newton():
            """Exact minimization of the quadratic model over the current
            active set with signs held fixed. Cyclic updates crawl when
            active columns are strongly correlated; solving the small
            fixed-sign system directly sidesteps that. Coefficients whose
            step would cross zero are clipped to zero and dropped."""
            nonlocal new0, grad, grad0
            for _ in range(50):
                active = np.flatnonzero(new)
                if active.size == 0:
                    return
                m = active.size
                K = np.empty((m + 1, m + 1))
                K[0, 0] = h_sum
                K[0, 1:] = K[1:, 0] = c[active]
                K[1:, 1:] = Q[np.ix_(active, active)]
                K[1:, 1:][np.diag_indices(m)] += 2.0 * ridge
                rhs = np.empty(m + 1)
                rhs[0] = -grad0
                rhs[1:] = -(
                    grad[active]
                    + 2.0 * ridge * new[active]
                    + thresholds[active] * np.sign(new[active])
                )
                try:
                    step = np.linalg.solve(K, rhs)
                except np.linalg.LinAlgError:
                    return
                # clip the step at the first zero crossing, if any
                with np.errstate(divide="ignore", invalid="ignore"):
                    crossing = -new[active] / step[1:]
                crossing[~((crossing > 0.0) & (crossing < 1.0))] = np.inf
                hit = int(np.argmin(crossing))
                frac = min(float(crossing[hit]), 1.0)
                new0 += frac * step[0]
                new[active] += frac * step[1:]
                grad += frac * (Q[:, active] @ step[1:] + c * step[0])
                grad0 += frac * (c[active] @ step[1:] + h_sum * step[0])
                if frac < 1.0:
                    new[active[hit]] = 0.0
                    continue
                return

        # full passes handle active-set changes; the exact solve finishes
        # the fixed-sign subproblem between them
        for _ in range(200):
            max_delta = sweep()
            max_delta_outer = max(max_delta_outer, max_delta)
            if max_delta < CD_TOL:
                break
            active_newton()
        else:
            raise ConvergenceError("coordinate descent stalled", iterations=outer)
        if max_delta_outer < CD_TOL:
            return new0, new, outer
        # Far from the optimum (a warm start at the unpenalized fit of a
        # small sample) the full step can overshoot and oscillate; halve it
        # until the objective does not rise beyond rounding.
        step0, step = new0 - beta0, new - beta
        t = 1.0
        for _ in range(60):
            new_z = new0 + X @ new
            new_objective = _penalized_objective(new_z, y, w, new, lam, pen_w, ridge)
            if new_objective <= objective + 1e-12 * abs(objective):
                break
            t *= 0.5
            new0, new = beta0 + t * step0, beta + t * step
        else:
            raise ConvergenceError("penalized line search failed", iterations=outer)
        beta0, beta, z, objective = new0, new, new_z, new_objective
    raise ConvergenceError("penalized fit did not converge", iterations=max_outer)


def lambda_max(X, y, w, pen_w) -> float:
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
    rows when no validation set is given). The path is kept in
    ``diagnostics["path"]``: each grid point's ``lambda``, ``val_log_loss``
    and ``nonzero`` count, and the ``chosen`` index."""
    auto = lam == "auto"
    if not auto and (isinstance(lam, bool) or not isinstance(lam, numbers.Real)):
        raise DataError(f"lambda must be a number or 'auto', got {lam!r}")
    X, y, w = data.X, data.y, data.w
    if y.min() == y.max():
        raise DataError("adaptive lasso needs both classes present")
    initial = fit_logistic(data)
    pen_w = adaptive_weights(initial.coef, gamma)

    path = None
    if auto:
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

        path = {"lambda": [], "val_log_loss": [], "nonzero": [], "chosen": 0}
        best = np.inf
        beta0w, betaw = float(initial.intercept), initial.coef.copy()
        for k, lam_k in enumerate(grid):
            beta0w, betaw, _ = _cd_penalized(
                fit_part.X, fit_part.y, fit_part.w, float(lam_k), pen_w, beta0w, betaw.copy()
            )
            probs = sigmoid(beta0w + val_part.X @ betaw)
            score = float(log_loss(probs, val_part.y, val_part.w))
            if score < best - 1e-12:
                best, path["chosen"] = score, k
            path["lambda"].append(float(lam_k))
            path["val_log_loss"].append(score)
            path["nonzero"].append(int(np.count_nonzero(betaw)))
        lam = path["lambda"][path["chosen"]]

    lam = float(lam)
    if lam < 0:
        raise DataError("lambda must be non-negative")
    beta0, beta, outer = _cd_penalized(
        X, y, w, lam, pen_w, float(initial.intercept), initial.coef.copy()
    )
    diagnostics = {
        "lambda": lam,
        "gamma": gamma,
        "outer_iterations": outer,
        "nonzero": int(np.sum(beta != 0.0)),
    }
    if path is not None:
        diagnostics["path"] = path
    return LinearModel(
        intercept=float(beta0),
        coef=beta,
        feature_names=list(data.feature_names),
        diagnostics=diagnostics,
    )
