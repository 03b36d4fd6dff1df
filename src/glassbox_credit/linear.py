"""Weighted logistic regression and adaptive-lasso penalized logistic
regression.

The unpenalized fit is full-batch Newton with backtracking line search and a
tiny ridge (1e-6) for separable-data stability. The adaptive lasso is the
classic two-stage estimator: an initial unpenalized fit supplies per-feature
penalty weights 1/|beta_j|^gamma, then proximal Newton solves the reweighted
L1 problem on successive quadratic models of the loss.

Each quadratic model is solved over a working set (glmnet's covariance
updates over a strong-rule set; Friedman, Hastie & Tibshirani 2010,
Tibshirani et al. 2012): the nonzero slopes and the zero slopes whose
gradient exceeds their threshold. Its Hessian X^T diag(h) X is formed on
that set only; the support's fixed-sign system is solved exactly, clipped
at the first zero crossing, and KKT violators enter on one vectorized test.
One product then checks every slope outside the set, which grows until
none violates KKT, so each step is exact over all slopes. The outer step is
damped by halving until the penalized objective does not increase, which
keeps warm starts far from the optimum (small samples) from oscillating.
The fit stops when the next move, predicted with the new gradient and the
last step's Hessian, is below CD_TOL / 10: no step is spent confirming.
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
_ROUNDING = float(np.sqrt(np.finfo(float).eps))  # 1.5e-8


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
    Xa = np.column_stack([np.ones(n), X])
    for it in range(max_iter):
        gnorm = max(abs(g0), np.abs(g).max() if d else 0.0)
        if gnorm <= tol:
            break
        hw = np.clip(w * p * (1 - p) / W, 1e-12, None)
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


def _working_hessian(Xt, S, root_h, ridge, buf):
    """The quadratic model's Hessian over the intercept and the slopes
    ``S``: ``A A^T`` for ``A = [1; Xt[S]] * sqrt(h)``, built in ``buf``,
    plus the ridge on the slopes. Row and column 0 are the intercept's."""
    m, n = S.size, Xt.shape[1]
    A = buf[: (m + 1) * n].reshape(m + 1, n)
    A[0] = root_h
    np.take(Xt, S, axis=0, out=A[1:])
    A[1:] *= root_h
    K = A @ A.T
    K.flat[m + 2 :: m + 2] += 2.0 * ridge
    return K


def _solve_working_set(K, v, grad, thresholds):
    """Minimize the quadratic model ``grad^T u + u^T K u / 2`` plus
    ``sum(thresholds * |v + u|)`` over ``u``, moving ``v`` (the intercept
    first, ``thresholds[0] == 0``) in place; ``grad`` is the model's
    gradient at ``v`` and moves with it.

    The nonzero coefficients' fixed-sign system is solved exactly and the
    step is clipped at the first zero crossing, which drops that slope.
    After a full step the zero slopes whose gradient exceeds their threshold
    enter together, each with the sign that lowers the model; enterers whose
    solved step points the other way are held out. Once the system is solved
    with no entry, at least one enterer moves the right way, so only
    rounding can hold them all out, and then the solve ends.
    """
    zero = v == 0.0
    zero[0] = False
    enter = zero & (np.abs(grad) > thresholds)
    settled = False
    for _ in range(1000):
        idx = np.flatnonzero(~zero | enter)
        whole = idx.size == v.size
        sign = np.where(enter, -np.sign(grad), np.sign(v))[idx]
        system = K if whole else K[np.ix_(idx, idx)]
        try:
            step = np.linalg.solve(system, -(grad[idx] + thresholds[idx] * sign))
        except np.linalg.LinAlgError as err:  # every row's curvature underflowed
            raise ConvergenceError("singular working-set Hessian") from err
        wrong = enter[idx] & (step * sign <= 0.0)
        if wrong.any():
            enter[idx[wrong]] = False
            if settled and not enter.any():
                return
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            crossing = -v[idx] / step
        crossing[~((crossing > 0.0) & (crossing < 1.0))] = np.inf
        crossing[0] = np.inf  # the intercept never leaves
        hit = int(np.argmin(crossing))
        frac = min(float(crossing[hit]), 1.0)
        v[idx] += frac * step
        grad += frac * ((K if whole else K[:, idx]) @ step)
        if frac < 1.0:
            v[idx[hit]] = 0.0
        zero = v == 0.0
        zero[0] = False
        # after a clip the smaller system is solved again before any entry
        settled = frac == 1.0
        enter = zero & (np.abs(grad) > thresholds) & settled
        if settled and not enter.any():
            return
    raise ConvergenceError("working-set solve stalled")


def _with_intercept(first, rest):
    """``[first, *rest]`` as a new float array."""
    out = np.empty(rest.size + 1)
    out[0], out[1:] = first, rest
    return out


def _cd_penalized(X, y, w, lam, pen_w, beta0, beta, ridge=RIDGE, max_outer=200):
    """Proximal-Newton steps on the adaptive-lasso objective: weighted-mean
    NLL, ridge, and ``lam * pen_w`` L1 on the slopes (the intercept is
    unpenalized). Returns ``(beta0, beta, steps)``, ``steps`` being the
    number of Hessians formed.

    Each step solves the local quadratic model over a working set S, the
    nonzero slopes and the zero slopes that violate KKT, with the Hessian
    formed on S only. One product then gives the model's gradient for every
    slope; a slope outside S that violates KKT joins S and the solve
    repeats, so the step is exact over all slopes. The step is halved until
    the penalized objective does not rise. After a full step that moved
    less than 1e-3, the same solve with the new gradient and that step's
    Hessian predicts the next move; below ``CD_TOL / 10`` the fit returns,
    and so it does when a prediction below ``_ROUNDING`` is no smaller than
    that step, which only rounding makes it.
    """
    n, d = X.shape
    W = w.sum()
    thresholds = lam * pen_w
    Xt = np.ascontiguousarray(X.T)  # columns as rows, gathered per step
    buf = np.empty((d + 1) * n)  # the working set's weighted columns
    z = beta0 + X @ beta
    objective = _penalized_objective(z, y, w, beta, lam, pen_w, ridge)
    p = sigmoid(z)
    g = w * (p - y) / W
    grad = Xt @ g  # the loss gradient, ridge excluded
    for steps in range(1, max_outer + 1):
        h = w * p * (1 - p) / W
        root_h = np.sqrt(h)
        in_set = (beta != 0.0) | (np.abs(grad) > thresholds)
        new0, new = beta0, beta.copy()
        model_grad, model_grad0 = grad, g.sum()
        while True:
            S = np.flatnonzero(in_set)
            K = _working_hessian(Xt, S, root_h, ridge, buf)
            v = _with_intercept(new0, new[S])
            set_thresholds = _with_intercept(0.0, thresholds[S])
            model = _with_intercept(model_grad0, model_grad[S] + 2.0 * ridge * new[S])
            _solve_working_set(K, v, model, set_thresholds)
            new0, new[S] = v[0], v[1:]
            new_z = new0 + X @ new
            r = g + h * (new_z - z)
            model_grad, model_grad0 = Xt @ r, r.sum()
            grow = ~in_set & (np.abs(model_grad) > thresholds)
            if not grow.any():
                break
            in_set |= grow
        # Far from the optimum (a warm start at the unpenalized fit of a
        # small sample) the full step can overshoot and oscillate; halve it
        # until the objective does not rise beyond rounding.
        step0, step = new0 - beta0, new - beta
        move = max(abs(step0), float(np.abs(step).max(initial=0.0)))
        t = 1.0
        for _ in range(60):
            new_objective = _penalized_objective(new_z, y, w, new, lam, pen_w, ridge)
            if new_objective <= objective + 1e-12 * abs(objective):
                break
            t *= 0.5
            new0, new = beta0 + t * step0, beta + t * step
            new_z = new0 + X @ new
        else:
            raise ConvergenceError("penalized line search failed", iterations=steps)
        beta0, beta, z, objective = new0, new, new_z, new_objective
        p = sigmoid(z)
        g = w * (p - y) / W
        grad = Xt @ g
        if t == 1.0 and move < 1e-3 and not (~in_set & (np.abs(grad) > thresholds)).any():
            # the next move, predicted with this step's Hessian
            v = _with_intercept(beta0, beta[S])
            u = v.copy()
            model = _with_intercept(g.sum(), grad[S] + 2.0 * ridge * beta[S])
            _solve_working_set(K, u, model, set_thresholds)
            bound = np.abs(u - v).max()
            # Newton steps contract quadratically here: a tiny predicted
            # move no smaller than the step just taken is rounding
            if bound < CD_TOL / 10 or move <= bound < _ROUNDING:
                return beta0, beta, steps
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
    ``diagnostics["path"]``: each grid point's ``lambda``, ``val_log_loss``,
    ``nonzero`` count and ``outer_iterations`` (proximal-Newton steps), and
    the ``chosen`` index."""
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

        path = {"lambda": [], "val_log_loss": [], "nonzero": [], "outer_iterations": [], "chosen": 0}
        best = np.inf
        beta0w, betaw = float(initial.intercept), initial.coef.copy()
        path_X = np.asfortranarray(fit_part.X)  # the solver reads columns
        for k, lam_k in enumerate(grid):
            beta0w, betaw, steps = _cd_penalized(
                path_X, fit_part.y, fit_part.w, float(lam_k), pen_w, beta0w, betaw.copy()
            )
            probs = sigmoid(beta0w + val_part.X @ betaw)
            score = float(log_loss(probs, val_part.y, val_part.w))
            if score < best - 1e-12:
                best, path["chosen"] = score, k
            path["lambda"].append(float(lam_k))
            path["val_log_loss"].append(score)
            path["nonzero"].append(int(np.count_nonzero(betaw)))
            path["outer_iterations"].append(steps)
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
