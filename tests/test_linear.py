import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glassbox_credit import linear
from glassbox_credit.data import Dataset
from glassbox_credit.errors import ConvergenceError, DataError
from glassbox_credit.linear import (
    CD_TOL,
    RIDGE,
    LinearModel,
    adaptive_weights,
    fit_adaptive_lasso,
    fit_logistic,
    lambda_max,
    sigmoid,
    soft_threshold,
)
from glassbox_credit.pltr import assemble_extended, fit_pltr


def bernoulli_data(beta0, beta, n, seed):
    rng = np.random.default_rng(seed)
    d = len(beta)
    X = rng.standard_normal((n, d))
    p = sigmoid(beta0 + X @ np.asarray(beta))
    y = (rng.random(n) < p).astype(float)
    names = [f"x{j}" for j in range(d)]
    return Dataset(X, y, np.ones(n), names)


def test_sigmoid_known_value():
    assert sigmoid(np.array([np.log(3.0)]))[0] == pytest.approx(0.75)
    assert sigmoid(np.array([0.0]))[0] == 0.5


def _logistic_reference(z: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # exp(-z) beyond the float range: the limit is 0
        return 0.0


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_sigmoid_matches_scalar_reference(z):
    want = _logistic_reference(z)
    got = sigmoid(z)
    assert abs(got - want) <= 1e-15 * want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
    st.sampled_from([(-1,), (-1, 1), (1, -1)]),
)
def test_sigmoid_shape_dtype_and_input_untouched(values, shape):
    z = np.array(values, dtype=float).reshape(shape)
    before = z.copy()
    out = sigmoid(z)
    assert isinstance(out, np.ndarray) and out is not z
    assert out.dtype == np.float64 and out.shape == z.shape
    np.testing.assert_array_equal(z, before)
    want = [_logistic_reference(v) if not math.isnan(v) else math.nan for v in z.ravel()]
    np.testing.assert_allclose(out.ravel(), want, rtol=1e-15, atol=0)


def test_sigmoid_special_values():
    assert sigmoid(0.0) == 0.5 and sigmoid(-0.0) == 0.5
    assert sigmoid(np.inf) == 1.0 and sigmoid(-np.inf) == 0.0
    assert np.isnan(sigmoid(np.nan))
    assert sigmoid(np.array([-745.2, -1e300]))[0] == 0.0
    ints = sigmoid(np.array([0, 1], dtype=np.int64))
    assert ints.dtype == np.float64 and ints[0] == 0.5
    for z in (0.3, np.float64(0.3), np.float32(0.3), np.array(0.3)):
        assert type(sigmoid(z)) is np.float64  # a scalar for 0-d input
    assert sigmoid(np.array(0.3)) == _logistic_reference(0.3)


def test_sigmoid_silent_at_extremes():
    z = np.array([-1000.0, 1000.0, -709.9, -709.5, -np.inf, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(z)
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(sigmoid(z), out)
    np.testing.assert_array_equal(out[[0, 1, 2, 4, 5]], [0.0, 1.0, 0.0, 0.0, 1.0])
    assert 0.0 < out[3] < 1e-307  # subnormal, not flushed to 0


def test_logistic_recovers_coefficients():
    data = bernoulli_data(-1.0, [2.0], n=50_000, seed=10)
    model = fit_logistic(data)
    assert model.intercept == pytest.approx(-1.0, abs=0.05)
    assert model.coef[0] == pytest.approx(2.0, abs=0.05)


def test_logistic_gradient_at_optimum(tiny_data):
    model = fit_logistic(tiny_data)
    p = model.predict_proba(tiny_data.X)
    grad0 = (p - tiny_data.y).mean()
    assert abs(grad0) < 1e-5
    assert model.diagnostics["grad_norm"] <= 1e-6


def test_logistic_single_class_rejected():
    data = Dataset(np.zeros((5, 1)), np.ones(5), np.ones(5), ["x"])
    with pytest.raises(DataError):
        fit_logistic(data)


def test_logistic_weights_equal_replication():
    data = bernoulli_data(0.5, [1.0, -1.0], n=400, seed=4)
    doubled = Dataset(
        np.vstack([data.X, data.X[:100]]),
        np.concatenate([data.y, data.y[:100]]),
        np.ones(500),
        data.feature_names,
    )
    w = np.ones(400)
    w[:100] = 2.0
    weighted = Dataset(data.X, data.y, w, data.feature_names)
    a = fit_logistic(doubled)
    b = fit_logistic(weighted)
    assert a.intercept == pytest.approx(b.intercept, abs=1e-6)
    assert np.allclose(a.coef, b.coef, atol=1e-6)


def test_soft_threshold_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


def test_adaptive_weights_floor():
    w = adaptive_weights(np.array([2.0, 0.0]), gamma=1.0)
    assert w[0] == 0.5
    assert w[1] == 1e4  # zero estimate floored at 1e-4
    w2 = adaptive_weights(np.array([2.0]), gamma=2.0)
    assert w2[0] == 0.25


def test_lambda_max_kills_all_slopes():
    data = bernoulli_data(0.0, [1.5, -1.0, 0.5], n=2000, seed=8)
    initial = fit_logistic(data)
    pen_w = adaptive_weights(initial.coef)
    lmax = lambda_max(data.X, data.y, data.w, pen_w)
    model = fit_adaptive_lasso(data, lam=lmax * 1.001)
    assert np.count_nonzero(model.coef) == 0
    just_below = fit_adaptive_lasso(data, lam=lmax * 0.9)
    assert np.count_nonzero(just_below.coef) >= 1


def test_lasso_support_recovery():
    # 5 real slopes among 30 columns: at most 2 may be missed
    true = [0, 4, 9, 17, 25]
    beta = np.zeros(30)
    beta[true] = [1.5, -2.0, 1.0, 0.8, -1.2]
    data = bernoulli_data(0.3, beta, n=20_000, seed=12)
    model = fit_adaptive_lasso(data, lam="auto")
    support = set(np.flatnonzero(model.coef))
    assert len(set(true) - support) <= 2


def test_lasso_zero_penalty_matches_unpenalized(tiny_data):
    lasso = fit_adaptive_lasso(tiny_data, lam=1e-12)
    plain = fit_logistic(tiny_data)
    assert lasso.intercept == pytest.approx(plain.intercept, abs=1e-5)
    assert np.allclose(lasso.coef, plain.coef, atol=1e-5)


def test_linear_model_standardization_at_predict_time():
    raw = np.array([[10.0], [20.0], [30.0]])
    means, stds = np.array([20.0]), np.array([np.sqrt(200.0 / 3.0)])
    model = LinearModel(
        intercept=0.1, coef=np.array([0.7]), feature_names=["x"],
        means=means, stds=stds,
    )
    z = (raw - means) / stds
    expected = sigmoid(0.1 + 0.7 * z[:, 0])
    assert np.allclose(model.predict_proba(raw), expected)


def test_linear_model_validation():
    with pytest.raises(DataError):
        LinearModel(intercept=0.0, coef=np.array([1.0, 2.0]), feature_names=["x"])
    with pytest.raises(DataError):
        LinearModel(intercept=np.nan, coef=np.array([1.0]), feature_names=["x"])


# Largest subgradient violation allowed at a returned lasso solution. The
# solver stops once its predicted next move is below CD_TOL / 10 (1e-8); the
# gradient is then off by at most the curvature (below 1 here) times that.
KKT_TOL = 1e-6


def kkt_violation(X, y, w, lam, pen_w, beta0, beta):
    """Largest violation of the lasso optimality conditions at (beta0, beta)
    for the weighted-mean NLL plus ridge: a zero intercept gradient,
    grad_j = -lam * pen_w_j * sign(beta_j) on the support and
    |grad_j| <= lam * pen_w_j off it."""
    r = w * (sigmoid(beta0 + X @ beta) - y) / w.sum()
    grad = X.T @ r + 2.0 * RIDGE * beta
    on = np.abs(grad + lam * pen_w * np.sign(beta))
    off = np.maximum(np.abs(grad) - lam * pen_w, 0.0)
    return max(abs(r.sum()), float(np.where(beta != 0.0, on, off).max()))


@st.composite
def lasso_problems(draw):
    """A few continuous columns and 0/1 threshold indicators of them, as in
    PLTR's extended matrix, with an exact duplicate of an indicator and a
    near copy (a few rows flipped) drawn in; weights 1 or 2.5; a penalty
    from just below lambda_max down to nearly none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(150, 400))
    cont = rng.standard_normal((n, draw(st.integers(1, 3))))
    src = rng.integers(0, cont.shape[1], draw(st.integers(1, 6)))
    ind = (cont[:, src] < rng.standard_normal(src.size)).astype(float)
    cols = [cont, ind]
    if draw(st.booleans()):
        cols.append(ind[:, :1])
    if draw(st.booleans()):
        near = ind[:, -1:].copy()
        flip = rng.choice(n, draw(st.integers(1, 4)), replace=False)
        near[flip] = 1.0 - near[flip]
        cols.append(near)
    X = np.hstack(cols)
    truth = rng.standard_normal(X.shape[1]) * (rng.random(X.shape[1]) < 0.6)
    y = (rng.random(n) < sigmoid(X @ truth - (X @ truth).mean())).astype(float)
    y[:2] = [0.0, 1.0]
    w = rng.choice([1.0, 2.5], n)
    initial = fit_logistic(Dataset(X, y, w, [f"x{j}" for j in range(X.shape[1])]))
    pen_w = adaptive_weights(initial.coef)
    lam = draw(st.sampled_from([0.9, 0.3, 0.05, 1e-3])) * lambda_max(X, y, w, pen_w)
    # start from the unpenalized fit, as fit_adaptive_lasso does, and from zero
    starts = [(initial.intercept, initial.coef), (0.0, np.zeros(X.shape[1]))]
    return X, y, w, lam, pen_w, starts


@settings(max_examples=200)
@given(lasso_problems())
def test_lasso_solution_meets_kkt(problem):
    X, y, w, lam, pen_w, starts = problem
    for beta0, beta in starts:
        b0, b, _ = linear._cd_penalized(X, y, w, lam, pen_w, beta0, beta.copy())
        assert kkt_violation(X, y, w, lam, pen_w, b0, b) <= KKT_TOL


# Reference solver: the per-sample coordinate descent the covariance form
# replaced, which carries the residual X (beta - beta_outer) and pays O(n)
# per coordinate, kept as an oracle for the coefficients. Its stopping
# tolerance is a parameter here; the code is otherwise unchanged.
def reference_cd_penalized(X, y, w, lam, pen_w, beta0, beta, ridge=RIDGE, max_outer=200, tol=CD_TOL):
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
            if max_delta < tol:
                break
            active_newton()
        else:
            raise ConvergenceError("coordinate descent stalled", iterations=outer)
        if max_delta_outer < tol:
            return beta0, beta, outer
    raise ConvergenceError("penalized fit did not converge", iterations=max_outer)



# The reference stops once no coordinate moves by its tolerance. Along a
# direction of small curvature (two indicators whose difference marks a few
# rows) that leaves its stopping point up to 1e-4 from the optimum at the
# default 1e-7, so the fixed points are compared at 1e-12.
TIGHT_TOL = 1e-12


@settings(max_examples=200)
@given(lasso_problems())
def test_covariance_solver_matches_per_sample_reference(problem):
    X, y, w, lam, pen_w, starts = problem
    for beta0, beta in starts:
        try:
            want0, want, _ = reference_cd_penalized(
                X, y, w, lam, pen_w, beta0, beta.copy(), tol=TIGHT_TOL
            )
        except ConvergenceError:
            # the reference's undamped outer step can oscillate; the KKT
            # test covers the new solver on those problems
            assume(False)
        with mock.patch.object(linear, "CD_TOL", TIGHT_TOL):
            got0, got, _ = linear._cd_penalized(X, y, w, lam, pen_w, beta0, beta.copy())
        assert abs(got0 - want0) <= 1e-6
        assert np.abs(got - want).max() <= 1e-6


def reference_fixed_point(X, y, w, lam, pen_w, beta0, beta):
    """The reference solver's solution at TIGHT_TOL; examples on which its
    undamped outer step oscillates are discarded."""
    try:
        return reference_cd_penalized(X, y, w, lam, pen_w, beta0, beta.copy(), tol=TIGHT_TOL)[:2]
    except ConvergenceError:
        assume(False)


@settings(max_examples=60)
@given(lasso_problems(), st.integers(3, 8))
def test_warm_started_path_meets_kkt_and_matches_reference(problem, n_grid):
    """A decreasing lambda grid solved with warm starts from the unpenalized
    fit, as fit_adaptive_lasso runs it: every point meets KKT, and at
    CD_TOL = 1e-12 every point matches the reference's own path."""
    X, y, w, _, pen_w, starts = problem
    lmax = lambda_max(X, y, w, pen_w)
    got = tight = want = starts[0]
    for lam in np.geomspace(lmax, lmax * 1e-4, n_grid):
        got = linear._cd_penalized(X, y, w, lam, pen_w, got[0], got[1].copy())[:2]
        assert kkt_violation(X, y, w, lam, pen_w, *got) <= KKT_TOL
        with mock.patch.object(linear, "CD_TOL", TIGHT_TOL):
            tight = linear._cd_penalized(X, y, w, lam, pen_w, tight[0], tight[1].copy())[:2]
        want = reference_fixed_point(X, y, w, lam, pen_w, *want)
        assert abs(tight[0] - want[0]) <= 1e-6
        assert np.abs(tight[1] - want[1]).max() <= 1e-6


@settings(max_examples=200)
@given(lasso_problems())
def test_returned_fit_is_within_its_predicted_move(problem):
    """The fit returns once the next move it predicts is below CD_TOL / 10,
    and a Newton step this close predicts the remaining distance well: every
    solution is within CD_TOL / 5 of the reference's fixed point."""
    X, y, w, lam, pen_w, starts = problem
    for beta0, beta in starts:
        got0, got, _ = linear._cd_penalized(X, y, w, lam, pen_w, beta0, beta.copy())
        want0, want = reference_fixed_point(X, y, w, lam, pen_w, beta0, beta)
        assert max(abs(got0 - want0), np.abs(got - want).max()) <= CD_TOL / 5


def test_slope_outside_the_working_set_enters_within_the_step():
    """x1 is independent of the label, so its gradient is below its
    threshold at the start and it stays out of the first working set; once
    x0 (which carries x1 as noise) enters, the model's gradient for x1
    exceeds the threshold and the same step must take it in."""
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 4000))
    X = np.column_stack([u + v, v])
    y = (rng.random(4000) < sigmoid(2.0 * u)).astype(float)
    w, pen_w, lam = np.ones(4000), np.ones(2), 0.05
    beta0 = math.log(y.mean() / (1.0 - y.mean()))
    grad = X.T @ (y.mean() - y) / 4000
    assert abs(grad[1]) < lam < abs(grad[0])
    formed = []

    def spy(Xt, S, root_h, ridge, buf):
        formed.append((S.tolist(), root_h))
        return hessian(Xt, S, root_h, ridge, buf)

    hessian = linear._working_hessian
    with mock.patch.object(linear, "_working_hessian", spy):
        b0, b, _ = linear._cd_penalized(X, y, w, lam, pen_w, beta0, np.zeros(2))
    (first, first_h), (second, second_h) = formed[:2]
    assert first == [0] and second == [0, 1] and second_h is first_h
    assert np.all(b != 0.0)
    assert kkt_violation(X, y, w, lam, pen_w, b0, b) <= KKT_TOL


def test_saturated_start_raises_convergence_error():
    """Every row's margin beyond 37 makes each curvature p(1 - p) exactly 0,
    so the Hessian's intercept row is 0: a ConvergenceError (CLI exit 3),
    with no warning on the way."""
    X = np.repeat([[1.0, 0.5], [-1.0, -0.5]], 25, axis=0)
    y = (X[:, 0] > 0).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="singular"):
            linear._cd_penalized(X, y, np.ones(50), 1e-3, np.ones(2), 0.0, np.array([1e3, 0.0]))


# Small samples on which fit_pltr(lam="auto") failed before the outer step
# was damped: the final fit at the chosen lambda, warm-started from the
# unpenalized coefficients (|beta| near 13), oscillated ("penalized fit did
# not converge") or overflowed ("non-finite coefficients").
# (seed, d, levels, n), drawn as in test_persist's round-trip property test.
SMALL_SAMPLE_DRAWS = [
    (1, 4, 3, 120), (2, 2, 8, 120), (4, 4, 8, 120), (5, 4, 8, 120), (6, 2, 8, 149),
    (6, 4, 8, 106), (7, 4, None, 120), (12, 2, 3, 100), (14, 4, None, 100),
    (15, 4, 3, 120), (15, 4, 8, 120), (18, 2, 3, 106), (18, 2, 8, 106), (18, 4, 3, 100),
    (24, 2, 8, 149), (24, 4, None, 149), (28, 2, 8, 100), (32, 4, 8, 106),
    (36, 4, 8, 106), (37, 4, 8, 120), (39, 2, 3, 149), (39, 2, 8, 149),
]


@pytest.mark.parametrize("seed, d, levels, n", SMALL_SAMPLE_DRAWS)
def test_auto_lasso_fits_small_samples(seed, d, levels, n):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if levels is not None:
        X = np.floor(X * levels / 2)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
    y[:2] = [0.0, 1.0]
    w = rng.choice([1.0, 2.5], n)
    data = Dataset(X, y, w, [f"x{j}" for j in range(d)])
    model = fit_pltr(data)
    ext = assemble_extended(data, model.stumps, model.pair_splits)
    pen_w = adaptive_weights(fit_logistic(ext).coef)
    lam = model.linear.diagnostics["lambda"]
    fit = model.linear
    assert kkt_violation(ext.X, ext.y, ext.w, lam, pen_w, fit.intercept, fit.coef) <= KKT_TOL


def test_auto_lasso_records_its_path():
    data = bernoulli_data(0.3, [1.5, 0.0, -1.0, 0.0], n=1500, seed=5)
    model = fit_adaptive_lasso(data, lam="auto", n_grid=12)
    path = model.diagnostics["path"]
    assert len(path["lambda"]) == len(path["val_log_loss"]) == len(path["nonzero"]) == 12
    assert len(path["outer_iterations"]) == 12
    assert all(isinstance(k, int) and k >= 1 for k in path["outer_iterations"])
    assert path["lambda"] == sorted(path["lambda"], reverse=True)
    k = path["chosen"]
    assert model.diagnostics["lambda"] == path["lambda"][k]
    assert path["val_log_loss"][k] <= min(path["val_log_loss"]) + 1e-12
    # lambda_max leaves at most the one slope on the KKT boundary
    assert path["nonzero"][0] <= 1 < path["nonzero"][-1]
    assert "path" not in fit_adaptive_lasso(data, lam=0.01).diagnostics
