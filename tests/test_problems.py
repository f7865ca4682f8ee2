import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import problems
from convexkit.core import InvalidProblem, finite_diff_gradient, make_rng


def test_quadratic_stars_and_constants():
    A = np.diag([1.0, 4.0])
    b = np.array([2.0, 4.0])
    q = problems.make_quadratic(A, b)
    assert np.allclose(q.x_star, [2.0, 1.0])
    assert q.alpha == 1.0 and q.beta == 4.0
    assert abs(q.f_star - q.value(q.x_star)) < 1e-15
    assert np.allclose(q.subgradient(np.zeros(2)), -b)


def test_quadratic_prox_closed_form():
    A = np.diag([1.0, 4.0])
    b = np.array([2.0, 4.0])
    q = problems.make_quadratic(A, b)
    y = np.array([0.5, -1.0])
    h = 0.3
    expect = np.linalg.solve(np.eye(2) + h * A, y + h * b)
    assert np.allclose(q.prox(y, h), expect, atol=1e-12)


def test_logistic_gradient_and_smoothness():
    rng = make_rng(0)
    X = rng.normal(size=(12, 3))
    Y = (rng.normal(size=12) > 0).astype(float)
    p = problems.make_logistic(X, Y)
    theta = rng.normal(size=3)
    assert np.allclose(p.subgradient(theta),
                       finite_diff_gradient(p.value, theta), atol=1e-5)
    assert abs(p.beta - np.linalg.eigvalsh(X.T @ X / (4 * 12))[-1]) < 1e-12


def test_least_squares_optimum():
    rng = make_rng(1)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=20)
    p = problems.make_least_squares(X, Y)
    theta = np.linalg.lstsq(X, Y, rcond=None)[0]
    assert np.linalg.norm(p.subgradient(theta)) < 1e-10
    assert abs(p.f_star - p.value(theta)) < 1e-12


def test_lasso_composite_split():
    rng = make_rng(2)
    X = rng.normal(size=(10, 3))
    Y = rng.normal(size=10)
    p = problems.make_lasso(X, Y, 0.7)
    f, g = p.extra["smooth"], p.extra["reg"]
    x = rng.normal(size=3)
    assert abs(p.value(x) - f.value(x) - g.value(x)) < 1e-12
    # the reg prox is soft thresholding at lam * h
    y = np.array([1.0, -0.05, 0.2])
    assert np.allclose(g.prox(y, 0.1), np.sign(y) * np.maximum(np.abs(y) - 0.07, 0))


def test_softmax_smoothing_error_bound():
    rng = make_rng(3)
    rows = rng.normal(size=(5, 2))
    b = rng.normal(size=5)
    lam = 0.25
    p = problems.make_softmax_smoothed(rows, b, lam, beta_smooth=1.0)
    x = rng.normal(size=2)
    smooth = p.value(x)
    hard = p.extra["unsmoothed_value"](x)
    assert 0.0 <= smooth - hard <= lam * math.log(5) + 1e-12


def test_worst_case_smooth_frozen_values():
    beta, d = 1.0, 65
    w = problems.make_worst_case_smooth(32, beta, d)
    # closed forms: f* = -(beta/8)(1 - 1/(d+1)), x*_k = 1 - k/(d+1)
    assert abs(w.f_star - (-0.12310606060606061)) < 1e-15
    assert abs(w.value(w.x_star) - w.f_star) < 1e-12
    assert np.allclose(w.subgradient(np.zeros(d)),
                       -np.eye(d)[0] * beta / 4.0)
    assert abs(w.x_star[0] - (1 - 1.0 / 66.0)) < 1e-15


def test_worst_case_nonsmooth_frozen_values():
    w = problems.make_worst_case_nonsmooth(8, 2.0, 1.0)
    d = 9
    gamma = 0.5
    alpha = gamma / math.sqrt(d)
    assert w.dim == d
    assert abs(w.alpha - alpha) < 1e-15
    assert abs(w.f_star - (-gamma * gamma / (2 * alpha * d))) < 1e-15
    # tie at the origin resolved toward the smallest index
    g = w.subgradient(np.zeros(d))
    assert g[0] == gamma and np.all(g[1:] == 0.0)
    assert abs(w.value(w.x_star) - w.f_star) < 1e-14


def test_resisting_oracle_halves_box():
    o = problems.resisting_feasibility_oracle(1.0, 2)
    r0 = o.ball_radius()
    v0 = o.box_volume()
    sep = o.query(np.zeros(2))
    assert np.abs(sep).sum() == 1.0
    assert o.box_volume() == v0 / 2.0
    for _ in range(3):
        o.query(o.lo)  # querying the low corner keeps the upper half
    assert o.ball_radius() == r0 * 0.5 ** (4 / 2.0)


def test_finite_sum_mean_semantics():
    rng = make_rng(4)
    comps = [problems.make_quadratic(np.diag([1.0 + i, 2.0]), rng.normal(size=2))
             for i in range(3)]
    fs = problems.make_finite_sum(comps)
    x = rng.normal(size=2)
    assert abs(fs.value(x) - np.mean([c.value(x) for c in comps])) < 1e-12
    assert np.allclose(fs.subgradient(x),
                       np.mean([c.subgradient(x) for c in comps], axis=0))
    assert fs.n_components == 3
    assert fs.extra["beta_component"] == max(c.beta for c in comps)
    # stochastic gradient draws a single component
    g = fs.stochastic_gradient(x, make_rng(0))
    assert any(np.allclose(g, c.subgradient(x)) for c in comps)


def test_svm_hinge_subgradient_inequality():
    rng = make_rng(5)
    X = rng.normal(size=(15, 3))
    Y = np.sign(rng.normal(size=15))
    p = problems.make_svm_hinge(X, Y, 0.5)
    for _ in range(30):
        x, y = rng.normal(size=3), rng.normal(size=3)
        g = p.subgradient(x)
        assert p.value(y) >= p.value(x) + g @ (y - x) - 1e-9


def test_svm_rejects_bad_labels():
    with pytest.raises(InvalidProblem):
        problems.make_svm_hinge(np.ones((2, 2)), np.array([1.0, 0.5]), 1.0)


def test_experts_instance_shape_and_range():
    losses = problems.make_experts_instance(50, 6, seed=0)
    assert losses.shape == (50, 6)
    assert np.all(losses >= -1.0) and np.all(losses <= 1.0)
    # the shifted column sits below the unshifted pack on average
    assert losses[:, 0].mean() < losses[:, 1:].mean()


def test_random_lp_interior_and_vertex():
    lp = problems.make_random_lp(10, 3, seed=0)
    assert np.all(lp.A @ lp.x_interior < lp.b)
    x_v, v = problems.lp_vertex_optimum(lp)
    assert np.all(lp.A @ x_v <= lp.b + 1e-9)
    assert abs(float(lp.c @ x_v) - v) < 1e-12


def test_random_lp_needs_enough_rows():
    with pytest.raises(InvalidProblem):
        problems.make_random_lp(3, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_quadratic_convexity_inequality(seed):
    rng = make_rng(seed)
    M = rng.normal(size=(3, 3))
    q = problems.make_quadratic(M @ M.T + 0.1 * np.eye(3), rng.normal(size=3))
    x, y = rng.normal(size=3), rng.normal(size=3)
    g = q.subgradient(x)
    assert q.value(y) >= q.value(x) + g @ (y - x) - 1e-9


def test_quadratic_value_and_gradient_are_rowwise():
    rng = make_rng(20)
    M = rng.normal(size=(4, 4))
    q = problems.make_quadratic(M @ M.T + np.eye(4), rng.normal(size=4))
    X = rng.normal(size=(6, 4))
    values = q.value(X)
    grads = q.gradient(X)
    assert values.shape == (6,) and grads.shape == (6, 4)
    for s in range(6):
        assert values[s] == pytest.approx(q.value(X[s]), rel=1e-12)
        assert np.linalg.norm(grads[s] - q.gradient(X[s])) <= 1e-12 * np.linalg.norm(q.gradient(X[s]))
