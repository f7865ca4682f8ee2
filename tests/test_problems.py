import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import frankwolfe, problems, stochastic
from convexkit.core import InvalidProblem, ProblemOracle, finite_diff_gradient, make_rng


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


def test_quadratic_prox_inverts_once_per_step_size(monkeypatch):
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: inversions.append(M.shape) or inv(M))
    q = problems.make_quadratic(np.diag([1.0, 4.0, 9.0]), np.ones(3))
    assert inversions == []  # nothing is inverted when the problem is built
    y = np.array([0.5, -1.0, 2.0])
    for _ in range(5):
        q.prox(y, 0.3)
    assert inversions == [(3, 3)]
    q.prox(y, 0.7)
    q.prox(y, 0.7)
    assert len(inversions) == 2  # a new step size inverts again, once


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6), rank=st.integers(0, 6),
       log_h=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_quadratic_prox_matches_the_linear_solve(seed, d, rank, log_h):
    rng = make_rng(seed)
    M = rng.normal(size=(d, min(rank, d)))
    A = M @ M.T  # PSD, singular when rank < d
    b, y = rng.normal(size=d), rng.normal(size=d)
    q = problems.make_quadratic(A, b)
    for h in 10.0 ** np.array(log_h + log_h[:1]):  # a second step size, then the first again
        K = np.eye(d) + h * A
        want = np.linalg.solve(K, y + h * b)
        tol = 1e-13 * np.linalg.cond(K) * (1.0 + np.abs(y + h * b).max())
        assert np.abs(q.prox(y, h) - want).max() <= tol


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
    hard = float(np.max(rows @ x - b)) + 0.5 * lam * float(x @ x)  # the unsmoothed max
    assert 0.0 <= smooth - hard <= lam * math.log(5) + 1e-12


def test_worst_case_smooth_frozen_values():
    beta, d = 1.0, 65
    w = problems.make_worst_case_smooth(beta, d)
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
    o = problems.ResistingFeasibilityOracle(1.0, 2)
    r0 = o.ball_radius()
    v0 = np.prod(o.hi - o.lo)
    sep = o.query(np.zeros(2))
    assert np.abs(sep).sum() == 1.0
    assert np.prod(o.hi - o.lo) == v0 / 2.0
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
    assert fs.components is comps
    # stochastic gradient draws a single component
    g = fs.stochastic_gradient(x, make_rng(0))
    assert any(np.allclose(g, c.subgradient(x)) for c in comps)


def _summed_value(comps, x):
    """The finite sum's value as the per-component expression gives it."""
    return sum([c.value(x) for c in comps]) / len(comps)


def _summed_grad(comps, x):
    return sum(c.subgradient(x) for c in comps) / len(comps)


def _summed(comps, x):
    g = _summed_grad(comps, x)
    return _summed_value(comps, x), g


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _stackable_parts(seed, n, k, d, log_scale):
    rng = make_rng(seed)
    X = rng.normal(size=(n, k, d)) * 10.0 ** log_scale
    Y = rng.normal(size=(n, k)) * 10.0 ** log_scale
    return [problems.make_least_squares(X[i], Y[i]) for i in range(n)], rng.normal(size=d)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), k=st.integers(1, 8),
       d=st.integers(1, 12), log_scale=st.floats(-3.0, 3.0))
def test_stacked_least_squares_sum_is_bitwise_the_per_component_sum(seed, n, k, d, log_scale):
    comps, x = _stackable_parts(seed, n, k, d, log_scale)
    fs = problems.make_finite_sum(comps)
    v, g = _summed(comps, x)
    fv, fg = fs.value_and_grad(x)
    assert fs.value(x) == v and fv == v
    assert _same_bits(fs.subgradient(x), g) and _same_bits(fg, g)


def _counted(comps):
    """Wrap each component's value and subgradient with a shared call counter."""
    calls = [0]

    def counting(f):
        def wrapped(x):
            calls[0] += 1
            return f(x)
        return wrapped

    for c in comps:
        c.value, c.subgradient = counting(c.value), counting(c.subgradient)
    return calls


def test_stacked_least_squares_sum_calls_no_component():
    comps, x = _stackable_parts(5, 8, 3, 5, 0.0)
    fs = problems.make_finite_sum(comps)
    calls = _counted(comps)
    v, g = _summed(comps, x)
    assert calls[0] == 2 * len(comps)
    calls[0] = 0
    assert fs.value(x) == v and _same_bits(fs.subgradient(x), g)
    assert fs.value_and_grad(x)[0] == v
    assert calls[0] == 0
    stochastic.svrg_estimator(fs, 2, x, x, g)
    fs.stochastic_gradient(x, make_rng(0))
    assert calls[0] == 3  # these stay per component


def _mixed_sums():
    """Finite sums that call each component in turn: unequal row counts, a
    quadratic among least squares, and X that is not C-contiguous."""
    rng = make_rng(11)
    d = 4
    ls = lambda k: problems.make_least_squares(rng.normal(size=(k, d)), rng.normal(size=k))
    quad = problems.make_quadratic(np.diag([1.0, 2.0, 3.0, 4.0]), rng.normal(size=d))
    strided = rng.normal(size=(3, 2 * d))[:, ::2]
    return {"unequal-rows": [ls(2), ls(3), ls(2)],
            "quadratic-mixed-in": [ls(2), quad, ls(2)],
            "fortran-order": [problems.make_least_squares(np.asfortranarray(
                rng.normal(size=(3, d))), rng.normal(size=3)) for _ in range(3)],
            "strided": [problems.make_least_squares(strided, rng.normal(size=3)), ls(3)]}


@pytest.mark.parametrize("kind", sorted(_mixed_sums()))
def test_finite_sums_that_do_not_stack_call_their_components(kind):
    comps = _mixed_sums()[kind]
    fs = problems.make_finite_sum(comps)
    x = make_rng(12).normal(size=fs.dim)
    calls = _counted(comps)
    v, g = _summed(comps, x)
    calls[0] = 0
    fv, fg = fs.value_and_grad(x)
    assert fs.value(x) == v and fv == v
    assert _same_bits(fs.subgradient(x), g) and _same_bits(fg, g)
    assert calls[0] == 4 * len(comps)


def test_lasso_smooth_parts_stack():
    rng = make_rng(13)
    comps = [problems.make_lasso(rng.normal(size=(2, 3)), rng.normal(size=2), 0.1).extra["smooth"]
             for _ in range(4)]
    fs = problems.make_finite_sum(comps)
    x = rng.normal(size=3)
    v, g = _summed(comps, x)
    calls = _counted(comps)
    assert fs.value(x) == v and _same_bits(fs.subgradient(x), g)
    assert calls[0] == 0


def _outcome(f, x):
    """f(x)'s bits, or the class of the exception it raises."""
    try:
        out = f(x)
    except Exception as exc:
        return type(exc)
    parts = [np.asarray(o, dtype=float) for o in (out if isinstance(out, tuple) else (out,))]
    return [(a.shape, a.tobytes()) for a in parts]


@pytest.mark.parametrize("n, k, d, S", [(3, 2, 4, 4), (3, 4, 4, 4), (3, 1, 1, 1), (3, 2, 4, 6),
                                        (2, 3, 3, 3)])
def test_stacked_sum_leaves_row_matrices_and_views_to_the_components(n, k, d, S):
    comps, x = _stackable_parts(14, n, k, d, 0.0)
    fs = problems.make_finite_sum(comps)
    rows = make_rng(15).normal(size=(S, d))
    value = lambda z: _summed_value(comps, z)
    grad = lambda z: _summed_grad(comps, z)
    points = [rows, rows.T.copy(), rows[0], x[::-1], np.repeat(x, 2)[::2]]
    for z in points:  # (S, d), (d, S), a row of it, and 1-D views that are not contiguous
        assert _outcome(fs.value, z) == _outcome(value, z)
        assert _outcome(fs.subgradient, z) == _outcome(grad, z)
        assert _outcome(fs.value_and_grad, z) == _outcome(lambda z: _summed(comps, z), z)


def _reference_oracles(kind, X, Y, lam):
    """value, subgradient and value_and_grad as make_least_squares, make_logistic
    and make_svm_hinge wrote them as three closures each, before each stated
    its loss once; the derived oracles must return these bits."""
    n = X.shape[0]
    if kind == "least-squares":
        def value(theta):
            r = X.dot(theta) - Y
            return 0.5 * float(r.dot(r)) / n

        def grad(theta):
            return X.T.dot(X.dot(theta) - Y) / n

        def value_and_grad(theta):
            r = X.dot(theta) - Y
            return 0.5 * float(r.dot(r)) / n, X.T.dot(r) / n
    elif kind == "logistic":
        def value(theta):
            z = X.dot(theta)
            return float(np.mean(np.logaddexp(0.0, z) - Y * z))

        def grad(theta):
            z = X.dot(theta)
            s = 1.0 / (1.0 + np.exp(-z))
            return X.T.dot(s - Y) / n

        def value_and_grad(theta):
            z = X.dot(theta)
            s = 1.0 / (1.0 + np.exp(-z))
            return float(np.mean(np.logaddexp(0.0, z) - Y * z)), X.T.dot(s - Y) / n
    else:
        def value(theta):
            return (float(np.add.reduce(np.maximum(0.0, 1.0 - Y * X.dot(theta))) / n)
                    + 0.5 * lam * float(theta.dot(theta)))

        def grad(theta):
            margin = Y * X.dot(theta)
            active = margin < 1.0
            return -X.T.dot(Y * active) / n + lam * theta

        def value_and_grad(theta):
            margin = Y * X.dot(theta)
            value = (float(np.add.reduce(np.maximum(0.0, 1.0 - margin)) / n)
                     + 0.5 * lam * float(theta.dot(theta)))
            return value, -X.T.dot(Y * (margin < 1.0)) / n + lam * theta
    return value, grad, value_and_grad


def _reference_quadratic(A, b):
    """_quadratic_oracles as it wrote three closures, before it derived them
    from the one product A x; the derived oracles must return these bits."""
    def value(x):
        if getattr(x, "ndim", 1) == 2:  # an (S, d) row matrix
            return 0.5 * np.einsum("ij,ij->i", x, x @ A.T) - x @ b
        return 0.5 * float(A.dot(x).dot(x)) - float(b.dot(x))

    def grad(x):
        if getattr(x, "ndim", 1) == 2:
            return x @ A.T - b
        return A.dot(x) - b

    def value_and_grad(x):  # value and grad's expressions, sharing A @ x
        if getattr(x, "ndim", 1) == 2:
            return value(x), grad(x)
        Ax = A.dot(x)
        return 0.5 * float(Ax.dot(x)) - float(b.dot(x)), Ax - b

    return value, grad, value_and_grad


def _reference_worst_case_max(d, gamma, alpha):
    """make_worst_case_nonsmooth's three closures, whose value took np.max."""
    def value(x):
        return gamma * float(np.max(x)) + 0.5 * alpha * float(x.dot(x))

    def subgrad(x):
        i = int(np.argmax(x))  # np.argmax already returns the smallest maximizer
        e = np.zeros(d)
        e[i] = gamma
        return alpha * x + e

    def value_and_grad(x):  # one argmax: x[i] is the max (nan, if x holds one)
        i = int(np.argmax(x))
        e = np.zeros(d)
        e[i] = gamma
        return gamma * float(x[i]) + 0.5 * alpha * float(x.dot(x)), alpha * x + e

    return value, subgrad, value_and_grad


def _reference_softmax(A, b, lam, beta_smooth):
    """make_softmax_smoothed's value and grad, which formed beta (A x - b) each,
    and ProblemOracle's default value_and_grad, which called both."""
    def logsumexp(z):
        m = np.max(z)
        return m + math.log(np.sum(np.exp(z - m)))

    def value(x):
        return logsumexp(beta_smooth * (A @ x - b)) / beta_smooth + 0.5 * lam * float(x @ x)

    def grad(x):
        z = beta_smooth * (A @ x - b)
        w = np.exp(z - np.max(z))
        w /= np.sum(w)
        return A.T @ w + lam * x

    def value_and_grad(x):
        g = grad(x)
        return value(x), g

    return value, grad, value_and_grad


def _spread(rng, shape):
    """Entries of magnitude 1e-8 to 1e8 of either sign, with -0, 0 and 5e-324."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    v.flat[:3] = (-0.0, 0.0, 5e-324)[:v.size]
    return v


def _reference_cases(seed):
    """(name, problem, reference oracles) on seeded data of spread magnitudes."""
    rng = make_rng(seed)
    n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    X, Y = _spread(rng, (n, d)), _spread(rng, n)
    labels, signs = (Y > 0).astype(float), np.where(Y > 0, 1.0, -1.0)
    yield "least-squares", problems.make_least_squares(X, Y), _reference_oracles(
        "least-squares", X, Y, 0.0)
    yield "logistic", problems.make_logistic(X, labels), _reference_oracles(
        "logistic", X, labels, 0.0)
    for lam in (0.0, 0.1, 3.0):
        yield ("svm-%g" % lam, problems.make_svm_hinge(X, signs, lam),
               _reference_oracles("svm", X, signs, lam))
        value, grad, _ = _reference_oracles("least-squares", X, Y, 0.0)
        l1 = lambda x, lam=lam: lam * float(np.add.reduce(np.abs(x), axis=None))
        sub = lambda x, lam=lam, grad=grad: grad(x) + lam * np.sign(x)
        yield ("lasso-%g" % lam, problems.make_lasso(X, Y, lam),
               (lambda x, value=value, l1=l1: value(x) + l1(x), sub,
                lambda x, value=value, l1=l1, sub=sub: (value(x) + l1(x), sub(x))))
    Xs, Ys = _spread(rng, (4, n, d)), _spread(rng, (4, n))
    parts = [_reference_oracles("least-squares", Xs[i], Ys[i], 0.0) for i in range(4)]
    value = lambda x: sum([v(x) for v, _, _ in parts]) / 4
    grad = lambda x: sum(g(x) for _, g, _ in parts) / 4
    yield ("finite-sum", problems.make_finite_sum(
        [problems.make_least_squares(Xs[i], Ys[i]) for i in range(4)]),
           (value, grad, lambda x: (value(x), grad(x))))
    G = _spread(rng, (d, d))
    A, b = G @ G.T, _spread(rng, d)
    yield "quadratic", problems.make_quadratic(A, b), _reference_quadratic(A, b)
    chain = problems.make_worst_case_smooth(10.0 ** rng.uniform(-8, 8), d)
    yield "worst-case-smooth", chain, _reference_quadratic(*chain.quadratic)
    L, R = (10.0 ** rng.uniform(-8, 8, 2)).tolist()
    top = problems.make_worst_case_nonsmooth(d - 1, L, R)
    yield "worst-case-nonsmooth", top, _reference_worst_case_max(d, L / 4.0, top.alpha)
    for lam in (0.0, 0.1, 3.0):
        beta_smooth = 10.0 ** rng.uniform(-3, 3)
        yield ("softmax-%g" % lam, problems.make_softmax_smoothed(X, Y, lam, beta_smooth),
               _reference_softmax(X, Y, lam, beta_smooth))


def _assert_same_oracle_bits(p, refs, x, name):
    value, grad, value_and_grad = refs
    with np.errstate(over="ignore"):  # logistic's exp(-z) at z ~ -1e17
        got = [p.value(x), p.subgradient(x), *p.value_and_grad(x)]
        want = [value(x), grad(x), *value_and_grad(x)]
    if x.ndim == 1:
        assert type(got[0]) is float and type(got[2]) is float, name
    assert all(_same_bits(a, b) for a, b in zip(got, want)), (name, x)


@pytest.mark.parametrize("seed", range(12))
def test_derived_oracles_are_bitwise_the_reference_closures(seed):
    rng = make_rng(100 + seed)
    for name, p, refs in _reference_cases(seed):
        for theta in [_spread(rng, p.dim) for _ in range(6)] + [np.zeros(p.dim), -np.zeros(p.dim)]:
            _assert_same_oracle_bits(p, refs, theta, name)


@st.composite
def _hinge_cases(draw):
    """(X, labels, theta, lam) with zero rows, signed-zero entries of theta, and rows
    whose margin is exactly 1 (theta_0 a power of two, the row label * e_0 / theta_0)."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    X = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n,
                               max_size=n)))
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    theta = np.array(draw(st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
                                   min_size=d, max_size=d)))
    kinds = draw(st.lists(st.sampled_from(["drawn", "zero", "kink"]), min_size=n, max_size=n))
    if "kink" in kinds:
        theta[0] = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-4, 4))
    for i, kind in enumerate(kinds):
        if kind != "drawn":
            X[i] = 0.0
        if kind == "kink":
            X[i, 0] = labels[i] / theta[0]
    return X, labels, theta, draw(st.sampled_from([0.0, 0.1, 3.0]))


@settings(max_examples=200, deadline=None)
@given(case=_hinge_cases())
def test_label_signed_hinge_is_bitwise_the_textbook_hinge(case):
    X, labels, theta, lam = case
    p = problems.make_svm_hinge(X, labels, lam)
    _assert_same_oracle_bits(p, _reference_oracles("svm", X, labels, lam), theta, "svm")


def _max_edge_points(rng, d):
    """Points where the max is tied, a signed zero, NaN or infinite."""
    x = _spread(rng, d)
    tied, both_zeros, nans, infs = x.copy(), x.copy(), x.copy(), x.copy()
    tied[-1] = np.max(x)
    both_zeros[:2] = (-0.0, 0.0)[:d]
    nans[rng.integers(d)] = math.nan
    infs[rng.integers(d)], infs[rng.integers(d)] = math.inf, -math.inf
    return [np.full(d, x[-1]), tied, both_zeros, both_zeros[::-1].copy(), -np.zeros(d),
            np.where(rng.random(d) < 0.5, -0.0, 0.0), nans, np.full(d, math.nan), infs,
            np.full(d, math.inf), np.full(d, -math.inf)]


@pytest.mark.parametrize("seed", range(12))
def test_quadratic_rows_and_the_max_at_its_edges_are_bitwise_the_reference_closures(seed):
    rng = make_rng(200 + seed)
    for name, p, refs in _reference_cases(seed):
        if name in ("quadratic", "worst-case-smooth"):  # S == d included
            points = [_spread(rng, (S, p.dim)) for S in (1, 3, p.dim)] + [-np.zeros((2, p.dim))]
        elif name == "worst-case-nonsmooth":
            points = _max_edge_points(rng, p.dim)
        else:
            continue
        for x in points:
            _assert_same_oracle_bits(p, refs, x, name)


BAD_FIT_DATA = {  # case -> the change to good data, and the refusal it meets
    "zero-rows": (lambda X, Y, lam: (X[:0], Y[:0], lam), "X must be n x d with n, d >= 1"),
    "nan-in-X": (lambda X, Y, lam: (np.where(X == X[1, 2], math.nan, X), Y, lam),
                 "X and Y must be finite"),
    "inf-in-X": (lambda X, Y, lam: (np.where(X == X[0, 0], -math.inf, X), Y, lam),
                 "X and Y must be finite"),
    "nan-lam": (lambda X, Y, lam: (X, Y, math.nan), "lam must be finite and >= 0"),
}
FIT_CONSTRUCTORS = {
    "least-squares": lambda X, Y, lam: problems.make_least_squares(X, Y),
    "logistic": lambda X, Y, lam: problems.make_logistic(X, (Y > 0).astype(float)),
    "lasso": problems.make_lasso,
    "svm": lambda X, Y, lam: problems.make_svm_hinge(X, np.where(Y > 0, 1.0, -1.0), lam),
}


@pytest.mark.parametrize("kind, case", [
    (kind, case) for case in BAD_FIT_DATA for kind in FIT_CONSTRUCTORS
    if case != "nan-lam" or kind in ("lasso", "svm")])
def test_data_fit_constructors_refuse_bad_data(kind, case):
    # zero rows: logistic raised LinAlgError, svm numpy's ValueError; a NaN or inf
    # in X: least squares and logistic declared nan constants; lam = nan passed lam < 0
    rng = make_rng(21)
    change, message = BAD_FIT_DATA[case]
    X, Y, lam = change(rng.normal(size=(4, 3)), rng.normal(size=4), 0.1)
    with pytest.raises(InvalidProblem, match=re.escape(message)):
        FIT_CONSTRUCTORS[kind](X, Y, lam)


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
    grads = q.subgradient(X)
    assert values.shape == (6,) and grads.shape == (6, 4)
    for s in range(6):
        assert values[s] == pytest.approx(q.value(X[s]), rel=1e-12)
        g = q.subgradient(X[s])
        assert np.linalg.norm(grads[s] - g) <= 1e-12 * np.linalg.norm(g)


SYMMETRY_ENTRIES = [math.nan, math.inf, -math.inf, 0.0, 1.0, 1e300, 1e-12, 3e-12]


def _refused_as_asymmetric(A, b):
    try:
        problems.make_quadratic(A, b)
    except InvalidProblem as exc:
        return str(exc) == "A must be symmetric"
    except Exception:  # a later step's refusal of a nan or inf matrix
        return False
    return False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 35), st.sampled_from(SYMMETRY_ENTRIES)), max_size=4))
def test_quadratic_symmetry_test_by_row_blocks_decides_as_the_whole_matrix(d, seed, sets):
    rng = make_rng(seed)
    M = rng.normal(size=(d, d))
    A = M @ M.T + np.eye(d)
    for k, v in sets:  # nan, inf, and asymmetries just under and over the tolerance
        A[k % d, (k // 6) % d] += v
    with np.errstate(invalid="ignore", over="ignore"):
        want = bool(np.max(np.abs(A - A.T)) > 1e-12 * (1 + np.max(np.abs(A))))
    block = problems.SYMMETRY_BLOCK
    try:
        for size in (block, 1, 2 * d):  # all rows, 1 row, 2 rows a block
            problems.SYMMETRY_BLOCK = size
            assert _refused_as_asymmetric(A, np.ones(d)) == want
    finally:
        problems.SYMMETRY_BLOCK = block


def test_quadratic_construction_holds_no_temporary_near_the_size_of_A():
    rng = make_rng(3)
    G = rng.normal(size=(1000, 1000))
    A = G @ G.T / 2000.0 + 0.5 * np.eye(1000)
    A = 0.5 * (A + A.T)
    b = rng.normal(size=1000)
    tracemalloc.start()
    try:
        q = problems.make_quadratic(A, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.f_star is not None
    assert peak < 0.5 * A.nbytes, peak / A.nbytes  # A - A.T and its abs held 2.0 x


def test_quadratic_and_frank_wolfe_take_lists():
    q = problems.make_quadratic(np.diag([2.0, 1.0]), np.ones(2))
    assert q.value([1.0, 2.0]) == q.value(np.array([1.0, 2.0]))
    assert q.value_and_grad([1.0, 2.0])[0] == q.value(np.array([1.0, 2.0]))
    listed = ProblemOracle(2, q.value, lambda x: list(q.subgradient(x)), beta=q.beta,
                           f_star=q.f_star)
    loo = lambda p: frankwolfe.loo_box(p, -1.0, 1.0)
    tr, _ = frankwolfe.run_fw(listed, loo, np.ones(2), 5)
    assert tr.to_csv() == frankwolfe.run_fw(q, loo, np.ones(2), 5)[0].to_csv()
