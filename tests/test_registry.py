"""The registry's contract: every run_solver name on every problem kind the
parser builds, and on one problem declared on the simplex, either refuses the
problem or returns budget+1 finite rows within the paper's rate for the pair.

Each problem is built from read-only arrays, and every array it keeps is made
read-only too, so a solver that writes into its problem fails here. The
reference optima are computed here, not by convexkit's own solvers.
"""

import functools
import math

import numpy as np
import pytest

from convexkit import problems
from convexkit.core import (Ball, CapabilityError, InvalidInput, ProblemOracle, Simplex,
                            run_solver, solver_names)

BUDGETS = (1, 10, 100)
SLACK = 1e-9  # for rounding, and the references' own error


def _frozen(*arrays):
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.setflags(write=False)
        out.append(a)
    return out


def _freeze(problem):
    """Make every array the problem keeps read-only, nested problems' included."""
    for value in [problem.x_star, *problem.extra.values()]:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif isinstance(value, ProblemOracle):
            _freeze(value)
    return problem


def _project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def _logistic_optimum(X, Y):
    """Newton's method from 0; the data are not separable."""
    theta = np.zeros(X.shape[1])
    for _ in range(50):
        s = 1.0 / (1.0 + np.exp(-(X @ theta)))
        g = X.T @ (s - Y) / len(Y)
        theta = theta - np.linalg.solve(X.T @ (X * (s * (1 - s))[:, None]) / len(Y), g)
    assert np.linalg.norm(g) < 1e-12
    return theta


def _lasso_optimum(X, Y, lam):
    """ISTA at 1/beta; the smooth part is strongly convex, so it converges linearly."""
    n = len(Y)
    h = 1.0 / np.linalg.eigvalsh(X.T @ X / n)[-1]
    theta = np.zeros(X.shape[1])
    for _ in range(20000):
        z = theta - h * X.T @ (X @ theta - Y) / n
        theta = np.sign(z) * np.maximum(np.abs(z) - h * lam, 0.0)
    return theta


def _svm_lower_bound(X, Y, lam, value):
    """(theta, a lower bound on f*): the dual, max over a in [0, 1]^n of
    mean(a) - ||Z'a||^2 / (2 lam n^2) with Z's rows y_i x_i, by FISTA. Its
    value at any a is at most f*; f(theta(a)) closes the gap from above."""
    n = len(Y)
    Z = Y[:, None] * X
    K = Z @ Z.T / (lam * n * n)
    h = 1.0 / np.linalg.eigvalsh(K)[-1]
    a = prev = np.zeros(n)
    for k in range(20000):
        v = a + (k - 1.0) / (k + 2.0) * (a - prev)
        prev, a = a, np.clip(v + h * (1.0 / n - K @ v), 0.0, 1.0)
    theta = Z.T @ a / (lam * n)
    dual = a.sum() / n - 0.5 * lam * float(theta @ theta)
    assert value(theta) - dual < 1e-10
    return theta, dual


@functools.lru_cache(maxsize=None)
def _cases():
    """kind -> (problem, x*, f*): the optimum over the problem's declared domain."""
    rng = np.random.Generator(np.random.Philox(2031))
    d, n = 4, 10
    G = rng.standard_normal((d, d))
    A, b, X, Y = _frozen(G @ G.T / d + 0.5 * np.eye(d), rng.standard_normal(d),
                         rng.standard_normal((n, d)), rng.standard_normal(n))
    labels, signs = _frozen((rng.random(n) < 0.5).astype(float),
                            np.where(rng.standard_normal(n) > 0, 1.0, -1.0))
    out = {}
    for kind, p in [("quadratic", problems.make_quadratic(A, b)),
                    ("least-squares", problems.make_least_squares(X, Y)),
                    ("worst-case-smooth", problems.make_worst_case_smooth(8, 1.5, 17)),
                    ("worst-case-nonsmooth", problems.make_worst_case_nonsmooth(8, 2.0, 0.7))]:
        out[kind] = (_freeze(p), p.x_star, p.f_star)
    p = problems.make_logistic(X, labels)
    x = _logistic_optimum(X, labels)
    out["logistic"] = (_freeze(p), x, p.value(x))
    p = problems.make_lasso(X, Y, 0.1)
    x = _lasso_optimum(X, Y, 0.1)
    out["lasso"] = (_freeze(p), x, p.value(x))
    p = problems.make_svm_hinge(X, signs, 0.1)
    x, lower = _svm_lower_bound(X, signs, 0.1, p.value)
    assert np.linalg.norm(x) <= p.domain.radius
    out["svm"] = (_freeze(p), x, lower)
    # <c, x> + (mu/2)||x||^2 on the simplex, minimized there by the projection of -c/mu
    (c,), mu = _frozen(rng.standard_normal(6)), 0.5
    (x,) = _frozen(_project_simplex(-c / mu))
    f_star = float(c @ x) + 0.5 * mu * float(x @ x)
    out["simplex"] = (ProblemOracle(6, lambda z: float(c @ z) + 0.5 * mu * float(z @ z),
                                    lambda z: c + mu * z, alpha=mu, beta=mu,
                                    L=float(np.linalg.norm(c)) + mu, f_star=f_star,
                                    x_star=x, domain=Simplex(), name="simplex"),
                      x, f_star)
    return out


SMOOTH = {"quadratic", "least-squares", "logistic", "worst-case-smooth"}


def _rate(algo, kind, p, x_star, N):
    """The paper's bound on the final gap of algo's default run, or None if it proves none.

    x0 = 0, so R = ||x*||; r is the radius of a declared ball and L the
    Lipschitz constant (on the simplex L bounds the gradients' sup norm).
    """
    R2 = float(x_star @ x_star)
    if algo in ("gd", "ista", "pgd") and (kind in SMOOTH or algo != "gd" and kind == "lasso"):
        return p.beta * R2 / (2.0 * N)  # step 1/beta
    if algo in ("agd", "fista", "apgd") and (kind in SMOOTH or algo != "agd" and kind == "lasso"):
        return 2.0 * p.beta * R2 / (N * N)
    if algo == "cg" and kind in ("quadratic", "worst-case-smooth"):
        return 2.0 * p.beta * R2 / (N * N)  # AGD's iterate is in the Krylov space CG minimizes over
    if algo == "ppm" and kind == "quadratic":
        return R2 / (2.0 * N)  # step h = 1: R^2 / (2 h N)
    if algo == "psd" and isinstance(p.domain, Ball):
        return p.L * p.domain.radius / math.sqrt(N)  # step r / sqrt(N)
    if algo == "md" and isinstance(p.domain, Simplex):
        return p.L * math.sqrt(2.0 * math.log(p.dim) / N)  # for the average
    return None


KINDS = ["quadratic", "least-squares", "logistic", "lasso", "svm", "worst-case-smooth",
         "worst-case-nonsmooth", "simplex"]  # cli.parse_problem_file's kinds, and the simplex


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("algo", solver_names())
def test_every_name_refuses_or_meets_its_rate(algo, kind):
    p, x_star, f_star = _cases()[kind]
    for N in BUDGETS:
        try:
            trace = run_solver(p, algo, N)
        except (CapabilityError, InvalidInput):
            continue
        assert len(trace) == N + 1 and trace.iters().tolist() == list(range(N + 1))
        rows = [line.split(",") for line in trace.to_csv().splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row if v != "")
        assert np.isfinite(trace.final_point).all()
        bound = _rate(algo, kind, p, x_star, N)
        if algo in ("md", "psd"):  # their rates need the domain: they run nowhere else
            assert bound is not None, (algo, kind)
        if bound is not None:
            final = trace.custom("avg_value")[-1] if algo == "md" else trace.values()[-1]
            gap = final - f_star
            assert gap <= bound + SLACK, (algo, kind, N, gap, bound)


def test_the_rates_are_checked_where_the_paper_proves_them():
    # every method that takes a problem file, and md on the simplex, is held to a rate somewhere
    checked = {algo for algo in solver_names() for kind in KINDS
               if _rate(algo, kind, *_cases()[kind][:2], 10) is not None}
    assert checked == set(solver_names()) - {"fw", "sgd"}  # no kind has a loo or sampling
