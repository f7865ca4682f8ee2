"""The registry's contract: every run_solver name on every problem kind the
parser builds, and on one problem declared on the simplex, either refuses the
problem or returns budget+1 finite rows within the row's guarantee for the pair.

Each problem is built from read-only arrays, and every array it keeps is made
read-only too, so a solver that writes into its problem fails here. The
reference optima are computed here, not by convexkit's own solvers.
"""

import functools
import itertools
import math
import os
import runpy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexkit import core, problems
from convexkit.core import (Ball, CapabilityError, DivergenceError, InvalidInput, ProblemOracle,
                            Simplex, guarantee, run_solver, solver_names)

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
    """Make every array the problem keeps read-only: x_star, the quadratic's and
    the design's, and those of the problems it holds (lasso's parts, components)."""
    for value in [problem.x_star, *(problem.quadratic or ()), *(problem.design or ()),
                  *problem.extra.values(), *(problem.components or ())]:
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
    """kind -> (problem, R, f*): f* is optimal over the problem's declared domain; R
    is ||x*||, or the declared ball's radius, which psd's default step is tuned to."""
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
                    ("worst-case-smooth", problems.make_worst_case_smooth(1.5, 17)),
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
    return {kind: (p, p.domain.radius if isinstance(p.domain, Ball) else np.linalg.norm(x), f)
            for kind, (p, x, f) in out.items()}


KINDS = ["quadratic", "least-squares", "logistic", "lasso", "svm", "worst-case-smooth",
         "worst-case-nonsmooth", "simplex"]  # cli.parse_problem_file's kinds, and the simplex


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("algo", solver_names())
def test_every_name_refuses_or_meets_its_rate(algo, kind):
    p, R, f_star = _cases()[kind]
    for N in BUDGETS:
        try:
            trace = run_solver(p, algo, N)
        except (CapabilityError, InvalidInput):
            continue
        assert kind != "simplex" or algo == "md", algo  # the rest step in R^d or lack a loo
        assert len(trace) == N + 1 and trace.iters().tolist() == list(range(N + 1))
        rows = [line.split(",") for line in trace.to_csv().splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row if v != "")
        assert np.isfinite(trace.final_point).all()
        bound = guarantee(algo, p, N, R)
        if algo in ("md", "psd"):  # their rates need the domain: they run nowhere else
            assert bound is not None, (algo, kind)
        if bound is not None:
            final = trace.custom("avg_value")[-1] if algo == "md" else trace.values()[-1]
            gap = final - f_star
            assert gap <= bound + SLACK, (algo, kind, N, gap, bound)


RATED_ON_R_D = ["agd", "apgd", "cg", "fista", "gd", "ista", "pgd", "ppm"]


def _rotated_quadratic(d, kappa, seed):
    """(problem, ||x*||, f*): spectrum from beta / kappa to beta in a random
    rotation, b = A x* for a drawn x*, and f* = -1/2 <b, x*> computed here."""
    rng = np.random.Generator(np.random.Philox(seed))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    beta = 10.0 ** rng.uniform(-1.0, 1.0)
    spectrum = beta * kappa ** -np.append(rng.uniform(0.0, 1.0, d - 1), 1.0 if d > 1 else 0.0)
    A = Q @ np.diag(spectrum) @ Q.T
    A = 0.5 * (A + A.T)
    x_star = rng.standard_normal(d)
    A, b = _frozen(A, A @ x_star)
    return (_freeze(problems.make_quadratic(A, b)), float(np.linalg.norm(x_star)),
            -0.5 * float(b @ x_star))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 30), log_kappa=st.floats(0.0, 4.0), N=st.sampled_from([1, 5, 40, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=17, log_kappa=2.844556871906929, N=300, seed=17)  # cg read <p, Ap> = -5e-324
def test_every_rated_name_meets_its_rate_over_rotated_quadratics(d, log_kappa, N, seed):
    p, R, f_star = _rotated_quadratic(d, 10.0 ** log_kappa, seed)
    assert [name for name in solver_names() if guarantee(name, p, N, R) is not None] == RATED_ON_R_D
    for algo in RATED_ON_R_D:
        gap = run_solver(p, algo, N).values()[-1] - f_star
        assert gap <= guarantee(algo, p, N, R) + SLACK, (algo, d, N, gap)


ACCEPTS_LEAST_SQUARES = ["agd", "apgd", "fista", "gd", "ista", "pgd"]  # cg needs A, ppm a prox


def _least_squares_average(d, n, k, mixed, seed):
    """(problem, ||x*||, f*): the finite sum of n full-rank least-squares
    components of k rows each, the last of k + 1 rows if mixed, so that the sum
    does not stack, or the one component alone if n = 1; columns scaled by 10^-1
    to 10^1; x* from the normal equations, solved here."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = [k] * (n - 1) + [k + 1 if mixed else k]
    data = [_frozen(rng.standard_normal((r, d)) * 10.0 ** rng.uniform(-1.0, 1.0, d),
                    rng.standard_normal(r)) for r in rows]
    H = sum(X.T @ X / len(Y) for X, Y in data) / n
    x_star = np.linalg.solve(H, sum(X.T @ Y / len(Y) for X, Y in data) / n)
    f_star = sum(0.5 * float((X @ x_star - Y) @ (X @ x_star - Y)) / len(Y) for X, Y in data) / n
    parts = [problems.make_least_squares(X, Y) for X, Y in data]
    p = problems.make_finite_sum(parts) if n > 1 else parts[0]
    return _freeze(p), float(np.linalg.norm(x_star)), f_star


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), n=st.integers(1, 6), extra_rows=st.integers(0, 3),
       mixed=st.booleans(), N=st.sampled_from([1, 5, 40, 300]), seed=st.integers(0, 2 ** 32 - 1))
def test_every_rated_name_meets_its_rate_over_least_squares_averages(d, n, extra_rows, mixed, N,
                                                                     seed):
    p, R, f_star = _least_squares_average(d, n, d + extra_rows, mixed, seed)
    accepted = []
    for algo in [name for name in solver_names() if guarantee(name, p, N, R) is not None]:
        try:
            trace = run_solver(p, algo, N)
        except CapabilityError:
            continue
        accepted.append(algo)
        gap = trace.values()[-1] - f_star
        assert gap <= guarantee(algo, p, N, R) + SLACK, (algo, d, n, mixed, N, gap)
    assert accepted == ACCEPTS_LEAST_SQUARES


ACCEPTS_THE_CHAIN_QUADRATIC = ["agd", "apgd", "cg", "fista", "gd", "ista", "pgd"]
ROUNDING = 1e-14  # times beta, against gaps and bounds of order beta / 8


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.1, 10.0),
       d_N=st.integers(1, 30).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))))
def test_every_name_that_accepts_the_chain_quadratic_stays_in_its_span(beta, d_N):
    # from the origin, N answers reach the first N coordinates alone, and no point
    # there is closer than (beta/8)(1/(N+1) - 1/(d+1)) to f*
    d, N = d_N
    p = problems.make_worst_case_smooth(beta, d)
    lower = (beta / 8.0) * (1.0 / (N + 1) - 1.0 / (d + 1))
    accepted = []
    for algo in solver_names():
        try:
            trace = run_solver(p, algo, N)
        except CapabilityError:
            continue
        accepted.append(algo)
        assert not trace.final_point[N:].any(), (algo, d, N)
        assert trace.values()[-1] - p.f_star >= lower - ROUNDING * beta, (algo, d, N)
    assert accepted == ACCEPTS_THE_CHAIN_QUADRATIC


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.1, 10.0), d=st.integers(1, 30), N=st.sampled_from([1, 5, 40, 300]))
def test_every_name_that_accepts_the_chain_quadratic_meets_its_rate(beta, d, N):
    p = problems.make_worst_case_smooth(beta, d)
    R = float(np.linalg.norm(p.x_star))
    for algo in ACCEPTS_THE_CHAIN_QUADRATIC:
        gap = run_solver(p, algo, N).values()[-1] - p.f_star
        assert gap <= guarantee(algo, p, N, R) + SLACK, (algo, beta, d, N, gap)


@settings(max_examples=150, deadline=None)
@given(N_k=st.integers(0, 40).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N))),
       L=st.floats(0.1, 10.0), R=st.floats(0.1, 10.0))
def test_psd_on_the_nonsmooth_worst_case_stays_in_its_span_and_meets_its_rate(N_k, L, R):
    # from the origin, k subgradients reach the first k coordinates alone; a point with
    # a zero coordinate has max_i x_i >= 0, so f >= 0 = f* + L R / (8 sqrt(N+1))
    N, k = N_k
    p = problems.make_worst_case_nonsmooth(N, L, R)
    trace = run_solver(p, "psd", k)
    assert not trace.final_point[k:].any(), (N, k, L, R)
    gap, lower = trace.values()[-1] - p.f_star, L * R / (8.0 * math.sqrt(N + 1))
    assert gap >= lower * (1.0 - 1e-12), (N, k, L, R, gap, lower)
    if k >= 1:
        assert gap <= guarantee("psd", p, k, R) + SLACK, (N, k, L, R, gap)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 12), mu=st.floats(0.01, 10.0), N=st.sampled_from([1, 5, 40, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_md_meets_its_rate_on_the_average_over_simplex_quadratics(d, mu, N, seed):
    # <c, x> + (mu/2)||x||^2, minimized on the simplex by the projection of -c/mu; L bounds
    # the gradients' sup norm there
    rng = np.random.Generator(np.random.Philox(seed))
    c = rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 1.0)
    x = _project_simplex(-c / mu)
    p = ProblemOracle(d, lambda z: float(c @ z) + 0.5 * mu * float(z @ z), lambda z: c + mu * z,
                      alpha=mu, beta=mu, L=float(np.max(np.abs(c))) + mu, domain=Simplex())
    gap = run_solver(p, "md", N).custom("avg_value")[-1] - (float(c @ x) + 0.5 * mu * float(x @ x))
    assert gap <= guarantee("md", p, N) + SLACK, (d, mu, N, gap)


def test_the_rates_are_checked_where_the_paper_proves_them():
    # every method that takes a problem file, and md on the simplex, is held to a rate somewhere
    checked = {algo for algo in solver_names() for p, R, _ in _cases().values()
               if guarantee(algo, p, 10, R) is not None}
    assert checked == set(solver_names()) - {"fw", "sgd"}  # no kind has a loo or sampling


def test_the_guarantees_match_perfbench_copy_of_the_rates():
    checks = runpy.run_path(os.path.join(os.path.dirname(__file__), "..", "perfbench", "checks.py"))
    for beta, L, R, d, N in itertools.product((0.5, 3.0), (0.1, 7.0), (0.3, 2.0), (2, 50),
                                              (1, 17, 1000)):
        gd, agd = checks["gd_bound"](beta, R, N), checks["agd_bound"](beta, R, N)
        want = {"gd": gd, "ista": gd, "pgd": gd, "agd": agd, "fista": agd, "apgd": agd, "cg": agd,
                "psd": checks["psd_bound"](L, R, N), "ppm": checks["ppm_bound"](R, 1.0, N)}
        on_ball = ProblemOracle(d, lambda x: 0.0, beta=beta, L=L, domain=Ball(R))
        for algo, bound in want.items():
            assert guarantee(algo, on_ball, N, R) == pytest.approx(bound, rel=1e-12), algo
        on_simplex = ProblemOracle(d, lambda x: 0.0, L=L, domain=Simplex())
        assert guarantee("md", on_simplex, N) <= checks["md_bound"](L, d, N)


def test_lasso_declares_no_smoothness_so_gd_agd_and_cg_have_no_guarantee():
    p, R, _ = _cases()["lasso"]
    assert p.beta == math.inf and p.extra["smooth"].beta < math.inf
    for algo in ("gd", "agd", "cg"):
        assert guarantee(algo, p, 10, R) is None, algo
    assert guarantee("ista", p, 10, R) is not None


STEPPED = [name for name in solver_names() if core._solver_registry()[name].step is not None]
EDGE_STEPS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]


@settings(max_examples=300, deadline=None)
@given(algo=st.sampled_from(STEPPED), kind=st.sampled_from(KINDS),
       step=st.one_of(st.sampled_from(EDGE_STEPS), st.floats()))
def test_a_step_is_used_only_when_positive_and_finite(algo, kind, step):
    # nan and inf passed the h <= 0 test, and ran until DivergenceError
    p, N, valid = _cases()[kind][0], 5, 0 < step < math.inf
    try:
        trace = run_solver(p, algo, N, step=step)
    except InvalidInput:
        assert not valid, (algo, kind, step)
        return
    except (CapabilityError, DivergenceError):
        # a refusal, or a run that the divergence guard stops (exit 1), with no
        # numpy warning on the way
        assert valid, (algo, kind, step)
        return
    assert valid, (algo, kind, step)
    assert len(trace) == N + 1
    rows = [line.split(",") for line in trace.to_csv().splitlines()[1:]]
    assert all(math.isfinite(float(v)) for row in rows for v in row if v != "")
    assert np.isfinite(trace.final_point).all()
