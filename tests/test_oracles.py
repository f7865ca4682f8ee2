"""The fused value_and_grad oracle: same bytes as value and gradient, and one
pass over the data per evaluated point in every first-order loop."""

import collections

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexkit import (altmin, frankwolfe, gradient, krylov, mirror, nonsmooth,
                       problems, proximal)
from convexkit.core import ProblemOracle, finite_diff_gradient

D = 4


def _problem(kind, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((6, D))
    Y = rng.standard_normal(6)
    if kind == "quadratic":
        G = rng.standard_normal((D, D))
        return problems.make_quadratic(G @ G.T / D + 0.1 * np.eye(D), Y[:D])
    if kind == "least-squares":
        return problems.make_least_squares(X, Y)
    if kind == "logistic":
        return problems.make_logistic(X, (Y > 0).astype(float))
    if kind == "lasso":
        return problems.make_lasso(X, Y, 0.1)
    if kind == "lasso-smooth":
        return problems.make_lasso(X, Y, 0.1).extra["smooth"]
    if kind == "svm":
        return problems.make_svm_hinge(X, np.where(Y > 0, 1.0, -1.0), 0.1)
    if kind == "worst-case-smooth":
        return problems.make_worst_case_smooth(D, 1.0 + seed % 5, D)
    if kind == "worst-case-nonsmooth":
        return problems.make_worst_case_nonsmooth(D - 1, 1.0 + seed % 5, 1.0)
    raise ValueError(kind)


KINDS = ["quadratic", "least-squares", "logistic", "lasso", "lasso-smooth", "svm",
         "worst-case-smooth", "worst-case-nonsmooth"]
points = st.lists(st.floats(-2.0, 2.0), min_size=D, max_size=D).map(np.array)
seeds = st.integers(0, 2 ** 16)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=seeds, x=points)
def test_value_and_grad_is_value_and_gradient_bytewise(kind, seed, x):
    p = _problem(kind, seed)
    v, g = p.value_and_grad(x)
    assert type(v) is float
    assert np.float64(v).tobytes() == np.float64(p.value(x)).tobytes()
    assert g.dtype == np.float64 and g.tobytes() == p.gradient(x).tobytes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([k for k in KINDS if k != "lasso"]), seed=seeds, x=points)
def test_fused_gradient_matches_finite_differences(kind, seed, x):
    p = _problem(kind, seed)
    if kind == "svm":  # the hinge has kinks at margin 1; stay clear of them
        X, Y = p.extra["X"], p.extra["Y"]
        assume(np.min(np.abs(Y * (X @ x) - 1.0)) > 1e-4)
    if kind == "worst-case-nonsmooth":  # the max has kinks where two coordinates tie
        top = np.sort(x)
        assume(top[-1] - top[-2] > 1e-4)
    _, g = p.value_and_grad(x)
    fd = finite_diff_gradient(p.value, x)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(x=points)
def test_default_composition_reads_the_attributes_at_call_time(x):
    calls = []

    def value(z):
        calls.append("value")
        return float(z @ z)

    def grad(z):
        calls.append("subgradient")
        return 2.0 * z

    p = ProblemOracle(D, value, grad)
    v, g = p.value_and_grad(x)
    assert calls == ["subgradient", "value"]  # the order the loops used
    assert v == value(x) and np.array_equal(g, grad(x))
    p.value = lambda z: 7.0
    p.subgradient = lambda z: -z
    v, g = p.value_and_grad(x)
    assert v == 7.0 and np.array_equal(g, -x)


def test_quadratic_row_matrix_path_is_unchanged():
    q = _problem("quadratic", 3)
    X = np.arange(3.0 * D).reshape(3, D) / 10.0
    v, g = q.value_and_grad(X)
    assert np.array_equal(v, q.value(X)) and np.array_equal(g, q.gradient(X))


# --- oracle passes per iteration ------------------------------------------------

def _counted(p):
    """Count calls of p's value, subgradient and value_and_grad attributes."""
    counts = collections.Counter()

    def wrap(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    for key in ("value", "subgradient", "value_and_grad"):
        setattr(p, key, wrap(key, getattr(p, key)))
    return counts


N = 12


def _x0():
    return np.linspace(-1.0, 1.0, D)


def _ball(z):
    return nonsmooth.project_ball(z, np.zeros(D), 10.0)


# loop name -> (run(oracle), expected calls per record: fused, value, subgradient)
LOOPS = {
    "gd": (lambda q: gradient.run_gd(q, 0.1, _x0(), N), (1, 0, 0)),
    "agd": (lambda q: gradient.run_agd(q, _x0(), N), (1, 0, 1)),
    "psd": (lambda q: nonsmooth.run_psd(q, _ball, 0.1, _x0(), N), (1, 1, 0)),
    "psd_strong": (lambda q: nonsmooth.run_psd_strong(q, _ball, _x0(), N)[1], (1, 1, 0)),
    "pgd": (lambda q: proximal.run_pgd(q, None, 0.1, _x0(), N), (1, 0, 0)),
    "ppm": (lambda q: proximal.run_ppm(q, 1.0, _x0(), N), (1, 0, 0)),
    "fw": (lambda q: frankwolfe.run_fw(
        q, lambda g: frankwolfe.loo_box(g, -1.0, 1.0), _x0(), N)[0], (1, 0, 0)),
    "gauss_southwell": (lambda q: altmin.run_gauss_southwell(q, 0.1, _x0(), N), (1, 0, 0)),
    "gf": (lambda q: gradient.simulate_gf(q, N * 0.01, 0.01, _x0()), (1, 0, 0)),
    "agf": (lambda q: gradient.simulate_agf(q, N * 0.01, 0.01, _x0()), (1, 0, 0)),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_one_fused_call_per_record(loop):
    run, (fused, value, grad) = LOOPS[loop]
    q = _problem("quadratic", 5)
    counts = _counted(q)
    run(q)
    # N + 1 records; agd's gradient at y comes between records, N times
    assert counts["value_and_grad"] == fused * (N + 1)
    assert counts["value"] == value * (N + 1)
    assert counts["subgradient"] == grad * N


def test_pgd_on_lasso_one_fused_call_per_record():
    lasso = _problem("lasso", 7)
    f, g = lasso.extra["smooth"], lasso.extra["reg"]
    counts = _counted(f)
    proximal.run_pgd(f, g, 0.1, _x0(), N)
    assert counts == {"value_and_grad": N + 1}


def test_mpgd_one_fused_call_per_record():
    q = _problem("quadratic", 9)
    counts = _counted(q)
    mirror.run_mpgd(q, None, mirror.entropic_geometry(D), 0.05, np.full(D, 1.0 / D), N,
                    constraint="simplex")
    # the value at the running average is a separate point
    assert counts == {"value_and_grad": N + 1, "value": N + 1}


class CountingMatrix(np.ndarray):
    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other


def test_cg_one_matrix_product_per_iteration():
    q = _problem("quadratic", 11)
    A = q.extra["A"].view(CountingMatrix)
    CountingMatrix.products = 0
    trace, _ = krylov.cg_solve(A, q.extra["b"], np.zeros(D), D - 1, f_star=q.f_star)
    assert len(trace) == D
    assert CountingMatrix.products == D  # the starting residual, then one A @ p each
