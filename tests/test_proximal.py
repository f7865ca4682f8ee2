import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import proximal, problems
from convexkit.core import InvalidInput, ProblemOracle, make_rng


def test_prox_l1_soft_threshold():
    y = np.array([2.0, -0.5, 0.1, -3.0])
    assert np.allclose(proximal.prox_l1(y, 1.0), [1.0, 0.0, 0.0, -2.0])
    with pytest.raises(InvalidInput):
        proximal.prox_l1(y, -0.1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2),
       st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2))
def test_prox_l1_nonexpansive(ys, zs):
    py = proximal.prox_l1(np.array(ys), 0.7)
    pz = proximal.prox_l1(np.array(zs), 0.7)
    assert np.linalg.norm(py - pz) <= np.linalg.norm(np.array(ys) - np.array(zs)) + 1e-12


def test_prox_generic_matches_closed_form():
    q = problems.make_quadratic(np.diag([1.0, 3.0]), np.array([0.5, -0.5]))
    y = np.array([1.0, 2.0])
    h = 0.4
    got = proximal.prox_generic(q, y, h)
    assert np.allclose(got, q.prox(y, h), atol=1e-8)


def test_prox_generic_nonsmooth_1d():
    f = ProblemOracle(1, lambda x: abs(float(x[0])), lambda x: np.sign(x), L=1.0)
    got = proximal.prox_generic(f, np.array([2.0]), 0.5)
    assert abs(got[0] - 1.5) < 1e-6  # soft threshold of |.| at lam = h
    got = proximal.prox_generic(f, np.array([0.2]), 0.5)
    assert abs(got[0]) < 1e-6


def test_ppm_strongly_convex_contraction():
    q = problems.make_quadratic(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
    tr = proximal.run_ppm(q, 0.5, np.zeros(2), 30)
    gaps = tr.gaps()
    for n in range(1, 31):
        assert gaps[n] <= gaps[n - 1] / (1 + q.alpha * 0.5) ** 2 + 1e-12


def test_pgd_reduces_to_gd_without_reg():
    from convexkit import gradient
    q = problems.make_quadratic(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
    a = proximal.run_pgd(q, None, 0.3, np.ones(2), 15, f_star=q.f_star)
    b = gradient.run_gd(q, 0.3, np.ones(2), 15)
    assert np.allclose(a.final_point, b.final_point, atol=1e-15)
    assert a.values() == pytest.approx(b.values(), abs=1e-15)


def test_fista_matches_agd_without_reg():
    from convexkit import gradient
    q = problems.make_quadratic(np.diag([1.0, 5.0]), np.array([1.0, -1.0]))
    a = proximal.run_apgd(q, None, np.zeros(2), 25, f_star=q.f_star)
    b = gradient.run_agd(q, np.zeros(2), 25)
    assert np.allclose(a.final_point, b.final_point, atol=1e-12)


def test_ista_fixed_point_is_lasso_optimum():
    lasso = problems.make_lasso(np.eye(2), np.array([3.0, 0.0]), 1.0)
    f, g = lasso.extra["smooth"], lasso.extra["reg"]
    tr = proximal.run_pgd(f, g, 1.0 / f.beta, np.zeros(2), 300)
    x = tr.final_point
    # fixed point: x = prox(x - h grad f(x))
    h = 1.0 / f.beta
    assert np.allclose(x, g.prox(x - h * f.subgradient(x), h), atol=1e-10)
    assert np.allclose(x, [1.0, 0.0], atol=1e-8)


def test_moreau_envelope_below_f_and_gradient_identity():
    q = problems.make_quadratic(np.diag([2.0, 1.0]), np.zeros(2))
    y = np.array([1.0, -1.0])
    h = 0.3
    env = proximal.moreau_envelope(q, h, y)
    assert env <= q.value(y) + 1e-12
    # grad of the envelope is (y - prox(y)) / h
    xh = q.prox(y, h)
    grad_env = (y - xh) / h
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        num = (proximal.moreau_envelope(q, h, y + e)
               - proximal.moreau_envelope(q, h, y - e)) / (2 * eps)
        assert abs(num - grad_env[i]) < 1e-5


def test_ppm_lyapunov_check_passes_on_quadratic():
    # along PPM, n^2 h^2 ||grad f||^2 + 2nh (f - f*) + ||x - x*||^2 never increases,
    # and at iterate N, ||grad f|| <= R / (Nh) and f - f* <= R^2 / (4Nh)
    q = problems.make_quadratic(np.diag([1.0, 3.0]), np.array([1.0, 1.0]))
    h, N = 0.7, 40
    trace = proximal.run_ppm(q, h, np.zeros(2), N)
    xs = [np.zeros(2)]
    for _ in range(N):
        xs.append(q.prox(xs[-1], h))
    assert np.array_equal(xs[-1], trace.final_point)
    n = np.arange(N + 1)
    dist2 = np.array([np.sum((x - q.x_star) ** 2) for x in xs])
    lyap = (n * h * trace.grad_norms()) ** 2 + 2 * n * h * trace.gaps() + dist2
    R, tol = math.sqrt(dist2[0]), 1e-8 * q.scale_at(np.zeros(2))
    assert np.all(np.diff(lyap) <= tol)
    assert trace.grad_norms()[N] <= R / (N * h) + tol
    assert trace.gaps()[N] <= R * R / (4.0 * N * h) + tol


def test_numeric_conjugate_of_square():
    # f(x) = x^2/2 is self-conjugate
    grid = np.linspace(-6.0, 6.0, 1500)
    ys = np.linspace(-2.0, 2.0, 41)
    star = proximal.numeric_conjugate(grid, 0.5 * grid ** 2, ys)
    assert np.allclose(star, 0.5 * ys ** 2, atol=1e-4)


def test_numeric_conjugate_of_abs():
    # |x|* is the indicator of [-1,1]: 0 inside, large outside the grid range
    grid = np.linspace(-4.0, 4.0, 2001)
    star = proximal.numeric_conjugate(grid, np.abs(grid), np.array([0.0, 0.5, 2.0]))
    assert abs(star[0]) < 1e-10
    assert abs(star[1]) < 1e-3
    assert star[2] > 3.9  # slope-2 direction escapes to the grid edge


def test_numeric_conjugate_validates():
    with pytest.raises(InvalidInput):
        proximal.numeric_conjugate(np.array([1.0]), np.array([1.0, 2.0]), np.array([0.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_prox_firm_nonexpansiveness(seed):
    rng = make_rng(seed)
    q = problems.make_quadratic(np.diag([1.0, 2.0, 5.0]), rng.normal(size=3))
    y, z = rng.normal(size=3), rng.normal(size=3)
    py, pz = q.prox(y, 0.8), q.prox(z, 0.8)
    assert np.linalg.norm(py - pz) ** 2 <= (py - pz) @ (y - z) + 1e-9
