import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import krylov
from convexkit.core import NotPositiveDefinite, make_rng


def _spd(d, kappa, seed=0):
    rng = make_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = Q @ np.diag(np.linspace(1.0, kappa, d)) @ Q.T
    return 0.5 * (A + A.T), rng.normal(size=d)


def test_cg_directions_conjugate():
    A, b = _spd(8, 20.0)
    _, dirs = krylov.cg_solve(A, b, np.zeros(8), 8)
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            p, q = dirs[i], dirs[j]
            norm = math.sqrt((p @ A @ p) * (q @ A @ q))
            assert abs(p @ A @ q) <= 1e-8 * norm


def test_cg_exact_termination():
    A, b = _spd(6, 5.0, seed=1)
    tr, _ = krylov.cg_solve(A, b, np.zeros(6), 6)
    assert tr.grad_norms()[-1] <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(tr.final_point, np.linalg.solve(A, b), atol=1e-8)


def test_cg_monotone_in_energy():
    A, b = _spd(10, 50.0, seed=2)
    x_star = np.linalg.solve(A, b)
    f_star = 0.5 * x_star @ A @ x_star - b @ x_star
    tr, _ = krylov.cg_solve(A, b, np.zeros(10), 10, f_star=f_star)
    assert np.all(np.diff(tr.gaps()) <= 1e-12)


def test_cg_stays_put_at_an_exact_solution_unless_tol_ends_the_trace():
    b = np.array([1.0, -2.0, 0.5])
    tr, dirs = krylov.cg_solve(np.eye(3), b, np.zeros(3), 6)  # r = 0 after one step
    assert len(tr) == 7 and len(dirs) == 1
    assert np.array_equal(tr.final_point, b)
    assert set(tr.values()[1:]) == {-2.625} and set(tr.grad_norms()[1:]) == {0.0}
    tr, dirs = krylov.cg_solve(np.eye(3), b, np.zeros(3), 6, tol=1e-12)
    assert len(tr) == 2 and len(dirs) == 1


def test_cg_rejects_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefinite):
        krylov.cg_solve(A, np.array([1.0, 1.0]), np.zeros(2), 2)


def test_chebyshev_three_term_identity():
    # T_n(cos t) = cos(n t)
    for t in np.linspace(0.0, math.pi, 17):
        for n in range(6):
            assert abs(krylov.chebyshev_value(n, math.cos(t))
                       - math.cos(n * t)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=0, max_value=8))
def test_chebyshev_bounded_on_interval(x, n):
    assert abs(krylov.chebyshev_value(n, x)) <= 1.0 + 1e-12


def test_chebyshev_growth_outside_interval():
    assert krylov.chebyshev_value(4, 1.5) > 1.0


def test_chebyshev_bound_frozen_value():
    # kappa=4, n=2: 2 ((sqrt(4)-1)/(sqrt(4)+1))^2 = 2/9
    assert abs(krylov.chebyshev_bound(4.0, 2) - 2.0 / 9.0) < 1e-15


def test_energy_certificate_holds():
    A = np.diag(np.linspace(1.0, 30.0, 16))
    b = np.ones(16)
    ratio, bound = krylov.cg_energy_certificate(A, b, np.zeros(16), 6)
    assert 0.0 <= ratio <= bound + 1e-12
    assert abs(bound - krylov.chebyshev_bound(30.0, 6) ** 2) < 1e-15
