import math

import numpy as np
import pytest

from convexkit import gradient, problems
from convexkit.core import DivergenceError, InvalidInput, make_rng


def _quad(seed=0, d=4, kappa=10.0):
    rng = make_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = Q @ np.diag(np.linspace(1.0, kappa, d)) @ Q.T
    return problems.make_quadratic(0.5 * (A + A.T), rng.normal(size=d))


def test_gd_monotone_descent():
    q = _quad()
    tr = gradient.run_gd(q, 1.0 / q.beta, np.zeros(q.dim), 50)
    assert np.all(np.diff(tr.values()) <= 1e-12)


def test_gd_descent_lemma_per_step():
    q = _quad(1)
    h = 1.0 / q.beta
    x = np.ones(q.dim)
    for _ in range(20):
        g = q.subgradient(x)
        x_new = x - h * g
        assert q.value(x_new) <= q.value(x) - 0.5 * h * g @ g + 1e-12
        x = x_new


def test_gd_diverges_with_huge_step():
    q = _quad(2)
    with pytest.raises(DivergenceError):
        gradient.run_gd(q, 100.0 / q.beta, np.ones(q.dim), 200)


def test_gd_rejects_nonpositive_step():
    q = _quad()
    with pytest.raises(InvalidInput):
        gradient.run_gd(q, 0.0, np.zeros(q.dim), 5)


def test_sharp_contraction_factor():
    factor, h = gradient.gd_sharp_contraction_factor(1.0, 3.0)
    assert factor == 0.5 and h == 0.5
    # the factor is met with equality on the extreme eigenvector mix
    q = problems.make_quadratic(np.diag([1.0, 3.0]), np.zeros(2))
    x = np.array([1.0, 1.0])
    x_new = x - h * q.subgradient(x)
    assert abs(np.linalg.norm(x_new) - factor * np.linalg.norm(x)) < 1e-12
    with pytest.raises(InvalidInput):
        gradient.gd_sharp_contraction_factor(2.0, 1.0)


def test_gd_strongly_convex_contraction():
    q = _quad(3, kappa=5.0)
    factor, h = gradient.gd_sharp_contraction_factor(q.alpha, q.beta)
    x = np.ones(q.dim)
    for _ in range(10):
        x_new = x - h * q.subgradient(x)
        assert (np.linalg.norm(x_new - q.x_star)
                <= factor * np.linalg.norm(x - q.x_star) + 1e-12)
        x = x_new


def test_agd_lambda_sequence():
    lam = gradient.agd_lambda_sequence(3)
    assert lam[0] == 0.0 and lam[1] == 1.0
    for n in range(1, len(lam)):
        assert abs(lam[n] - 0.5 * (1 + math.sqrt(1 + 4 * lam[n - 1] ** 2))) < 1e-15
        assert lam[n] >= (n + 1) / 2.0 - 1e-12


def test_agd_beats_gd_on_ill_conditioned():
    q = _quad(4, d=20, kappa=400.0)
    x0 = np.zeros(q.dim)
    gd = gradient.run_gd(q, 1.0 / q.beta, x0, 150).gaps()[-1]
    agd = gradient.run_agd(q, x0, 150).gaps()[-1]
    assert agd < gd / 10.0


def test_gd_pl_geometric_decay():
    q = _quad(5, kappa=8.0)
    h = 1.0 / q.beta
    tr = gradient.run_gd(q, h, np.ones(q.dim), 40)
    gaps = tr.gaps()
    rho = 1.0 - q.alpha * h
    for n in range(1, 41):
        assert gaps[n] <= rho ** n * gaps[0] + 1e-12


def test_min_grad_norm_rate():
    # the smallest gradient norm over N GD iterates obeys the telescoped descent lemma
    q = _quad(6)
    h = 1.0 / q.beta
    best = float(np.min(gradient.run_gd(q, h, np.ones(q.dim), 30).grad_norms()[:30]))
    gap0 = q.value(np.ones(q.dim)) - q.f_star
    assert best <= math.sqrt(2.0 * gap0 / (30 * h)) + 1e-12


def test_reduce_to_strongly_convex():
    q = _quad(7, kappa=6.0)

    def base_solver(problem, x, eps_target):
        x = x.copy()
        for _ in range(10000):
            if problem.value(x) - problem.f_star <= eps_target:
                return x
            x = x - problem.subgradient(x) / problem.beta
        return x

    x0 = np.ones(q.dim)
    R = np.linalg.norm(x0 - q.x_star) * 1.1
    x = gradient.reduce_to_strongly_convex(base_solver, q, x0, R, 1e-8)
    assert q.value(x) - q.f_star <= 1e-8 * (1 + 1e-6)


def test_reduce_to_convex_regularization():
    # a convex, non-strongly-convex quadratic: flat direction
    q = problems.make_quadratic(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))

    captured = {}

    def strong_solver(reg, x0, eps_half):
        captured["alpha"] = reg.alpha
        x = np.asarray(x0, dtype=float).copy()
        for _ in range(20000):
            g = reg.subgradient(x)
            if np.linalg.norm(g) < 1e-10:
                break
            x = x - g / reg.beta
        return x

    eps, R = 1e-3, 2.0
    x = gradient.reduce_to_convex(strong_solver, q, eps, R, np.zeros(2))
    assert captured["alpha"] == pytest.approx(eps / R ** 2)
    assert q.value(x) - (-0.5) <= eps


def test_gf_tracks_flow_and_records_time():
    q = _quad(8)
    tr = gradient.simulate_gf(q, 1.0, x0=np.ones(q.dim))
    ts = tr.custom("t")
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert tr.values()[-1] < tr.values()[0]


def test_agf_strong_mode_decays():
    q = _quad(9, kappa=4.0)
    tr = gradient.simulate_agf(q, 5.0, x0=np.ones(q.dim), mode="strong")
    ly = tr.custom("lyapunov")
    assert ly[-1] < ly[0]
    with pytest.raises(InvalidInput):
        gradient.simulate_agf(q, 1.0, mode="bogus")


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_flows_default_dt_needs_positive_beta(beta):
    q = problems.make_quadratic(np.zeros((2, 2)), np.zeros(2))  # A = 0: beta = 0
    q.beta = beta
    for simulate in (gradient.simulate_gf, gradient.simulate_agf):
        with pytest.raises(InvalidInput, match="positive finite smoothness"):
            simulate(q, 1.0)
    assert len(gradient.simulate_gf(q, 0.5, dt=0.1)) == 6
