import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import mirror, problems, proximal
from convexkit.core import DomainError, InvalidInput, ProblemOracle, make_rng


def test_euclidean_divergence_is_half_squared_distance():
    g = mirror.euclidean_geometry(3)
    x, y = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
    assert abs(g.divergence(x, y) - 0.5 * np.linalg.norm(x - y) ** 2) < 1e-12


def test_entropic_divergence_is_kl_on_simplex():
    g = mirror.entropic_geometry(3)
    x = np.array([0.2, 0.3, 0.5])
    y = np.array([0.4, 0.4, 0.2])
    assert abs(g.divergence(x, y) - mirror.kl_divergence(x, y)) < 1e-12


def test_kl_edge_cases():
    assert mirror.kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == math.log(2)
    assert mirror.kl_divergence(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == math.inf
    with pytest.raises(InvalidInput):
        mirror.kl_divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_pinsker_property(seed):
    rng = make_rng(seed)
    x = rng.dirichlet(np.ones(4))
    y = rng.dirichlet(np.ones(4))
    assert mirror.kl_divergence(x, y) >= 0.5 * np.abs(x - y).sum() ** 2 - 1e-12


def test_bregman_projection_is_normalization():
    x = np.array([0.2, 0.6, 1.2])
    assert np.allclose(mirror.bregman_project_simplex(x), x / 2.0)
    with pytest.raises(DomainError):
        mirror.bregman_project_simplex(np.array([0.5, 0.0]))


def test_entropic_update_multiplicative_form():
    ell = np.array([0.3, -0.1, 0.2])
    f = ProblemOracle(3, lambda x: float(ell @ x), lambda x: ell.copy(), f_star=None)
    geom = mirror.entropic_geometry(3)
    x0 = np.array([0.5, 0.25, 0.25])
    h = 0.7
    tr = mirror.run_mpgd(f, None, geom, h, x0, 1, constraint="simplex")
    manual = x0 * np.exp(-h * ell)
    manual = manual / manual.sum()
    assert np.allclose(tr.final_point, manual, atol=1e-12)


def test_mpgd_euclidean_reduces_to_pgd():
    q = problems.make_quadratic(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
    geom = mirror.euclidean_geometry(2)
    a = mirror.run_mpgd(q, None, geom, 0.3, np.ones(2), 12)
    b = proximal.run_pgd(q, None, 0.3, np.ones(2), 12, f_star=q.f_star)
    assert np.allclose(a.final_point, b.final_point, atol=1e-15)


def _lasso_parts():
    rng = make_rng(21)
    lasso = problems.make_lasso(rng.normal(size=(8, 3)), rng.normal(size=8), 0.3)
    return lasso.extra["smooth"], lasso.extra["reg"]


def test_mpgd_euclidean_with_l1_prox_is_bitwise_pgd():
    f, g = _lasso_parts()
    h, x0 = 1.0 / f.beta, np.ones(3)
    a = mirror.run_mpgd(f, g, mirror.euclidean_geometry(3), h, x0, 30)
    b = proximal.run_pgd(f, g, h, x0, 30)
    assert a.final_point.tobytes() == b.final_point.tobytes()
    assert a.values().tobytes() == b.values().tobytes()
    assert b.final_point[2] == 0.0  # the l1 prox zeroes a coordinate


def test_mpgd_rejects_bad_start():
    f = ProblemOracle(2, lambda x: 0.0, lambda x: np.zeros(2))
    geom = mirror.entropic_geometry(2)
    with pytest.raises(DomainError):
        mirror.run_mpgd(f, None, geom, 0.1, np.array([0.5, -0.5]), 3)


def test_omd_regret_bound_and_actions_on_simplex():
    T, d = 400, 8
    losses = problems.make_experts_instance(T, d, seed=1)
    h = mirror.omd_step_size(math.sqrt(math.log(d)), 1.0, 1.0, T)
    actions, regret = mirror.run_omd(mirror.entropic_geometry(d), losses, h,
                                     np.full(d, 1.0 / d))
    assert actions.shape == (T, d)
    assert np.allclose(actions.sum(axis=1), 1.0, atol=1e-9)
    assert regret <= math.sqrt(2 * T * math.log(d)) + 1e-9


def test_omd_zero_losses_zero_regret():
    losses = np.zeros((10, 4))
    _, regret = mirror.run_omd(mirror.entropic_geometry(4), losses, 0.1,
                               np.full(4, 0.25))
    assert abs(regret) < 1e-12


def test_zero_sum_skewed_game():
    # rock-paper-scissors with a dominated row: value still 0
    A = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    x_hat, val, rounds = mirror.solve_zero_sum(A, 0.05)
    assert abs(val) <= 0.05
    assert abs(x_hat.sum() - 1.0) < 1e-9 and np.all(x_hat >= 0)
    assert rounds >= 1
    with pytest.raises(InvalidInput):
        mirror.solve_zero_sum(A, 0.0)


def test_zero_sum_dominant_strategy():
    # row player minimizes; row 0 dominates with all entries -1
    A = np.array([[-1.0, -1.0], [1.0, 1.0]])
    x_hat, val, _ = mirror.solve_zero_sum(A, 0.05)
    assert val <= -1.0 + 0.05
    assert x_hat[0] > 0.9
