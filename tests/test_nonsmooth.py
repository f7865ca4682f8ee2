import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import acceptance, nonsmooth, problems
from convexkit.core import (DivergenceError, InfeasibleOrBudget, InvalidInput, InvalidSeparator,
                            NoFeasiblePoint, ProblemOracle, make_rng, norm)

vec3 = st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(vec3, vec3)
def test_ball_projection_nonexpansive(xs, ys):
    c = np.zeros(3)
    px = nonsmooth.project_ball(np.array(xs), c, 1.5)
    py = nonsmooth.project_ball(np.array(ys), c, 1.5)
    assert np.linalg.norm(px) <= 1.5 + 1e-12
    assert np.linalg.norm(px - py) <= np.linalg.norm(np.array(xs) - np.array(ys)) + 1e-9


@pytest.mark.parametrize("x, c, r, want", [
    ([1e200, 1e200], [0.0, 0.0], 1.0, [math.sqrt(0.5), math.sqrt(0.5)]),
    ([1e308, -1e308], [0.0, 0.0], 2.0, [math.sqrt(2.0), -math.sqrt(2.0)]),
    ([3e200, 0.0, -4e200], [1.0, 1.0, 1.0], 5.0, [4.0, 1.0, -3.0]),
])
def test_ball_projection_of_a_far_point_is_on_the_sphere(x, c, r, want):
    # ||x - c||^2 overflows: the projection returned the centre, with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = nonsmooth.project_ball(np.array(x), np.array(c), r)
    assert np.allclose(p, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("x, c, want", [
    ([1e308, 0.0], [-1e308, 0.0], [-1e308, 0.0]),
    ([1e308, 1e308], [-1e308, 0.0], [-1e308, math.sqrt(0.2)]),
])
def test_ball_projection_when_x_minus_c_overflows(x, c, want):
    # x - c is inf, and the projection was nan. numpy still warns of the
    # overflowing subtraction, which record's loop silences, as here
    with np.errstate(over="ignore"):
        p = nonsmooth.project_ball(np.array(x), np.array(c), 1.0)
    assert np.allclose(p, want, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(vec3)
def test_box_projection_variational_inequality(xs):
    x = np.array(xs)
    p = nonsmooth.project_box(x, -1.0, 2.0)
    rng = make_rng(0)
    for _ in range(5):
        z = rng.uniform(-1.0, 2.0, size=3)
        assert (x - p) @ (z - p) <= 1e-9


def test_subgrad_max_smallest_index():
    f1 = ProblemOracle(2, lambda x: float(x[0]), lambda x: np.array([1.0, 0.0]))
    f2 = ProblemOracle(2, lambda x: float(x[0]), lambda x: np.array([0.0, 1.0]))
    g = nonsmooth.subgrad_max([f1, f2], np.zeros(2))
    assert np.array_equal(g, [1.0, 0.0])


def test_psd_averaging_beats_raw_oscillation():
    # f(x) = |x1| + 2|x2| oscillates raw but the averaged value settles
    f = ProblemOracle(2, lambda x: abs(x[0]) + 2 * abs(x[1]),
                      lambda x: np.array([np.sign(x[0]) or 1.0, 2 * np.sign(x[1]) or 2.0]),
                      L=math.sqrt(5.0), f_star=0.0, x_star=np.zeros(2))
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(2), 3.0)
    tr = nonsmooth.run_psd(f, proj, 0.15, np.array([1.0, 1.0]), 200)
    raw = tr.custom("raw")
    assert tr.values()[-1] < 0.2
    assert np.max(np.abs(np.diff(raw[-50:]))) > np.max(np.abs(np.diff(tr.values()[-50:])))


def test_psd_projection_keeps_unconstrained_path():
    q = problems.make_quadratic(np.diag([1.0, 2.0]), np.array([0.3, 0.3]))
    big = lambda z: nonsmooth.project_ball(z, np.zeros(2), 100.0)
    tr1 = nonsmooth.run_psd(q, big, 0.1, np.zeros(2), 20)
    tr2 = nonsmooth.run_psd(q, lambda z: z, 0.1, np.zeros(2), 20)
    assert np.allclose(tr1.final_point, tr2.final_point, atol=1e-12)


def test_psd_strong_rate():
    q = problems.make_quadratic(np.diag([2.0, 3.0]), np.array([1.0, -1.0]))
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(2), 5.0)
    x, tr = nonsmooth.run_psd_strong(q, proj, np.zeros(2), 4000)
    L = max(np.linalg.norm(q.subgradient(np.array([5.0, 0.0]))),
            np.linalg.norm(q.subgradient(np.array([0.0, 5.0])))) + 2
    assert q.value(x) - q.f_star <= 2 * L * L / (q.alpha * 4001)


@pytest.mark.parametrize("case", ["check-05-svm", "quadratic"])
def test_psd_strong_points_only_is_the_recorded_final_point(case):
    if case == "check-05-svm":
        problem, proj = acceptance._svm_05()
        x0 = np.zeros(5)
    else:
        problem = problems.make_quadratic(np.diag([2.0, 3.0]), np.array([1.0, -1.0]))
        proj = lambda z: nonsmooth.project_ball(z, np.zeros(2), 5.0)
        x0 = np.array([3.0, -4.0])
    x, tr = nonsmooth.run_psd_strong(problem, proj, x0, 2000)
    y, empty = nonsmooth.run_psd_strong(problem, proj, x0, 2000, keep="last")
    assert len(tr) == 2001 and len(empty) == 0
    assert y.tobytes() == x.tobytes() == tr.final_point.tobytes()


def test_psd_strong_points_only_raises_on_a_non_finite_final_point():
    q = ProblemOracle(2, lambda x: 0.0, lambda x: np.full(2, math.nan), alpha=1.0)
    with pytest.raises(DivergenceError):
        nonsmooth.run_psd_strong(q, lambda z: z, np.zeros(2), 5, keep="last")


def test_psd_functional_infeasible_budget():
    c = np.array([1.0, 0.0])
    # x_star at distance R = 1 from x0: a budget of L^2 R^2 / eps^2 = 100
    obj = ProblemOracle(2, lambda x: float(c @ x), lambda x: c.copy(), L=1.0,
                        x_star=(1.0, 0.0))
    # constraint that is never satisfiable inside the ball
    bad = ProblemOracle(2, lambda x: 1.0 + float(x @ x), lambda x: 2 * x, L=10.0)
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(2), 1.0)
    with pytest.raises(InfeasibleOrBudget):
        nonsmooth.run_psd_functional(obj, [bad], proj, 0.1, np.zeros(2))


def test_psd_functional_stops_at_a_zero_objective_subgradient():
    # flat at 0 inside the unit ball; one step on x[1] <= 0 lands there
    flat = ProblemOracle(2, lambda x: max(0.0, norm(x) - 1.0),
                         lambda x: x / norm(x) if norm(x) > 1.0 else np.zeros(2),
                         L=1.0, x_star=np.zeros(2))
    half = ProblemOracle(2, lambda x: float(x[1]), lambda x: np.array([0.0, 1.0]), L=1.0)
    x, n = nonsmooth.run_psd_functional(flat, [half], lambda z: z, 0.1, np.array([0.5, 2.0]))
    assert n == 1 and x.tolist() == [0.5, 0.0]


@pytest.mark.parametrize("f_star", [None, -10.0])
def test_psd_functional_at_its_budget(f_star):
    # min x1 + x2 over the unit disc, eps = 1/2: R = 1 and a budget of 8; the
    # iterates end in a cycle through (-3/4, -3/4), the best eps-feasible one
    c = np.ones(2)
    obj = ProblemOracle(2, lambda x: float(c @ x), lambda x: c.copy(), L=math.sqrt(2.0),
                        x_star=-c / math.sqrt(2.0), f_star=f_star)
    disc = ProblemOracle(2, lambda x: float(x @ x) - 1.0, lambda x: 2 * x, L=4.0)
    run = lambda: nonsmooth.run_psd_functional(obj, [disc], lambda z: z, 0.5, np.zeros(2))
    if f_star is None:  # the best point seen
        x, n = run()
        assert n == 8 and x.tolist() == [-0.75, -0.75]
    else:  # f_star is out of reach
        with pytest.raises(InfeasibleOrBudget, match="within 8 iterations"):
            run()


def test_ellipsoid_frozen_first_update():
    state = nonsmooth.EllipsoidState.ball(np.zeros(2), 1.0)
    new = nonsmooth.ellipsoid_update(state, np.array([1.0, 0.0]))
    assert np.allclose(new.x, [-1.0 / 3.0, 0.0], atol=1e-15)
    assert np.allclose(new.Sigma, np.diag([4.0 / 9.0, 4.0 / 3.0]), atol=1e-15)
    assert abs(nonsmooth.ellipsoid_volume_ratio(2) - math.sqrt(16.0 / 27.0)) < 1e-15


def test_ellipsoid_update_scale_free():
    state = nonsmooth.EllipsoidState.ball(np.zeros(2), 1.0)
    a = nonsmooth.ellipsoid_update(state, np.array([0.7, 0.1]))
    b = nonsmooth.ellipsoid_update(state, 100 * np.array([0.7, 0.1]))
    assert np.allclose(a.x, b.x) and np.allclose(a.Sigma, b.Sigma)


def test_ellipsoid_rejects_zero_separator():
    state = nonsmooth.EllipsoidState.ball(np.zeros(2), 1.0)
    with pytest.raises(InvalidSeparator):
        nonsmooth.ellipsoid_update(state, np.zeros(2))


@pytest.mark.parametrize("separation, center", [
    (problems.ResistingFeasibilityOracle(1.0, 4).query, 0.0),  # a scalar origin is 1-D
    (lambda x: np.ones(4), np.zeros(2)),
], ids=["scalar-centre", "longer-separator"])
def test_run_ellipsoid_rejects_a_separator_of_another_size(separation, center):
    with pytest.raises(InvalidInput, match="separator has 4 entries"):
        nonsmooth.run_ellipsoid(None, separation, center, 2.0, 34)


def test_ellipsoid_contains_kept_halfspace_points():
    rng = make_rng(1)
    state = nonsmooth.EllipsoidState.ball(np.zeros(3), 1.0)
    p = rng.normal(size=3)
    new = nonsmooth.ellipsoid_update(state, p)
    for _ in range(200):
        z = rng.normal(size=3)
        z = z / np.linalg.norm(z) * rng.uniform(0, 1) ** (1 / 3)
        if p @ (z - state.x) <= 0:
            d = z - new.x
            assert d @ np.linalg.solve(new.Sigma, d) <= 1 + 1e-9


def test_run_ellipsoid_no_feasible_point():
    oracle = problems.ResistingFeasibilityOracle(1.0, 2)
    obj = ProblemOracle(2, lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(NoFeasiblePoint):
        nonsmooth.run_ellipsoid(obj, oracle.query, np.zeros(2), 1.0, 30)
