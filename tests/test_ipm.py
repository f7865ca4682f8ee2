import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexkit import ipm, problems
from convexkit.core import (CenteringFailed, DomainError, InvalidInput, NumericalError,
                            SingularHessian, finite_diff_gradient, make_rng)


def _box_barrier():
    # [-1, 1]^2 as a polytope
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    return ipm.log_barrier_polytope(A, b)


def test_log_barrier_oracles():
    barrier = _box_barrier()
    x = np.array([0.3, -0.2])
    assert barrier.nu == 4.0
    assert np.allclose(barrier.gradient(x),
                       finite_diff_gradient(barrier.value, x), atol=1e-6)
    H = barrier.hessian(x)
    assert np.allclose(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) > 0)
    assert barrier.in_domain(x)
    assert not barrier.in_domain(np.array([1.5, 0.0]))
    with pytest.raises(DomainError):
        barrier.value(np.array([2.0, 0.0]))


def test_log_barrier_norm_bound_sqrt_nu():
    barrier = _box_barrier()
    rng = make_rng(0)
    for _ in range(50):
        x = rng.uniform(-0.95, 0.95, size=2)
        g = barrier.gradient(x)
        assert barrier.dual_norm(x, g) <= math.sqrt(barrier.nu) + 1e-9


def test_logdet_barrier_oracles():
    ld = ipm.logdet_barrier(2)
    X = np.array([[2.0, 0.3], [0.3, 1.0]])
    x = X.ravel()
    assert ld.nu == 2.0
    assert abs(ld.value(x) + math.log(np.linalg.det(X))) < 1e-12
    assert np.allclose(ld.gradient(x), -np.linalg.inv(X).ravel())
    # the dual norm of the gradient is exactly sqrt(d) for log-det
    assert abs(ld.dual_norm(x, ld.gradient(x)) - math.sqrt(2.0)) < 1e-9
    assert not ld.in_domain(np.array([[1.0, 2.0], [2.0, 1.0]]).ravel())
    with pytest.raises(InvalidInput):
        ipm.logdet_barrier(21)


def test_logdet_value_raises_outside_the_pd_cone():
    # det diag(-1, -2, 1) = 2 > 0: slogdet alone read this as log 2. numpy's
    # Cholesky returns a NaN factor for a NaN entry, which in_domain read as
    # inside, with value NaN and a RuntimeWarning from slogdet.
    outside = [np.diag([-1.0, -2.0, 1.0]).ravel()]
    for entry, bad in itertools.product(range(4), [math.nan, math.inf, -math.inf]):
        outside.append(np.eye(2).ravel())
        outside[-1][entry] = bad
    for x in outside:
        ld = ipm.logdet_barrier(math.isqrt(x.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                ld.value(x)
            with pytest.raises(DomainError):
                ld.evaluate(x)
            assert not ld.in_domain(x)


def test_newton_exact_on_quadratic_barrier_free():
    # f_t with t = 0 on the box barrier is minimized at the center
    barrier = _box_barrier()
    f = ipm.ShiftedBarrier(barrier, np.zeros(2), 0.0)
    x = ipm.damped_newton(f, np.array([0.4, 0.4]))
    assert np.linalg.norm(x) < 1e-8
    assert ipm.newton_decrement(f, x) <= 1e-10


def test_newton_step_decrement():
    barrier = _box_barrier()
    f = ipm.ShiftedBarrier(barrier, np.array([0.3, 0.1]), 1.0)
    x0 = np.zeros(2)
    lam0 = ipm.newton_decrement(f, x0)
    x1, lam_reported = ipm.newton_step(f, x0)
    assert lam_reported == pytest.approx(lam0)
    if lam0 < 0.25:
        assert ipm.newton_decrement(f, x1) <= (lam0 / (1 - lam0)) ** 2 + 1e-12


def test_singular_hessian_detected():
    bad = ipm.Barrier(2, lambda x: 0.0, lambda x: (np.ones(2), np.zeros((2, 2))), 1.0)
    with pytest.raises(SingularHessian):
        ipm.newton_decrement(ipm.ShiftedBarrier(bad, np.zeros(2), 1.0), np.zeros(2))


def test_damped_newton_budget():
    barrier = _box_barrier()
    f = ipm.ShiftedBarrier(barrier, np.zeros(2), 0.0)
    with pytest.raises(CenteringFailed):
        ipm.damped_newton(f, np.array([0.9, 0.9]), target=0.0, max_iter=5)


def test_path_follow_requires_centering():
    barrier = _box_barrier()
    with pytest.raises(InvalidInput):
        ipm.path_follow(np.array([1.0, 0.0]), barrier, np.array([0.9, 0.9]),
                        10.0, 1e-3)


def test_path_state_certificate():
    state = ipm.PathState(10.0, np.zeros(2), 0.1)
    nu = 4.0
    expect = (nu + (0.1 + math.sqrt(nu)) * 0.1 / 0.9) / 10.0
    assert state.certified_bound(nu) == pytest.approx(expect)


def test_solve_lp_1d_interval():
    # minimize x over [0, 1]
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, 0.0])
    x, val, iters = ipm.solve_lp(A, b, np.array([1.0]), np.array([0.5]), 1e-6)
    assert abs(val) <= 1e-6
    assert iters > 0


def test_solve_lp_matches_vertex_enumeration():
    lp = problems.make_random_lp(8, 2, seed=3)
    _, v_star = problems.lp_vertex_optimum(lp)
    _, val, _ = ipm.solve_lp(lp.A, lp.b, lp.c, lp.x_interior, 1e-7)
    assert abs(val - v_star) <= 1e-6


def test_path_follow_invariant_and_certificate():
    lp = problems.make_random_lp(10, 3, seed=4)
    barrier = ipm.log_barrier_polytope(lp.A, lp.b)
    t0, x0, _ = ipm.preliminary_stage(barrier, lp.x_interior, lp.c)
    x, states = ipm.path_follow(lp.c, barrier, x0, t0, 1e-5)
    assert all(s.lam <= 0.25 + 1e-12 for s in states)
    assert states[-1].certified_bound(barrier.nu) <= 1e-5
    _, v_star = problems.lp_vertex_optimum(lp)
    assert float(lp.c @ x) - v_star <= 1e-5 + 1e-9


def test_preliminary_stage_centers():
    lp = problems.make_random_lp(12, 3, seed=5)
    barrier = ipm.log_barrier_polytope(lp.A, lp.b)
    # start near a face
    x_start = lp.x_interior * 0.1 + 0.9 * lp.x_interior
    t0, x0, iters = ipm.preliminary_stage(barrier, x_start, lp.c)
    assert t0 > 0 and iters >= 1
    f_t0 = ipm.ShiftedBarrier(barrier, lp.c, t0)
    assert ipm.newton_decrement(f_t0, x0) <= 0.25 + 1e-12


def _same_bytes(u, v):
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 12), d=st.integers(1, 4),
       u=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), frac=st.floats(0.0, 0.9))
@example(seed=1, m=3, d=1, u=[5e-324, 0.0, 0.0, 0.0], frac=0.5)  # A @ d has a subnormal entry
def test_polytope_evaluate_matches_oracles(seed, m, d, u, frac):
    rng = make_rng(seed)
    A = rng.normal(size=(m, d))
    b = rng.uniform(0.5, 2.0, size=m)  # the origin is interior
    barrier = ipm.log_barrier_polytope(A, b)
    direction = np.array(u[:d])
    ad = A @ direction
    with np.errstate(over="ignore"):  # b / ad is inf for a subnormal ad: reach stays 1
        reach = min(1.0, float(np.min(b[ad > 0] / ad[ad > 0]))) if np.any(ad > 0) else 1.0
    x = frac * reach * direction
    g, H = barrier.evaluate(x)
    assert _same_bytes(g, barrier.gradient(x))
    assert _same_bytes(H, barrier.hessian(x))
    fd = finite_diff_gradient(barrier.value, x)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-5 * (1.0 + np.abs(g).max()))
    on_face = b.copy()
    on_face[0] = (A @ x)[0]  # slack exactly 0 in row 0
    for b_out in (on_face, on_face - 1.0):
        with pytest.raises(DomainError):
            ipm.log_barrier_polytope(A, b_out).evaluate(x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4), shift=st.floats(0.05, 5.0),
       v=st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_logdet_evaluate_matches_oracles(seed, d, shift, v):
    ld = ipm.logdet_barrier(d)
    M = make_rng(seed).normal(size=(d, d))
    x = (M @ M.T + shift * np.eye(d)).ravel()
    g, H = ld.evaluate(x)
    assert _same_bytes(g, ld.gradient(x))
    assert _same_bytes(H, ld.hessian(x))
    fd = finite_diff_gradient(ld.value, x)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-4 * (1.0 + np.abs(g).max()))
    v = np.array(v[:d], dtype=float)
    v[0] = v[0] or 1.0  # an integer vector: the rank-1 v v^T has exact zero pivots
    for outside in (np.outer(v, v), -(M @ M.T + shift * np.eye(d))):  # singular, negative definite
        with pytest.raises(DomainError):
            ld.evaluate(outside.ravel())


def test_shifted_evaluate_adds_the_linear_term():
    box = _box_barrier()
    x, a = np.array([0.3, -0.2]), np.array([0.5, 2.0])
    g, H = ipm.ShiftedBarrier(box, a, 3.0).evaluate(x)
    assert _same_bytes(g, 3.0 * a + box.gradient(x))
    assert _same_bytes(H, box.hessian(x))


# On the box barrier from x = 0 (H = 2I), the first main-stage step is
# x1 = -(t1 / 2) a with t1 = t0 (1 + c0 / 2): a large c0 makes it overshoot.

def test_path_follow_step_out_of_domain_is_numerical_error():
    with pytest.raises(NumericalError, match="Newton step left the domain at t = 5.1"):
        ipm.path_follow(np.array([1.0, 0.0]), _box_barrier(), np.zeros(2), 0.1, 1e-3, c0=100.0)


def test_path_follow_decrement_above_quarter_is_numerical_error():
    # t1 = 1.5 puts x1 = (-0.75, 0) inside the box, where lambda_{f_t1} = 0.48
    with pytest.raises(NumericalError, match="decrement .* > 1/4"):
        ipm.path_follow(np.array([1.0, 0.0]), _box_barrier(), np.zeros(2), 0.1, 1e-3, c0=28.0)


def test_preliminary_decrement_above_quarter_is_numerical_error():
    # from (0.9, 0), c0 = 1 halves t each step: the step to t = 0.25 lands where lambda = 0.32
    with pytest.raises(NumericalError, match="> 1/4 on the auxiliary path at t = 0.25$"):
        ipm.preliminary_stage(_box_barrier(), np.array([0.9, 0.0]), np.array([1.0, 0.0]), c0=1.0)


def test_path_follow_raises_singular_hessian():
    box = _box_barrier()

    def evaluate(x):  # positive definite at the center only
        g, H = box.evaluate(x)
        return g, H if not x.any() else np.zeros((2, 2))

    flat = ipm.Barrier(2, box.value, evaluate, box.nu)
    with pytest.raises(SingularHessian):
        ipm.path_follow(np.array([1.0, 0.0]), flat, np.zeros(2), 0.1, 1e-3)


def test_one_evaluation_cholesky_and_inversion_per_newton_point(monkeypatch):
    counts = dict.fromkeys(("evaluate", "cholesky", "inv", "solve"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    make_barrier, damped_newton, path_follow = (ipm.log_barrier_polytope, ipm.damped_newton,
                                                ipm.path_follow)

    def counted_barrier(A, b):
        barrier = make_barrier(A, b)
        barrier.evaluate = counting("evaluate", barrier.evaluate)
        return barrier

    damped_points, states = [], []

    def counted_damped(*args, **kwargs):
        before = counts["evaluate"]
        x = damped_newton(*args, **kwargs)
        damped_points.append(counts["evaluate"] - before)
        return x

    def recorded_path(*args, **kwargs):
        x, walked = path_follow(*args, **kwargs)
        states.extend(walked)
        return x, walked

    monkeypatch.setattr(ipm, "log_barrier_polytope", counted_barrier)
    monkeypatch.setattr(ipm, "damped_newton", counted_damped)
    monkeypatch.setattr(ipm, "path_follow", recorded_path)
    lp = problems.make_random_lp(12, 3, seed=5)
    _, _, iterations = ipm.solve_lp(lp.A, lp.b, lp.c, lp.x_interior, 1e-6)
    # iterations = auxiliary steps + 1 + main-stage points; the auxiliary path
    # starts at xbar0, damped Newton evaluates each of its points, and t0 takes
    # one dual norm
    auxiliary = iterations - len(states)
    points = auxiliary + damped_points[0] + 1 + len(states)
    assert len(states) > 100 and damped_points[0] >= 1
    assert counts == {"evaluate": points, "cholesky": points, "inv": points, "solve": 0}


def _spd(seed, d, log_cond, scale):
    """A random d x d SPD matrix with eigenvalues scale * [1, 10**log_cond]."""
    rng = make_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    evals = scale * 10.0 ** np.append(rng.uniform(0.0, log_cond, size=d - 1), log_cond)
    evals[0] = scale
    H = (Q * evals) @ Q.T
    return 0.5 * (H + H.T), rng.normal(size=d), Q, evals


def _fixed(g, H):
    """A barrier whose gradient and Hessian are g and H everywhere."""
    return ipm.Barrier(g.size, lambda x: 0.0, lambda x: (g, H), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 8), log_cond=st.floats(0.0, 12.0),
       log_scale=st.floats(-4.0, 4.0))
def test_newton_from_the_inverse_matches_the_linear_solve(seed, d, log_cond, log_scale):
    H, g, _, evals = _spd(seed, d, log_cond, 10.0 ** log_scale)
    step, lam = ipm.newton_step(_fixed(g, H), np.zeros(d))
    want = np.linalg.solve(H, g)
    # both sides err by O(cond(H) eps ||H^-1|| ||g||): the bound the end of the path sits near
    scale = 2.0 * d * np.finfo(float).eps * (evals.max() / evals.min()) / evals.min()
    assert np.abs(-step - want).max() <= scale * np.abs(g).sum()
    assert abs(lam ** 2 - float(g @ want)) <= scale * float(g @ g) * d
    assert ipm.newton_decrement(_fixed(g, H), np.zeros(d)) == lam
    assert _fixed(g, H).dual_norm(np.zeros(d), g) == lam


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 8), log_cond=st.floats(0.0, 12.0),
       kind=st.sampled_from(["indefinite", "zero row", "rank one", "nan"]),
       i=st.integers(0, 7), j=st.integers(0, 7))
def test_newton_refuses_a_hessian_that_is_not_positive_definite(seed, d, log_cond, kind, i, j):
    H, g, Q, evals = _spd(seed, d, log_cond, 1.0)
    i, j = i % d, j % d
    if kind == "indefinite":  # eigenvalue i negated, |lambda_i| >= 1 >> rounding in H
        evals[i] = -evals[i]
        H = (Q * evals) @ Q.T
    elif kind == "zero row":  # an exact zero pivot
        H[i, :] = H[:, i] = 0.0
    elif kind == "rank one":  # v v^T for an integer v: exact zero pivots
        v = make_rng(seed).integers(-4, 5, size=d).astype(float)
        v[0] = v[0] or 1.0
        H = np.outer(v, v)
    else:  # one NaN entry, in either triangle
        H[i, j] = math.nan
    with pytest.raises(SingularHessian):
        ipm.newton_step(_fixed(g, H), np.zeros(d))
