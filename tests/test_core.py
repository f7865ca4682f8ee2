import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import problems
from convexkit.core import (Ball, CapabilityError, DivergenceError, InsufficientData,
                            InvalidInput, InvalidProblem, IterateTrace, NumericalError,
                            ProblemOracle, Simplex, as_vector, check_divergence,
                            composite_value, finite_diff_gradient, fit_rate,
                            guarantee, make_rng, norm, record, run_solver, solver_names)


def test_as_vector_rejects_bad_input():
    with pytest.raises(InvalidInput):
        as_vector(np.array([[1.0, 2.0]]))
    with pytest.raises(NumericalError):
        as_vector([1.0, math.nan])
    assert as_vector([1, 2]).dtype == np.float64


def test_trace_csv_format():
    tr = IterateTrace(f_star=0.0, rows=2)
    tr.add(1.0, grad_norm=0.5)
    tr.add(0.1)
    text = tr.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,value,gap,grad_norm,time_s"
    assert lines[1] == "0,1,1,0.5,0"
    assert lines[2] == "1,0.10000000000000001,0.10000000000000001,nan,0"


def test_trace_csv_17_digits_and_byte_stability():
    tr = IterateTrace(rows=1)
    tr.add(1.0 / 3.0)
    assert format(1.0 / 3.0, ".17g") in tr.to_csv()
    tr2 = IterateTrace(rows=1)
    tr2.add(1.0 / 3.0)
    assert tr.to_csv() == tr2.to_csv()


def test_trace_gap_needs_f_star():
    tr = IterateTrace(rows=1)
    tr.add(1.0)
    assert tr.final_gap() is None
    tr = IterateTrace(f_star=2.0, rows=1)
    tr.add(3.0)
    assert tr.final_gap() == 1.0


def test_check_divergence():
    with pytest.raises(DivergenceError):
        check_divergence(math.inf, np.zeros(2), 1.0)
    with pytest.raises(DivergenceError):
        check_divergence(1e20, np.zeros(2), 1.0)
    with pytest.raises(DivergenceError):
        check_divergence(1.0, np.array([0.0, math.nan]), 1.0)
    check_divergence(1.0, np.zeros(2), 1.0)


# nan, +-inf, subnormals, and entries whose squares overflow a float
SPECIAL = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e200, -1e200,
           1.7e308, 0.0, -0.0, 1.0]
entry = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def points(draw):
    """A base entry filled in, then a few entries set, at d = 1-20 or 10,001."""
    d = draw(st.integers(1, 20) | st.just(10001))
    x = np.full(d, draw(entry))
    for i, v in draw(st.lists(st.tuples(st.integers(0, d - 1), entry), max_size=4)):
        x[i] = v
    return x


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(points(), entry, st.floats(min_value=1.0, max_value=1e300))
def test_check_divergence_raises_exactly_for_a_bad_value_or_a_non_finite_point(x, value, scale):
    bad = not (math.isfinite(value) and abs(value) <= 1e12 * scale and np.isfinite(x).all())
    try:
        check_divergence(value, x, scale)
        raised = False
    except DivergenceError:
        raised = True
    assert raised == bad


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_check_divergence_accepts_a_point_whose_squares_overflow():
    x = np.full(10001, 1e200)
    assert not math.isfinite(x.dot(x))
    check_divergence(1.0, x, 1.0)
    x[-1] = math.nan
    with pytest.raises(DivergenceError):
        check_divergence(1.0, x, 1.0)


def _bits(v):
    return struct.pack("<d", v)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("v", [
    np.zeros(5), np.full(7, 1e200), np.full(3, 1e-320), np.array([3.0, math.nan, 1.0]),
    np.array([-math.inf, 2.0]), np.array([math.inf, -math.inf]), np.array([2.5]),
    np.arange(1.0, 40.0)[::-3], np.arange(12.0).reshape(3, 4), np.arange(12.0).reshape(4, 3).T,
    np.arange(-4, 9), np.array([1e10, 3e10], dtype=np.float32), [3.0, 4.0], [1, 2, 2],
], ids=repr)
def test_norm_is_bitwise_np_linalg_norm(v):
    assert type(norm(v)) is float
    assert _bits(norm(v)) == _bits(float(np.linalg.norm(v)))


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1,
                max_size=300))
def test_norm_is_bitwise_np_linalg_norm_on_random_vectors(xs):
    v = np.array(xs)
    assert _bits(norm(v)) == _bits(float(np.linalg.norm(v)))


def _halving(steps):
    """Iterates x/2^n with value ||x||; counts the steps taken in `steps`."""
    def iterates(x):
        while True:
            yield x, float(np.linalg.norm(x)), None, {"n": len(steps)}
            steps.append(1)
            x = x / 2.0
    return iterates


def test_record_budget_contract_and_no_extra_step():
    steps = []
    tr = record(_halving(steps), [4.0, 0.0], 3, f_star=0.0)
    assert list(tr.values()) == [4.0, 2.0, 1.0, 0.5]
    assert list(tr.custom("n")) == [0, 1, 2, 3]
    assert len(steps) == 3  # no step after record N
    assert np.array_equal(tr.final_point, [0.5, 0.0])
    assert len(record(_halving([]), [1.0], 0, None)) == 1


def test_record_copies_x0_and_rejects_negative_budget():
    x0 = np.array([1.0, 2.0])

    def in_place(x):
        while True:
            yield x, 0.0, None, {}
            x *= 2.0

    record(in_place, x0, 2, None)
    assert np.array_equal(x0, [1.0, 2.0])
    with pytest.raises(InvalidInput):
        record(in_place, x0, -1, None)


def test_record_divergence_guard_is_relative_to_first_value():
    def growing(x):
        v = 2.0
        while True:
            yield x, v, None, {}
            v *= 1e4

    tr = record(growing, [0.0], 3, None)  # 2e12 <= 1e12 * (1 + 2)
    assert tr.final_value() == 2e12
    with pytest.raises(DivergenceError):
        record(growing, [0.0], 4, None)

    def nan_point(x):
        yield x, 1.0, None, {}
        yield np.array([math.nan]), 1.0, None, {}

    with pytest.raises(DivergenceError):
        record(nan_point, [0.0], 1, None)


def test_record_ends_early_when_the_generator_returns():
    def three(x):
        for n in range(3):
            yield x + n, float(n), None, {"n": n}

    tr = record(three, [1.0, 0.0], 10, f_star=0.0)
    assert len(tr) == 3 and list(tr.iters()) == [0, 1, 2]
    assert list(tr.values()) == [0.0, 1.0, 2.0] and list(tr.custom("n")) == [0, 1, 2]
    assert np.array_equal(tr.final_point, [3.0, 2.0])
    assert tr.to_csv().count("\n") == 4

    def bad_then_return(item):
        def iterates(x):
            yield x, 1.0, None, {}
            yield item(x)
        return iterates

    for item in (lambda x: (x, math.inf, None, {}), lambda x: (x, 1e20, None, {}),
                 lambda x: (x * math.nan, 1.0, None, {})):
        with pytest.raises(DivergenceError):
            record(bad_then_return(item), [0.0], 10, None)


def test_points_only_record_keeps_no_rows_and_guards_the_final_point():
    steps = []

    def halving(x, points_only):
        assert points_only
        while True:
            yield x, None, None, None
            steps.append(1)
            x = x / 2.0

    tr = record(halving, [4.0, 0.0], 3, f_star=0.0, keep="last")
    assert len(tr) == 0 and len(steps) == 3  # no step after point N
    assert np.array_equal(tr.final_point, [0.5, 0.0])

    def non_finite(x, points_only):  # only the final point is guarded
        yield x, None, None, None
        yield x * math.inf, None, None, None
        yield x, None, None, None
        yield x * math.nan, None, None, None

    assert np.array_equal(record(non_finite, [1.0], 2, None, keep="last").final_point, [1.0])
    for N in (1, 3):
        with pytest.raises(DivergenceError, match="final iterate"):
            record(non_finite, [1.0], N, None, keep="last")
    with pytest.raises(NumericalError, match="yielded no iterate"):
        record(lambda x, points_only: iter(()), [1.0], 3, None, keep="last")
    for seed, keep in ((1, "last"), (None, "first")):
        with pytest.raises(InvalidInput, match="keep"):
            record(halving, [1.0], 3, None, seed=seed, keep=keep)


def test_batch_record_ends_early_when_the_generator_returns():
    def three(x, rng):
        for n in range(3):
            yield x + n, np.sum(x, axis=-1) + n, None, {}

    one = record(three, np.zeros(2), 5, None, seed=1)
    batch = record(three, np.zeros(2), 5, None, seed=[1, 2, 3])
    assert len(one) == len(batch) == 3 and list(batch.iters()) == [0, 1, 2]
    for s in range(3):
        assert list(batch.trace(s).values()) == [0.0, 1.0, 2.0]
        assert np.array_equal(batch.trace(s).final_point, [2.0, 2.0])


@pytest.mark.parametrize("seed", [None, 1, [1, 2]])
def test_record_of_a_generator_that_yields_nothing_is_a_numerical_error(seed):
    def none(x, rng=None):  # was an UnboundLocalError at trace.final_point
        return
        yield

    with pytest.raises(NumericalError, match="yielded no iterate"):
        record(none, np.zeros(2), 5, None, seed=seed)


def test_composite_value():
    f = ProblemOracle(1, lambda x: float(x[0]) ** 2)
    g = ProblemOracle(1, lambda x: abs(float(x[0])))
    assert composite_value(f, g)(np.array([-3.0])) == 12.0
    assert composite_value(f, None)(np.array([-3.0])) == 9.0
    # with no g, F is f itself: a -0.0 value keeps its sign
    neg_zero = ProblemOracle(1, lambda x: -0.0)
    assert math.copysign(1.0, composite_value(neg_zero, None)(np.array([1.0]))) == -1.0


def test_finite_diff_gradient_matches_analytic():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    f = lambda x: 0.5 * float(x @ (A @ x))
    x = np.array([0.7, -0.2])
    assert np.allclose(finite_diff_gradient(f, x), A @ x, atol=1e-6)


def test_make_rng_reproducible():
    assert make_rng(7).normal() == make_rng(7).normal()
    assert make_rng(7).normal() != make_rng(8).normal()


def test_fit_rate_power_law():
    n = np.arange(40)
    gaps = np.where(n > 0, 3.0 * (n + 1e-12) ** -2.0, 5.0)
    e, r2, kind = fit_rate(n, gaps, skip=1)
    assert kind == "polynomial"
    assert abs(e + 2.0) < 1e-6
    assert r2 > 0.999999


def test_fit_rate_geometric():
    n = np.arange(40)
    e, r2, kind = fit_rate(n, 2.0 * 0.8 ** n, skip=1)
    assert kind == "exponential"
    assert abs(e - math.log(0.8)) < 1e-9


def test_fit_rate_insufficient_data():
    n = np.arange(5)
    with pytest.raises(InsufficientData):
        fit_rate(n, 1.0 / (n + 1))
    tr = IterateTrace(rows=20)  # no f_star, so gaps() is None
    for _ in range(20):
        tr.add(1.0)
    with pytest.raises(InsufficientData):
        fit_rate(tr.iters(), tr.gaps())


def test_problem_oracle_capability_error_names_oracle():
    p = ProblemOracle(2, lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(CapabilityError, match="prox"):
        p.require("prox")
    assert p.require("subgradient") is p.subgradient


@pytest.mark.parametrize("algo", ["gd", "agd", "psd", "cg"])
def test_run_solver_budget_contract(algo):
    q = problems.make_quadratic(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
    if algo == "psd":  # psd needs a problem declared on a ball
        q = problems.make_worst_case_nonsmooth(3, 1.0, 2.0)
    tr = run_solver(q, algo, 13)
    assert len(tr) == 14
    assert tr.iters()[-1] == 13


def test_run_solver_negative_budget():
    # 2.5 ran 3 steps and raised NumericalError, and nan raised ValueError
    q = problems.make_quadratic(np.eye(2), np.zeros(2))
    for algo in ("gd", "cg"):
        for budget in (-1, 2.5, 3.0, math.nan, math.inf, "3", None):
            with pytest.raises(InvalidInput, match="budget"):
                run_solver(q, algo, budget)
        assert len(run_solver(q, algo, np.int64(3))) == 4


def test_prox_methods_run_on_plain_smooth_problems():
    q = problems.make_quadratic(np.diag([2.0, 1.0]), np.array([1.0, 1.0]))
    gd = run_solver(q, "gd", 20, step=0.3)
    assert run_solver(q, "ista", 20, step=0.3).to_csv() == gd.to_csv()
    agd = run_solver(q, "agd", 20)
    assert np.array_equal(run_solver(q, "fista", 20).values(), agd.values())


def test_run_solver_unknown_algo():
    # guarantee raised KeyError on an unknown name
    q = problems.make_quadratic(np.eye(2), np.zeros(2))
    for name in ("nope", {"name": "gd"}, None):
        with pytest.raises(InvalidInput, match="unknown algorithm"):
            run_solver(q, name, 3)
        with pytest.raises(InvalidInput, match="unknown algorithm"):
            guarantee(name, q, 10, 1.0)


@pytest.mark.parametrize("key", ["x0", "radius", "tol", "stepsize"])
def test_run_solver_refuses_settings_other_than_name_and_step(key):
    # the settings are keywords: step and seed
    q = problems.make_quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(TypeError, match=key):
        run_solver(q, "gd", 3, **{key: np.ones(2)})


@pytest.mark.parametrize("algo", ["agd", "apgd", "cg", "fista", "fw"])
def test_run_solver_refuses_a_step_for_solvers_that_choose_their_own(algo):
    q = problems.make_quadratic(np.eye(2), np.ones(2))
    with pytest.raises(InvalidInput, match="algorithm %s takes no step" % algo):
        run_solver(q, algo, 3, step=0.1)


def test_run_solver_capability_error():
    q = problems.make_quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(CapabilityError, match="loo"):
        run_solver(q, "fw", 3)


def test_run_solver_md_default_step_with_zero_lipschitz_constant():
    # sqrt(2 log d / N) / L with L = 0 has no positive finite value
    p = ProblemOracle(2, lambda x: 0.0, lambda x: np.zeros(2), L=0.0, domain=Simplex())
    with pytest.raises(CapabilityError, match="default step"):
        run_solver(p, "md", 3)
    assert len(run_solver(p, "md", 3, step=0.1)) == 4
    # nor has sqrt(2 log 1 / N) = 0 in dimension 1
    one = ProblemOracle(1, lambda x: 0.0, lambda x: np.zeros(1), L=1.0, domain=Simplex())
    with pytest.raises(CapabilityError, match="default step"):
        run_solver(one, "md", 3)
    # nor sqrt(2 log d / N) / L with no L declared (md took L = 1)
    p.L = math.inf
    with pytest.raises(CapabilityError, match="default step"):
        run_solver(p, "md", 3)
    p.L = 1.0
    assert len(run_solver(p, "md", 3)) == 4


@pytest.mark.parametrize("algo, domain", [("md", Simplex()), ("psd", Ball(1.0))] + [
    (algo, None) for algo in ("gd", "agd", "ista", "pgd", "fista", "apgd", "ppm", "sgd", "cg")])
def test_run_solver_needs_the_declared_domain(algo, domain):
    # None: it steps in R^d, so it refuses the simplex (gd ran there and ended below f*)
    q = problems.make_quadratic(np.diag([2.0, 1.0]), np.array([1.0, 1.0]))
    for declared, named in ((None, "no domain"), (Ball(1.0), "Ball(radius=1.0)"),
                            (Simplex(), "Simplex()")):
        p = ProblemOracle(2, q.value, q.gradient, prox=q.prox, beta=q.beta, L=1.0,
                          domain=declared, stochastic_gradient=lambda x, rng: q.gradient(x),
                          quadratic=q.quadratic)
        if declared == domain or domain is None and not isinstance(declared, Simplex):
            assert len(run_solver(p, algo, 3)) == 4
            continue
        with pytest.raises(CapabilityError, match=re.escape("declares " + named)):
            run_solver(p, algo, 3)
    if domain is not None:
        with pytest.raises(InvalidInput, match="step must be positive"):  # before the domain
            run_solver(q, algo, 3, step=0.0)


def test_run_solver_sgd_refuses_a_nonpositive_step():
    # sgd ran with any step; the others refused h <= 0 in their loops, and nan
    # and inf passed the h <= 0 test
    fs = problems.make_finite_sum([problems.make_quadratic(np.eye(2), np.ones(2))] * 2)
    for h in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="step must be positive and finite"):
            run_solver(fs, "sgd", 3, step=h)


@pytest.mark.parametrize("domain", ["simplex", Ball(-1.0), Ball(math.nan)])
def test_problem_oracle_domain_is_none_a_ball_or_a_simplex(domain):
    assert ProblemOracle(1, lambda x: 0.0).domain is None
    with pytest.raises(InvalidProblem, match="domain must be None, a Ball of radius >= 0"):
        ProblemOracle(1, lambda x: 0.0, domain=domain)


def test_solver_names_sorted():
    names = solver_names()
    assert names == sorted(names)
    assert "gd" in names and "fista" in names


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_rng_streams_independent_of_global_state(seed):
    np.random.seed(0)
    a = make_rng(seed).normal(size=3)
    np.random.seed(1)
    b = make_rng(seed).normal(size=3)
    assert np.array_equal(a, b)
