import math

import numpy as np
import pytest

from convexkit import core, gradient, mirror, problems, proximal, stochastic
from convexkit.core import (CapabilityError, DivergenceError, InvalidInput, IterateTrace,
                            make_rng)


def _noisy_quadratic(sigma=0.0, seed=0, d=3):
    rng = make_rng(seed)
    A = np.diag(np.linspace(1.0, 4.0, d))
    q = problems.make_quadratic(A, rng.normal(size=d))
    q.stochastic_gradient = lambda x, r: q.subgradient(x) + sigma * r.standard_normal(d)
    q.sigma2d = sigma * sigma * d
    return q


def test_sgd_zero_noise_equals_gd():
    q = _noisy_quadratic(0.0)
    a = stochastic.run_sgd(q, 0.2, np.ones(3), 20, seed=1)
    b = gradient.run_gd(q, 0.2, np.ones(3), 20)
    assert np.allclose(a.final_point, b.final_point, atol=1e-15)


def test_sgd_requires_stochastic_oracle():
    q = problems.make_quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(CapabilityError, match="stochastic_gradient"):
        stochastic.run_sgd(q, 0.1, np.zeros(2), 5)


def test_smpgd_lambda():
    assert stochastic.smpgd_lambda(1.0, 0.0, 0.1) == pytest.approx(0.9)
    assert stochastic.smpgd_lambda(1.0, 2.0, 0.5) == pytest.approx(0.25)


def test_smpgd_zero_noise_matches_mpgd_iterates():
    q = _noisy_quadratic(0.0, seed=2)
    geom = mirror.euclidean_geometry(3)
    tr = stochastic.run_smpgd(q, None, geom, 0.1, np.ones(3), 30, seed=0)
    ref = mirror.run_mpgd(q, None, geom, 0.1, np.ones(3), 30)
    assert np.allclose(tr.last_iterate, ref.final_point, atol=1e-12)


def test_smpgd_zero_noise_with_l1_prox_ends_at_pgd_point():
    rng = make_rng(21)
    lasso = problems.make_lasso(rng.normal(size=(8, 3)), rng.normal(size=8), 0.3)
    f, g = lasso.extra["smooth"], lasso.extra["reg"]
    f.stochastic_gradient = lambda x, r: f.subgradient(x)
    h, x0 = 1.0 / f.beta, np.ones(3)
    tr = stochastic.run_smpgd(f, g, mirror.euclidean_geometry(3), h, x0, 30)
    ref = proximal.run_pgd(f, g, h, x0, 30)
    assert tr.last_iterate.tobytes() == ref.final_point.tobytes()


def test_smpgd_weighted_average_converges_better_than_last():
    q = _noisy_quadratic(1.0, seed=3)
    gaps_avg, gaps_last = [], []
    for s in range(60):
        tr = stochastic.run_smpgd(q, None, mirror.euclidean_geometry(3),
                                  0.05, np.zeros(3), 400, seed=s)
        gaps_avg.append(q.value(tr.final_point) - q.f_star)
        gaps_last.append(q.value(tr.last_iterate) - q.f_star)
    assert np.mean(gaps_avg) < np.mean(gaps_last)


def test_sgd_pl_noise_floor():
    q = _noisy_quadratic(0.5, seed=4)
    h = 1.0 / (2.0 * q.beta)
    mean_gap = np.mean(stochastic.run_sgd(q, h, np.zeros(3), 300, seed=list(range(40))).final_gap())
    floor = q.sigma2d * h * q.beta / (2 * q.alpha)
    assert mean_gap <= 3.0 * (floor + (1 - q.alpha * h) ** 300 * (q.value(np.zeros(3)) - q.f_star))


def test_asgd_validates_gamma():
    q = _noisy_quadratic(0.1)
    with pytest.raises(InvalidInput):
        stochastic.run_asgd(q, 0.4, np.zeros(3), 10)
    with pytest.raises(InvalidInput):
        stochastic.run_asgd(q, 1.0, np.zeros(3), 10)


def test_asgd_average_concentrates():
    q = _noisy_quadratic(0.3, seed=5)
    theta_bar, tr = stochastic.run_asgd(q, 0.7, np.ones(3), 4000, seed=0)
    assert np.linalg.norm(theta_bar - q.x_star) < 0.1
    assert len(tr) == 4000


def test_clt_check_identity_small():
    cov, target, rel = stochastic.clt_check(np.eye(2), np.zeros(2), 0.75,
                                            4000, 800, seed=0)
    assert np.allclose(target, np.eye(2))
    assert rel < 0.35  # loose at this small budget; tight case in acceptance


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A, theta_star, n, trials, gamma, noise_scale", [
    (np.eye(2), np.zeros(2), 0, 8, 0.75, 1.0),  # was rel = nan under a RuntimeWarning
    (np.eye(2), np.zeros(2), 10, 0, 0.75, 1.0),
    (np.eye(2), np.zeros(2), -1, 8, 0.75, 1.0),
    ([[1.0, math.nan], [math.nan, 1.0]], np.zeros(2), 10, 8, 0.75, 1.0),  # was rel = nan
    ([[1.0, 0.0], [0.0, math.inf]], np.zeros(2), 10, 8, 0.75, 1.0),
    ([[2.0, 0.5], [0.0, 1.0]], np.zeros(2), 10, 8, 0.75, 1.0),  # ran on its lower triangle
    (np.eye(3), np.zeros(2), 10, 8, 0.75, 1.0),  # ended in numpy's matmul ValueError
    (np.eye(2), np.zeros(3), 10, 8, 0.75, 1.0),
    (np.ones(2), np.zeros(2), 10, 8, 0.75, 1.0),
    ([[1.0, 2.0], [2.0, 1.0]], np.zeros(2), 10, 8, 0.75, 1.0),  # not positive definite
    (np.zeros((2, 2)), np.zeros(2), 10, 8, 0.75, 1.0),
    (np.eye(2), np.zeros(2), 10, 8, 0.75, 0.0),  # was rel = nan under a RuntimeWarning
    (np.eye(2), np.zeros(2), 10, 8, 0.75, math.nan),  # was rel = nan
    (np.eye(2), np.zeros(2), 10, 8, 1.0, 1.0),  # run_asgd's range, (1/2, 1)
    (np.eye(2), np.zeros(2), 10, 8, 0.5, 1.0),
], ids=["n-0", "trials-0", "n-negative", "A-nan", "A-inf", "A-asymmetric", "A-3x3",
        "theta-3", "A-vector", "A-indefinite", "A-singular", "noise-0", "noise-nan",
        "gamma-1", "gamma-half"])
def test_clt_check_refuses_what_it_cannot_run(A, theta_star, n, trials, gamma, noise_scale):
    with pytest.raises(InvalidInput):
        stochastic.clt_check(A, theta_star, gamma, n, trials, seed=1, noise_scale=noise_scale)


def test_svrg_estimator_unbiased_and_anchored():
    rng = make_rng(6)
    comps = [problems.make_quadratic(np.diag([1.0 + i, 2.0]), rng.normal(size=2))
             for i in range(4)]
    fs = problems.make_finite_sum(comps)
    x = rng.normal(size=2)
    anchor = rng.normal(size=2)
    ag = fs.subgradient(anchor)
    ests = [stochastic.svrg_estimator(fs, i, x, anchor, ag) for i in range(4)]
    assert np.allclose(np.mean(ests, axis=0), fs.subgradient(x), atol=1e-12)
    at_anchor = [stochastic.svrg_estimator(fs, i, anchor, anchor, ag) for i in range(4)]
    assert all(np.array_equal(v, ag) for v in at_anchor)


def test_svrg_epoch_length():
    q = _noisy_quadratic(0.0, seed=7)
    h = 0.1
    N = stochastic.svrg_epoch_length(q, None, h)
    lam = stochastic.smpgd_lambda(q.alpha, 0.0, h)
    assert lam ** N <= 0.5 < lam ** (N - 1)
    flat = problems.make_quadratic(np.diag([0.0, 1.0]), np.zeros(2))
    with pytest.raises(InvalidInput):
        stochastic.svrg_epoch_length(flat, None, 0.1)


def test_svrg_converges_and_counts_evals():
    rng = make_rng(8)
    comps = []
    for i in range(6):
        a = rng.normal(size=3)
        comps.append(problems.make_quadratic(np.outer(a, a) + np.eye(3),
                                             rng.normal(size=3)))
    fs = problems.make_finite_sum(comps)
    H = sum(c.quadratic[0] for c in comps) / len(comps)
    b = sum(c.quadratic[1] for c in comps) / len(comps)
    fs.x_star = np.linalg.solve(H, b)
    fs.f_star = fs.value(fs.x_star)
    tr, evals = stochastic.run_svrg(fs, x0=np.zeros(3), epochs=40, seed=0)
    assert tr.gaps()[-1] < 1e-10
    assert evals == tr.custom("evals")[-1]
    # every epoch pays the full-gradient pass plus its inner steps
    assert evals >= 40 * len(fs.components)


def test_svrg_doubling_plan():
    rng = make_rng(9)
    comps = [problems.make_quadratic(np.eye(2) * (1 + i), rng.normal(size=2))
             for i in range(3)]
    fs = problems.make_finite_sum(comps)
    H = sum(c.quadratic[0] for c in comps) / len(comps)
    b = sum(c.quadratic[1] for c in comps) / len(comps)
    fs.x_star = np.linalg.solve(H, b)
    fs.f_star = fs.value(fs.x_star)
    tr, _ = stochastic.run_svrg(fs, x0=np.zeros(2), epochs=8,
                                epoch_plan="doubling", seed=0)
    assert tr.gaps()[-1] < 1e-6


def _assert_rel(a, b, tol=1e-12):
    """Entries agree within tol relative to the reference's norm."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b), (a, b)


def _finite_sum(seed):
    rng = make_rng(seed)
    comps = []
    for _ in range(6):
        a = rng.normal(size=3)
        comps.append(problems.make_quadratic(np.outer(a, a) + np.eye(3), rng.normal(size=3)))
    fs = problems.make_finite_sum(comps)
    H = sum(c.quadratic[0] for c in comps) / len(comps)
    b = sum(c.quadratic[1] for c in comps) / len(comps)
    fs.x_star = np.linalg.solve(H, b)
    fs.f_star = fs.value(fs.x_star)
    return fs


@pytest.mark.parametrize("S", [1, 7])
def test_batched_sgd_rows_match_single_seed_runs(S):
    q = _noisy_quadratic(0.5, seed=11, d=4)
    seeds = [3 * s + 1 for s in range(S)]
    batch = stochastic.run_sgd(q, 0.2, np.ones(4), 60, seed=seeds)
    assert isinstance(batch, IterateTrace) and len(batch) == 61
    assert batch.values().shape == (61, S) and batch.final_point.shape == (S, 4)
    for s, seed in enumerate(seeds):
        single = stochastic.run_sgd(q, 0.2, np.ones(4), 60, seed=seed)
        _assert_rel(batch.values()[:, s], single.values())
        _assert_rel(batch.gaps()[:, s], single.gaps())
        _assert_rel(batch.final_point[s], single.final_point)


@pytest.mark.parametrize("S", [1, 7])
@pytest.mark.parametrize("averaging", ["geometric", "uniform"])
def test_batched_smpgd_rows_match_single_seed_runs(S, averaging):
    q = _noisy_quadratic(1.0, seed=12, d=3)
    if averaging == "uniform":  # alpha = 0 declared: lambda_h = 1, the uniform average
        q.alpha = 0.0
        assert stochastic.smpgd_lambda(q.alpha, 0.0, 0.1) == 1.0
    geom = mirror.euclidean_geometry(3)
    seeds = range(5, 5 + S)
    batch = stochastic.run_smpgd(q, None, geom, 0.1, np.ones(3), 80, seed=seeds)
    for s, seed in enumerate(seeds):
        single = stochastic.run_smpgd(q, None, geom, 0.1, np.ones(3), 80, seed=seed)
        _assert_rel(batch.values()[:, s], single.values())
        _assert_rel(batch.custom("avg_value")[:, s], single.custom("avg_value"))
        _assert_rel(batch.final_point[s], single.final_point)
        _assert_rel(batch.last_iterate[s], single.last_iterate)
        row = batch.trace(s)
        assert len(row) == len(single)
        _assert_rel(row.custom("avg_value"), single.custom("avg_value"))
        _assert_rel(row.final_point, single.final_point)


@pytest.mark.parametrize("S", [1, 7])
def test_batched_asgd_rows_match_single_seed_runs(S):
    q = _noisy_quadratic(0.3, seed=13, d=3)
    seeds = list(range(S))
    theta_bar, batch = stochastic.run_asgd(q, 0.7, np.ones(3), 500, seed=seeds)
    assert theta_bar.shape == (S, 3) and len(batch) == 500
    for s in seeds:
        single_bar, single = stochastic.run_asgd(q, 0.7, np.ones(3), 500, seed=s)
        _assert_rel(batch.values()[:, s], single.values())
        _assert_rel(theta_bar[s], single_bar)


@pytest.mark.parametrize("block", [40, core.ROW_BLOCK])
def test_row_generator_block_draws_equal_single_draws(monkeypatch, block):
    monkeypatch.setattr(core, "ROW_BLOCK", block)  # 40: a refill every 2-3 draws
    seeds = [0, 9, 123]
    rows = make_rng(seeds)
    singles = [make_rng(s) for s in seeds]
    for _ in range(300):
        drawn = rows.standard_normal(5)
        assert drawn.shape == (3, 5)
        for s, g in enumerate(singles):
            assert np.array_equal(drawn[s], g.standard_normal(5))
    rows = make_rng(seeds)
    singles = [make_rng(s) for s in seeds]
    for _ in range(300):
        drawn = rows.integers(200)
        assert drawn.shape == (3,)
        assert [int(v) for v in drawn] == [int(g.integers(200)) for g in singles]


def test_row_generator_serves_one_kind_of_draw():
    rows = make_rng(range(3))
    rows.integers(5)
    with pytest.raises(CapabilityError, match="one kind"):
        rows.integers(6)
    with pytest.raises(CapabilityError, match="one kind"):
        rows.standard_normal(2)


def test_sgd_pl_equals_mean_of_single_seed_gaps():
    q = _noisy_quadratic(0.5, seed=4)
    h = 1.0 / (2.0 * q.beta)
    mean_gap = np.mean(stochastic.run_sgd(q, h, np.zeros(3), 200, seed=list(range(12))).final_gap())
    singles = [stochastic.run_sgd(q, h, np.zeros(3), 200, seed=s).final_gap()
               for s in range(12)]
    assert mean_gap == pytest.approx(np.mean(singles), rel=1e-12)


@pytest.mark.parametrize("S", [1, 7])
def test_batch_on_non_rowwise_oracle_raises_capability_error(S):
    fs = _finite_sum(14)
    with pytest.raises(CapabilityError, match="row-wise"):
        stochastic.run_sgd(fs, 0.05, np.zeros(3), 10, seed=range(S))


def test_batch_catches_an_oracle_that_mixes_rows():
    # A @ x on an (S, d) matrix with S == d has the right shape but wrong rows
    A = np.diag([1.0, 2.0, 3.0])
    q = problems.make_quadratic(A, np.ones(3))
    q.stochastic_gradient = lambda x, r: A @ x - 1.0 + 0.1 * r.standard_normal(3)
    with pytest.raises(CapabilityError, match="row 0"):
        stochastic.run_sgd(q, 0.1, np.ones(3), 10, seed=range(3))
    # a value oracle that sums over every row returns one number, not S
    q = _noisy_quadratic(0.1, seed=17)
    q.value = lambda x: float(np.sum(x * x))
    with pytest.raises(CapabilityError, match="wrong shapes"):
        stochastic.run_sgd(q, 0.1, np.ones(3), 10, seed=range(4))


def test_batch_divergence_guard_names_the_seed():
    q = _noisy_quadratic(0.1, seed=15)
    with pytest.raises(DivergenceError, match="seed"):
        stochastic.run_sgd(q, 5.0, np.ones(3), 200, seed=range(4))


def test_svrg_default_step_is_from_the_largest_component_beta():
    fs = _finite_sum(17)
    beta_max = max(c.beta for c in fs.components)
    assert beta_max > fs.beta  # fs.beta is the mean, which the step must not use
    default, _ = stochastic.run_svrg(fs, x0=np.zeros(3), epochs=3, seed=0)
    given, _ = stochastic.run_svrg(fs, h=1.0 / (8.0 * beta_max), x0=np.zeros(3), epochs=3, seed=0)
    assert default.to_csv() == given.to_csv()


def test_svrg_with_l1_prox_reaches_the_composite_minimizer():
    fs = _finite_sum(16)
    lam = 0.3
    g = core.ProblemOracle(3, lambda x: lam * float(np.abs(x).sum()),
                           prox=lambda y, h: proximal.prox_l1(y, lam * h))
    ref = proximal.run_pgd(fs, g, 1.0 / fs.beta, np.zeros(3), 3000).final_point
    assert np.linalg.norm(ref - fs.x_star) > 0.1  # the l1 term moves the minimizer
    tr, _ = stochastic.run_svrg(fs, g=g, x0=np.zeros(3), epochs=40, seed=0)
    assert np.allclose(tr.final_point, ref, rtol=0.0, atol=1e-9)


def test_svrg_divergence_raises():
    fs = _finite_sum(16)
    with pytest.raises(DivergenceError):
        stochastic.run_svrg(fs, h=50.0, x0=np.ones(3), epochs=30,
                            epoch_plan="doubling", seed=0)
    # past 1/alpha the constant plan has no epoch length
    with pytest.raises(InvalidInput, match="1/alpha"):
        stochastic.run_svrg(fs, h=50.0, x0=np.ones(3), epochs=30, seed=0)
