import numpy as np
import pytest

from convexkit import acceptance, altmin, problems
from convexkit.core import (CapabilityError, DivergenceError, InvalidProblem, ProblemOracle,
                            make_rng)
from convexkit.mirror import kl_divergence


def _two_block(H, b=None):
    H = np.asarray(H, dtype=float)
    d = H.shape[0]
    b = np.zeros(d) if b is None else np.asarray(b, dtype=float)
    q = problems.make_quadratic(H, b)

    def block_argmin(i, x):
        x = x.copy()
        rest = [j for j in range(d) if j != i]
        x[i] = (b[i] - H[i, rest] @ x[rest]) / H[i, i]
        return x

    q.block_argmin = block_argmin
    q.n_blocks = d
    return q


def test_am_monotone_and_converges():
    q = _two_block([[2.0, 0.5], [0.5, 1.0]], [1.0, -1.0])
    tr = altmin.run_am(q, np.array([3.0, -3.0]), 25)
    assert np.all(np.diff(tr.values()) <= 1e-12)
    assert tr.gaps()[-1] < 1e-10


def test_am_single_block_one_sweep():
    q = _two_block([[4.0]], [2.0])
    tr = altmin.run_am(q, np.array([10.0]), 1)
    assert abs(tr.final_point[0] - 0.5) < 1e-12
    assert tr.gaps()[-1] < 1e-15


def test_am_requires_blocks():
    q = problems.make_quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(Exception):
        altmin.run_am(q, np.zeros(2), 2)


def test_am_detects_broken_argmin():
    q = _two_block([[2.0, 0.0], [0.0, 1.0]])
    q.block_argmin = lambda i, x: x + 1.0  # increases the objective
    with pytest.raises(InvalidProblem):
        altmin.run_am(q, np.ones(2), 2)


def test_am_divergence_guard_on_an_unbounded_objective():
    # f(x) = -||x||^2 has no minimum; each "argmin" scales its block by 10
    q = ProblemOracle(2, lambda x: -float(x @ x), n_blocks=2)

    def block_argmin(i, x):
        x = x.copy()
        x[i] *= 10.0
        return x

    q.block_argmin = block_argmin
    assert len(altmin.run_am(q, np.ones(2), 3)) == 4  # 2e6 <= 1e12 * (1 + 2)
    with pytest.raises(DivergenceError):
        altmin.run_am(q, np.ones(2), 8)


def test_ram_seeded_and_converges():
    q = _two_block([[2.0, 0.3], [0.3, 1.0]], [0.5, 0.5])
    a = altmin.run_ram(q, np.ones(2), 60, seed=3)
    b = altmin.run_ram(q, np.ones(2), 60, seed=3)
    assert np.array_equal(a.final_point, b.final_point)
    assert a.gaps()[-1] < 1e-8


def _check_14_instances():
    """Check 14's two RAM instances: (problem, x0, steps)."""
    M = make_rng(23).normal(size=(4, 4))
    q4 = acceptance._two_block_quadratic(M @ M.T + 0.5 * np.eye(4))
    qb = acceptance._two_block_quadratic(np.full((20, 20), 1.0) + 0.1 * np.eye(20))
    return [(q4, np.ones(4), 24), (qb, make_rng(37).normal(size=20), 600)]


def test_single_seed_ram_is_the_hand_loop():
    # the loop run_ram stood for before it took seed batches, bit for bit
    for q, x0, N in _check_14_instances():
        for seed in (0, 7):
            rng, x, values = make_rng(seed), x0.copy(), []
            for n in range(N + 1):
                values.append(q.value(x))
                if n < N:
                    x = q.block_argmin(int(rng.integers(q.n_blocks)), x)
            tr = altmin.run_ram(q, x0, N, seed=seed)
            assert tr.values().tobytes() == np.array(values).tobytes()
            assert tr.final_point.tobytes() == x.tobytes()


def _assert_rel(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b), (a, b)


@pytest.mark.parametrize("S", [1, 9])
def test_batched_ram_rows_match_single_seed_runs(S):
    for q, x0, N in _check_14_instances():
        seeds = range(3, 3 + S)
        batch = altmin.run_ram(q, x0, N, seed=seeds)
        assert batch.values().shape == (N + 1, S) and batch.final_point.shape == (S, x0.size)
        for s, seed in enumerate(seeds):
            single = altmin.run_ram(q, x0, N, seed=seed)
            _assert_rel(batch.values()[:, s], single.values())
            _assert_rel(batch.gaps()[:, s], single.gaps())
            _assert_rel(batch.final_point[s], single.final_point)


def test_batched_ram_needs_a_row_wise_block_argmin():
    q = _two_block([[2.0, 0.3], [0.3, 1.0]], [0.5, 0.5])  # block_argmin takes one point
    with pytest.raises(CapabilityError):
        altmin.run_ram(q, np.ones(2), 5, seed=range(3))


def test_gauss_southwell_picks_largest_coordinate():
    q = problems.make_quadratic(np.diag([1.0, 1.0]), np.array([0.0, 5.0]))
    tr = altmin.run_gauss_southwell(q, 1.0, np.zeros(2), 1)
    # gradient at 0 is (0, -5); only coordinate 1 moves
    assert tr.final_point[0] == 0.0 and tr.final_point[1] == 5.0
    assert tr.grad_norms()[0] == 5.0  # recorded as the l-infinity norm


def test_alternating_projections_two_lines():
    # project between the x-axis and the line y = x: converge to the origin
    p1 = lambda z: np.array([z[0], 0.0])
    p2 = lambda z: np.array([(z[0] + z[1]) / 2.0] * 2)
    pairs = altmin.alternating_projections(p1, p2, np.array([4.0, -1.0]), 60)
    x_last, y_last = pairs[-1]
    assert np.linalg.norm(x_last) < 1e-8
    assert np.linalg.norm(y_last) < 1e-8


def test_eot_instance_validation():
    with pytest.raises(InvalidProblem):
        altmin.EotInstance(np.ones((2, 3)), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidProblem):
        altmin.EotInstance(np.ones((2, 2)), np.array([0.9, 0.5]), np.array([0.5, 0.5]))


def test_sinkhorn_marginals_converge():
    inst = altmin.EotInstance.random(4, 6, seed=5, cost_scale=2.0)
    res = altmin.sinkhorn(inst, 200)
    assert res.mu_err[-1] < 1e-8 and res.nu_err[-1] < 1e-8
    assert res.plan.shape == (4, 6)
    assert abs(res.plan.sum() - 1.0) < 1e-8


def test_sinkhorn_half_step_marginal_exact():
    inst = altmin.EotInstance.random(3, 5, seed=6)
    half = altmin.sinkhorn_half_step_marginal(inst, 2)
    assert np.max(np.abs(half - inst.mu)) < 1e-12


def test_sinkhorn_duality_gap_closes():
    inst = altmin.EotInstance.random(5, 5, seed=7, cost_scale=1.5)
    res = altmin.sinkhorn(inst, 500)
    primal = altmin.eot_primal_value(inst, res.plan)
    dual = altmin.eot_dual_value(inst, res.f, res.g)
    assert dual <= primal + 1e-12
    assert primal - dual < 1e-10


def test_sinkhorn_primal_dominates_initial_plan():
    inst = altmin.EotInstance.random(4, 4, seed=8, cost_scale=2.0)
    res = altmin.sinkhorn(inst, 300)
    gamma0 = altmin.initial_plan(inst)
    # gamma0 has the right total mass but wrong marginals; the converged plan
    # must be primal-feasible with no larger objective among feasible plans
    assert np.allclose(res.plan.sum(axis=1), inst.mu, atol=1e-8)
    assert np.allclose(res.plan.sum(axis=0), inst.nu, atol=1e-8)
    independent = np.outer(inst.mu, inst.nu)
    assert (altmin.eot_primal_value(inst, res.plan)
            <= altmin.eot_primal_value(inst, independent) + 1e-12)


def test_sinkhorn_last_iterate_bound():
    inst = altmin.EotInstance.random(4, 4, seed=9, cost_scale=2.0)
    ref = altmin.sinkhorn_reference(inst)
    plan_star, kl0 = ref
    assert altmin.sinkhorn(inst, 30).kl_mu[-1] <= kl0 / 30 + 1e-12  # KL(mu_N || mu) <= kl0 / N
    assert kl0 >= 0.0
    assert kl_divergence(plan_star.ravel(), altmin.initial_plan(inst).ravel()) == pytest.approx(kl0)
