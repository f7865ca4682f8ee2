"""Acceptance suite: end-to-end rate and certificate checks with fixed seeds.

Each check is one or more parts, zero-argument callables that raise
AssertionError on failure. CRITERIA maps each check's id to its parts, each
with its cost in seconds; the CLI `verify` command and the test suite both run
from here.
"""

import math

import numpy as np

from . import altmin, frankwolfe, gradient, ipm, krylov, mirror, nonsmooth, problems, proximal, stochastic
from .core import ProblemOracle, Simplex, fit_rate, guarantee, make_rng, run_solver


def _random_quadratic(d, kappa, seed=0):
    rng = make_rng(seed)
    evals = np.linspace(1.0, kappa, d)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = Q @ np.diag(evals) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.normal(size=d)
    return problems.make_quadratic(A, b)


def crit_01_gd_rate():
    """GD gap_N <= beta R^2 / (2N) on a d=20, kappa=100 quadratic."""
    q = _random_quadratic(20, 100.0, seed=11)
    gaps = run_solver(q, "gd", 1000).gaps()
    for N in (10, 100, 1000):
        bound = guarantee("gd", q, N, float(np.linalg.norm(q.x_star)))
        assert gaps[N] <= bound + 1e-12, (N, gaps[N], bound)


def crit_02_smooth_lower_bound():
    """GD, AGD, and CG all stall on the chain quadratic: gap_32 >= (beta/8)(1/33 - 1/66)."""
    beta = 1.0
    w = problems.make_worst_case_smooth(beta, 65)
    lower = (beta / 8.0) * (1.0 / 33.0 - 1.0 / 66.0)
    for name in ("gd", "agd", "cg"):
        gap = run_solver(w, name, 32).gaps()[-1]
        assert gap >= lower - 1e-12, (name, gap, lower)


def crit_03_acceleration():
    """AGD meets 2 beta R^2 / N^2 on three problems; fitted exponents split GD from AGD."""
    zoo = [_random_quadratic(20, 100.0, seed=3),
           problems.make_worst_case_smooth(2.0, 600),
           _random_quadratic(12, 10.0, seed=4)]
    for q in zoo:
        gaps = run_solver(q, "agd", 256).gaps()
        for N in (16, 64, 256):
            bound = guarantee("agd", q, N, float(np.linalg.norm(q.x_star)))
            assert gaps[N] <= bound + 1e-12, (q.name, N, gaps[N], bound)
    w = problems.make_worst_case_smooth(1.0, 65)
    gd, agd = run_solver(w, "gd", 256), run_solver(w, "agd", 256)
    e_gd, _, _ = fit_rate(gd.iters(), gd.gaps(), skip=8)
    e_agd, _, _ = fit_rate(agd.iters(), agd.gaps(), skip=8)
    assert e_agd <= -1.7, e_agd
    assert e_gd >= -1.3, e_gd


def crit_04_cg():
    """CG terminates in d iterations; energy ratio below the squared Chebyshev bound."""
    rng = make_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    A = Q @ np.diag(rng.uniform(1.0, 50.0, size=12)) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.normal(size=12)
    trace, _ = krylov.cg_solve(A, b, np.zeros(12), 12, tol=1e-10)
    assert trace.grad_norms()[-1] <= 1e-10 * np.linalg.norm(b)
    for kappa in (10.0, 100.0):
        Ad = np.diag(np.linspace(1.0, kappa, 24))
        bd = np.ones(24)
        for N in (5, 20):
            ratio, bound = krylov.cg_energy_certificate(Ad, bd, np.zeros(24), N)
            assert ratio <= bound + 1e-12, (kappa, N, ratio, bound)


def crit_05_worst_case():
    """On the lower-bound instance the averaged PSD gap lies in [0.05, 1] LR/sqrt(N)."""
    for N in (100, 10000):
        w = problems.make_worst_case_nonsmooth(N, 2.0, 1.0)
        gap = run_solver(w, "psd", N).gaps()[-1]  # step R/sqrt(N) on the ball of radius R
        bound = guarantee("psd", w, N, w.domain.radius)
        assert gap <= bound, (N, gap, bound)
        assert gap >= 0.05 * bound, (N, gap, 0.05 * bound)


def _svm_05():
    """Check 05's SVM instance and the projection onto its ball."""
    rng = make_rng(21)
    X = rng.normal(size=(40, 5))
    Y = np.sign(rng.normal(size=40))
    svm = problems.make_svm_hinge(X, Y, 0.5)
    return svm, lambda z: nonsmooth.project_ball(z, np.zeros(5), svm.domain.radius)


def crit_05_svm():
    """Averaged PSD gap <= LR/sqrt(N) on an SVM, against a long strongly convex run's optimum."""
    svm, proj = _svm_05()
    x_ref, _ = nonsmooth.run_psd_strong(svm, proj, np.zeros(5), 200000, keep="last")
    f_ref = svm.value(x_ref)
    ref_err = 2.0 * svm.L ** 2 / (svm.alpha * 200001)
    R = float(np.linalg.norm(x_ref))
    for N in (100, 10000):
        gap = run_solver(svm, "psd", N, step=R / math.sqrt(N)).values()[-1] - f_ref
        bound = guarantee("psd", svm, N, R)
        assert gap <= bound + ref_err, (N, gap, bound)


def crit_06_functional_constraints():
    """PSD with functional constraints succeeds within ceil(L^2 R^2 / eps^2) steps."""
    c = np.array([1.0, 0.0])
    obj = ProblemOracle(2, lambda x: float(c @ x), lambda x: c.copy(), L=1.0,
                        f_star=-0.3, x_star=np.array([-0.3, 0.0]), name="linear")
    con = ProblemOracle(2, lambda x: -x[0] - 0.3, lambda x: np.array([-1.0, 0.0]),
                        L=1.0, name="halfspace")
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(2), 1.0)
    eps = 1e-2
    x, iters = nonsmooth.run_psd_functional(obj, [con], proj, eps, np.zeros(2))
    budget = int(math.ceil(1.0 * 0.09 / eps ** 2))
    assert iters <= budget, (iters, budget)
    assert con.value(x) <= eps
    assert obj.value(x) - obj.f_star <= eps + 1e-12


def crit_07_ellipsoid():
    """Volume ratio matches the closed form each step; 2-D LP solved to 1e-6."""
    for d in (2, 5, 10):
        rng = make_rng(d)
        state = nonsmooth.EllipsoidState.ball(np.zeros(d), 1.0)
        log_ratio = math.log(nonsmooth.ellipsoid_volume_ratio(d))
        for _ in range(1000):
            p = rng.normal(size=d)
            new = nonsmooth.ellipsoid_update(state, p)
            step = new.log_volume_unit() - state.log_volume_unit()
            assert abs(step - log_ratio) <= 1e-12, (d, step, log_ratio)
            state = new
    # triangle LP: min -x - 0.5 y over x,y >= 0, x + y <= 1; optimum (1, 0)
    c = np.array([-1.0, -0.5])
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    obj = ProblemOracle(2, lambda x: float(c @ x), lambda x: c.copy(), f_star=-1.0)

    def separation(x):
        viol = A @ x - b
        i = int(np.argmax(viol))
        return A[i].copy() if viol[i] > 0 else None

    best, _ = nonsmooth.run_ellipsoid(obj, separation, np.array([0.3, 0.3]), 2.0, 2000)
    assert obj.value(best) - (-1.0) <= 1e-6, obj.value(best)


def crit_08_feasibility_lower_bound():
    """The ellipsoid feasibility solver pays >= d floor(log2(R/(2 eps))) queries:
    the resisting oracle answers each of one fewer infeasible, and its answers
    still leave a box that holds an eps-ball."""
    d, R, eps = 4, 1.0, 2.0 ** -10
    needed = d * math.floor(math.log2(R / (2 * eps)))
    oracle = problems.ResistingFeasibilityOracle(R, d)
    answers = []

    def separation(x):
        answers.append((x.copy(), oracle.query(x)))
        return answers[-1][1]

    found, _ = nonsmooth.run_ellipsoid(None, separation, np.zeros(d), R * math.sqrt(d), needed - 2)
    assert found is None and len(answers) == needed - 1, (found, len(answers), needed)
    radius = 0.5 * float(np.min(oracle.hi - oracle.lo))
    assert radius > eps and radius >= oracle.ball_radius(), (radius, oracle.ball_radius())
    for x, sep in answers:  # the box lies in each answered halfspace <sep, z - x> <= 0
        assert float(np.maximum(sep * oracle.lo, sep * oracle.hi).sum()) <= float(sep @ x), x


def crit_09_frank_wolfe():
    """FW rate over a box, affine invariance, approximate Caratheodory."""
    d = 8
    c = np.full(d, 0.3)
    f = ProblemOracle(d, lambda x: 0.5 * float((x - c) @ (x - c)),
                      lambda x: x - c, beta=1.0, f_star=0.0, x_star=c)
    loo = lambda p: frankwolfe.loo_box(p, -1.0, 1.0)
    D2 = 4.0 * d  # squared diameter of [-1,1]^d
    x0 = loo(np.ones(d))
    trace, verts = frankwolfe.run_fw(f, loo, x0, 128)
    for N in (8, 32, 128):
        assert trace.gaps()[N] <= 2.0 * 1.0 * D2 / (N + 1), (N, trace.gaps()[N])
    assert len(verts) <= 129
    # affine invariance: iterates of the transformed problem match A^-1 x_n
    rng = make_rng(5)
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    Ainv = np.linalg.inv(A)
    c3 = np.array([0.21, -0.4, 0.13])
    f3 = ProblemOracle(3, lambda x: 0.5 * float((x - c3) @ (x - c3)),
                       lambda x: x - c3, beta=1.0, f_star=0.0, x_star=c3)
    fhat = ProblemOracle(3, lambda z: f3.value(A @ z), lambda z: A.T @ f3.subgradient(A @ z),
                         beta=float(np.linalg.norm(A, 2) ** 2), f_star=0.0)
    loo_hat = lambda p: Ainv @ loo(Ainv.T @ p)
    x0 = loo(np.ones(3))
    for n in range(41):
        xn = frankwolfe.run_fw(f3, loo, x0, n)[0].final_point
        zn = frankwolfe.run_fw(fhat, loo_hat, Ainv @ x0, n)[0].final_point
        assert np.linalg.norm(Ainv @ xn - zn) <= 1e-9
    # approximate Caratheodory at the center of the square
    target = np.array([0.0, 0.0])
    diameter = 2.0 * math.sqrt(2.0)
    verts, weights, err = frankwolfe.approx_caratheodory(target, loo, 0.25, diameter)
    assert err <= 0.25 * diameter
    recon = sum(w * v for v, w in zip(verts, weights))
    assert abs(sum(weights) - 1.0) <= 1e-9
    assert err ** 2 <= 4.0 * diameter ** 2 / max(len(verts) - 1, 1) + 1e-9
    assert np.linalg.norm(recon - target) <= err + 1e-9


def crit_10_proximal():
    """ISTA optimum, FISTA rate, prox contraction, and the sharp PPM PL rate."""
    lasso = problems.make_lasso(np.eye(2), np.array([3.0, 0.0]), 1.0)
    x_star = np.array([1.0, 0.0])
    assert np.linalg.norm(run_solver(lasso, "ista", 200).final_point - x_star) <= 1e-6
    for N in (16, 64):
        gap = run_solver(lasso, "fista", N).values()[-1] - lasso.value(x_star)
        bound = guarantee("fista", lasso, N, float(np.linalg.norm(x_star)))
        assert gap <= bound + 1e-12, (N, gap, bound)
    q = _random_quadratic(6, 25.0, seed=9)
    h = 0.37
    rng = make_rng(10)
    factor = 1.0 / (1.0 + q.alpha * h)
    for _ in range(100):
        y1, y2 = rng.normal(size=6), rng.normal(size=6)
        lhs = np.linalg.norm(q.prox(y1, h) - q.prox(y2, h))
        assert lhs <= factor * np.linalg.norm(y1 - y2) + 1e-9
    # PPM on a PL (strongly convex) quadratic: per-step gap ratio <= (1+alpha h)^-2
    gaps = proximal.run_ppm(q, h, rng.normal(size=6), 20).gaps().tolist()
    for gap, new_gap in zip(gaps, gaps[1:]):
        assert new_gap <= gap / (1.0 + q.alpha * h) ** 2 + 1e-8, (new_gap, gap)


def crit_11_mirror():
    """Simplex mirror descent rate, experts regret, zero-sum game values."""
    d, N = 64, 1000
    rng = make_rng(13)
    ell = rng.uniform(-1.0, 1.0, size=d)
    L1 = float(np.max(np.abs(ell)))
    f = ProblemOracle(d, lambda x: float(ell @ x), lambda x: ell.copy(),
                      L=L1, f_star=float(np.min(ell)), domain=Simplex())
    avg_gap = run_solver(f, "md", N).custom("avg_value")[-1] - f.f_star
    bound = 2.0 * guarantee("md", f, N)  # twice the paper's bound
    assert avg_gap <= bound, (avg_gap, bound)
    dT, T = 16, 1000
    losses = problems.make_experts_instance(T, dT, seed=2)
    hT = math.sqrt(2.0 * math.log(dT) / T)
    _, regret = mirror.run_omd(mirror.entropic_geometry(dT), losses, hT,
                               np.full(dT, 1.0 / dT))
    assert regret <= math.sqrt(2.0 * T * math.log(dT)), regret
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    for A in (pennies, rps):
        _, val, _ = mirror.solve_zero_sum(A, 0.02)
        assert abs(val) <= 0.02, val


def crit_12_pinsker_bregman():
    """Pinsker on 500 simplex pairs; Pythagorean slack on 500 projections."""
    rng = make_rng(17)
    for _ in range(500):
        x = rng.dirichlet(np.ones(6))
        y = rng.dirichlet(np.ones(6))
        kl = mirror.kl_divergence(x, y)
        assert kl >= 0.5 * float(np.sum(np.abs(x - y))) ** 2 - 1e-12
    for _ in range(500):
        x = np.exp(rng.normal(size=5))
        z = rng.dirichlet(np.ones(5))
        px = mirror.bregman_project_simplex(x)
        slack = (mirror.kl_divergence(z, x) - mirror.kl_divergence(z, px)
                 - mirror.kl_divergence(px, x))
        assert slack >= -1e-9, slack


def crit_13_sinkhorn():
    """Marginal-error and last-iterate KL bounds against a high-accuracy reference."""
    shapes = [(3, 3, 31), (5, 7, 32), (10, 10, 33)]
    N = 50
    for nx, ny, seed in shapes:
        inst = altmin.EotInstance.random(nx, ny, seed=seed, cost_scale=3.0)
        _, kl0 = altmin.sinkhorn_reference(inst)
        res = altmin.sinkhorn(inst, N)
        min_err = float(np.min(res.mu_err + res.nu_err))
        assert min_err <= math.sqrt(2.0 * kl0 / N) + 1e-12, (seed, min_err)
        assert res.kl_mu[-1] <= kl0 / N + 1e-12, (seed, res.kl_mu[-1], kl0 / N)
        half = altmin.sinkhorn_half_step_marginal(inst, 3)
        assert float(np.max(np.abs(half - inst.mu))) <= 1e-12


def _two_block_quadratic(H):
    H = np.asarray(H, dtype=float)
    d = H.shape[0]
    b = np.zeros(d)
    q = problems.make_quadratic(H, b)
    # per block i: its index, the rest, H[i, rest] and H[i, i]
    blocks = []
    for i in range(d):
        idx = np.array([i])
        rest = np.setdiff1d(np.arange(d), idx)
        blocks.append((idx, rest, H[np.ix_(idx, rest)], H[np.ix_(idx, idx)]))
    H_off = H - np.diag(np.diag(H))

    def block_argmin(i, x):
        if x.ndim == 2:  # row s of x minimized over its block i[s]
            rows = np.arange(len(x))
            x = x.copy()
            x[rows, i] = (b[i] - np.einsum("sj,sj->s", H_off[i], x)) / H[i, i]
            return x
        idx, rest, H_rest, H_block = blocks[i]
        x = x.copy()
        rhs = b[idx] - H_rest @ x[rest]
        x[idx] = np.linalg.solve(H_block, rhs)
        return x

    q.block_argmin = block_argmin
    q.n_blocks = d
    return q


def crit_14_am_ram():
    """Two-block PL rate for AM; RAM expected rate; RAM beats cyclic AM when misaligned."""
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    q = _two_block_quadratic(H)
    x0 = np.array([1.0, -2.0])
    N = 12
    trace = altmin.run_am(q, x0, N)
    rho = 1.0 - q.alpha / q.beta
    gap0 = trace.gaps()[0]
    assert trace.gaps()[-1] <= rho ** (2 * N) * gap0 + 1e-12, trace.gaps()[-1]
    # RAM expected rate: strongly convex quadratic, beta-weighted relative constants
    d = 4
    rng = make_rng(23)
    M = rng.normal(size=(d, d))
    H4 = M @ M.T + 0.5 * np.eye(d)
    q4 = _two_block_quadratic(H4)
    betas = np.diag(H4)
    Db = np.diag(1.0 / np.sqrt(betas))
    alpha_rel = float(np.linalg.eigvalsh(Db @ H4 @ Db)[0])
    rho_ram = 1.0 - alpha_rel / d
    x0 = np.ones(d)
    Nr = 24
    gaps = altmin.run_ram(q4, x0, Nr, seed=range(200)).final_gap()
    gap0 = q4.value(x0) - q4.f_star
    mean_gap = float(np.mean(gaps))
    assert mean_gap <= 2.0 * rho_ram ** Nr * gap0, (mean_gap, rho_ram ** Nr * gap0)
    # misaligned (near all-ones) Hessian: RAM mean gap beats cyclic AM at
    # the same block-update count
    db = 20
    Hbad = np.full((db, db), 1.0) + 0.1 * np.eye(db)
    qb = _two_block_quadratic(Hbad)
    x0 = make_rng(37).normal(size=db)
    sweeps = 30
    am_gap = altmin.run_am(qb, x0, sweeps).gaps()[-1]
    ram_gaps = altmin.run_ram(qb, x0, db * sweeps, seed=range(200)).final_gap()
    assert float(np.mean(ram_gaps)) < am_gap, (float(np.mean(ram_gaps)), am_gap)


def crit_15_smpgd_svrg():
    """Mean SGD gap within 2x of theory; SVRG beats the evaluation budget and GD."""
    d = 5
    q = _random_quadratic(d, 10.0, seed=29)
    sigma = 0.5
    sigma2d = sigma * sigma * d

    def noisy_grad(x, rng):
        return q.subgradient(x) + sigma * rng.standard_normal(d)

    q.stochastic_gradient = noisy_grad
    h = 1.0 / (2.0 * q.beta)
    N = 1000
    x0 = np.zeros(d)
    lam = stochastic.smpgd_lambda(q.alpha, 0.0, h)
    D0 = 0.5 * float(np.linalg.norm(x0 - q.x_star) ** 2)
    bound = q.alpha / (lam ** -N - 1.0) * D0 + sigma2d * h
    geom = mirror.euclidean_geometry(d)
    tr = stochastic.run_smpgd(q, None, geom, h, x0, N, seed=range(500))
    mean_gap = float(np.mean(q.value(tr.final_point) - q.f_star))
    assert mean_gap <= 2.0 * bound, (mean_gap, bound)
    # SVRG on a badly conditioned ridge-style finite sum (n=200, kappa=50)
    n, d = 200, 10
    rng = make_rng(31)
    rows = np.tile(np.eye(d)[0], (n, 1)) + 0.3 * rng.normal(size=(n, d))
    gram = rows.T @ rows / n
    mu_min = float(np.linalg.eigvalsh(gram)[0])
    m_comp = float(np.max(np.sum(rows * rows, axis=1)))
    kappa = 50.0
    lam_reg = (m_comp - kappa * mu_min) / (kappa - 1.0)
    assert lam_reg > 0
    ys = rng.normal(size=n)
    comps = []
    for i in range(n):
        a_i = rows[i]
        yi = ys[i]
        comps.append(ProblemOracle(
            d,
            (lambda a, y: lambda th: 0.5 * float((a @ th - y) ** 2) + 0.5 * lam_reg * float(th @ th))(a_i, yi),
            (lambda a, y: lambda th: a * (a @ th - y) + lam_reg * th)(a_i, yi),
            alpha=lam_reg, beta=float(a_i @ a_i) + lam_reg))
    fs = problems.make_finite_sum(comps)
    A_full = gram + lam_reg * np.eye(d)
    b_full = rows.T @ ys / n
    x_star = np.linalg.solve(A_full, b_full)
    fs.x_star = x_star
    fs.f_star = fs.value(x_star)
    fs.alpha = float(np.linalg.eigvalsh(A_full)[0])
    # estimator is exactly unbiased, with zero variance at the anchor
    x_test = rng.normal(size=d)
    anchor = rng.normal(size=d)
    ag = fs.subgradient(anchor)
    est_mean = np.mean([stochastic.svrg_estimator(fs, i, x_test, anchor, ag)
                        for i in range(n)], axis=0)
    assert np.linalg.norm(est_mean - fs.subgradient(x_test)) <= 1e-12
    for i in range(0, n, 37):
        v = stochastic.svrg_estimator(fs, i, anchor, anchor, ag)
        assert np.linalg.norm(v - ag) == 0.0
    eps = 1e-8
    x0 = np.zeros(d)
    delta0 = fs.value(x0) - fs.f_star
    tr, evals = stochastic.run_svrg(fs, x0=x0, epochs=200, seed=1, target_gap=eps)
    assert tr.gaps()[-1] <= eps
    budget = 40.0 * (n + kappa) * math.log(delta0 / eps)
    assert evals <= budget, (evals, budget)
    # head-to-head: GD, at n evaluations a step, is still above eps after SVRG's evals
    gaps = gradient.run_gd(fs, 1.0 / fs.beta, x0, evals // n).gaps()
    assert np.all(gaps > eps), (evals, float(gaps.min()))


def crit_16_clt(A, seed):
    """Averaged-SGD CLT: the covariance of sqrt(n)(theta_bar - theta*) matches A^-1."""
    rel = stochastic.clt_check(A, np.zeros(2), 0.75, 20000, 4000, seed=seed)[2]
    assert rel <= 0.15, (np.diag(A), rel)


def crit_16_asgd_decay():
    """SGD's E||theta_n - theta*||^2 = O(n^-gamma) on a non-quadratic strongly
    convex instance, by the fitted exponent."""
    gamma = 0.75
    d = 2

    def value(th):
        return float(np.sum(np.logaddexp(0.0, th) + np.logaddexp(0.0, -th))) + 0.25 * float(th @ th)

    def grad(th):
        return 1.0 / (1.0 + np.exp(-th)) - 1.0 / (1.0 + np.exp(th)) + 0.5 * th

    prob = ProblemOracle(d, value, grad, alpha=1.0, beta=1.5, x_star=np.zeros(d))
    prob.stochastic_gradient = lambda x, rng: grad(x) + rng.standard_normal(d)
    n = 4096
    checkpoints = np.unique(np.geomspace(64, n - 1, 12).astype(int))
    _, tr = stochastic.run_asgd(prob, gamma, np.ones(d), n, seed=range(80))
    mean_sq = tr.values()[checkpoints].mean(axis=1)
    slope, _ = np.polyfit(np.log(checkpoints), np.log(mean_sq), 1)
    assert -gamma - 0.15 <= slope <= -gamma + 0.15, slope


def crit_17_ipm():
    """Newton contraction, path invariant, LP agreement, sqrt(m) scaling, barrier norms."""
    # decrement contraction lambda+ <= lambda^2/(1-lambda)^2 near the path
    lp = problems.make_random_lp(12, 4, seed=43)
    barrier = ipm.log_barrier_polytope(lp.A, lp.b)
    t0, x0, _ = ipm.preliminary_stage(barrier, lp.x_interior, lp.c)
    f_t = ipm.ShiftedBarrier(barrier, lp.c, t0 * 1.5)
    x = x0.copy()
    for _ in range(6):
        lam = ipm.newton_decrement(f_t, x)
        if lam <= 1e-12:
            break
        x_new, _ = ipm.newton_step(f_t, x)
        lam_new = ipm.newton_decrement(f_t, x_new)
        if lam < 0.25:
            assert lam_new <= (lam / (1.0 - lam)) ** 2 + 1e-12, (lam, lam_new)
        x = x_new
    # 20 random LPs vs vertex enumeration; invariant enforced inside path_follow
    cases = [(2, 8), (3, 10), (4, 12), (5, 13), (6, 14)]
    seed = 100
    for d, m in cases:
        for _ in range(4):
            lp = problems.make_random_lp(m, d, seed=seed)
            seed += 1
            _, v_star = problems.lp_vertex_optimum(lp)
            _, val, _ = ipm.solve_lp(lp.A, lp.b, lp.c, lp.x_interior, 1e-6)
            assert abs(val - v_star) <= 1e-6, (d, m, val, v_star)
    # main-stage iteration count ~ sqrt(m)
    counts = []
    ms = [8, 16, 32, 64]
    for m in ms:
        lp = problems.make_random_lp(m, 4, seed=200 + m)
        barrier = ipm.log_barrier_polytope(lp.A, lp.b)
        t0, x0, _ = ipm.preliminary_stage(barrier, lp.x_interior, lp.c)
        _, states = ipm.path_follow(lp.c, barrier, x0, t0, 1e-6)
        counts.append(len(states))
    slope, _ = np.polyfit(np.log(ms), np.log(counts), 1)
    assert 0.35 <= slope <= 0.65, (slope, counts)
    # barrier gradient norm bound at 100 interior samples per barrier
    rng = make_rng(47)
    lp = problems.make_random_lp(10, 3, seed=48)
    barrier = ipm.log_barrier_polytope(lp.A, lp.b)
    hits = 0
    while hits < 100:
        x = rng.uniform(-0.5, 0.5, size=3)
        if not barrier.in_domain(x):
            continue
        hits += 1
        nrm = barrier.dual_norm(x, barrier.gradient(x))
        assert nrm <= math.sqrt(barrier.nu) + 1e-9, nrm
    ld = ipm.logdet_barrier(3)
    for _ in range(100):
        M = rng.normal(size=(3, 3))
        X = M @ M.T + 0.2 * np.eye(3)
        nrm = ld.dual_norm(X.ravel(), ld.gradient(X.ravel()))
        assert nrm <= math.sqrt(ld.nu) + 1e-9, nrm


def crit_18_continuous_time():
    """Euler GF/AGF Lyapunov monotone up to O(dt); AGF loss non-monotone on the stiff quadratic."""
    q = _random_quadratic(4, 8.0, seed=53)
    dt = 1.0 / (100.0 * q.beta)
    tr = gradient.simulate_gf(q, 3.0, dt, x0=np.ones(4))
    ly = tr.custom("lyapunov")
    scale = q.scale_at(np.ones(4))
    assert np.all(np.diff(ly) <= 1e-4 * scale), float(np.max(np.diff(ly)))
    tr = gradient.simulate_agf(q, 3.0, dt, x0=np.ones(4), mode="convex")
    ly = tr.custom("lyapunov")
    assert np.all(np.diff(ly) <= 1e-3 * scale), float(np.max(np.diff(ly)))
    # f(x) = (alpha x1^2 + x2^2)/2 with alpha = 1/16: accelerated flow overshoots
    stiff = problems.make_quadratic(np.diag([1.0 / 16.0, 1.0]), np.zeros(2))
    tr = gradient.simulate_agf(stiff, 30.0, x0=np.array([1.0, 1.0]), mode="convex")
    assert np.any(np.diff(tr.values()) > 0)


# {id: [(part, seconds), ...]}: a check runs its parts in order. seconds is a
# part's raw cost alone in a fresh process at one BLAS thread, the median of
# three runs taken in one sitting on a 2-vCPU KVM guest (its speed drifts, so
# only the ratios carry over). verify hands the parts out longest first, and
# the tests mark slow a check whose parts cost half a second or more together.
CRITERIA = {
    "01-gd-rate": [(crit_01_gd_rate, 0.02)],
    "02-smooth-lower-bound": [(crit_02_smooth_lower_bound, 0.0)],
    "03-acceleration": [(crit_03_acceleration, 0.09)],
    "04-cg": [(crit_04_cg, 0.01)],
    "05-subgradient": [(crit_05_worst_case, 0.83), (crit_05_svm, 3.5)],
    "06-functional-constraints": [(crit_06_functional_constraints, 0.0)],
    "07-ellipsoid": [(crit_07_ellipsoid, 0.2)],
    "08-feasibility-lower-bound": [(crit_08_feasibility_lower_bound, 0.0)],
    "09-frank-wolfe": [(crit_09_frank_wolfe, 0.07)],
    "10-proximal": [(crit_10_proximal, 0.02)],
    "11-mirror-mw": [(crit_11_mirror, 0.36)],
    "12-pinsker-bregman": [(crit_12_pinsker_bregman, 0.1)],
    "13-sinkhorn": [(crit_13_sinkhorn, 0.03)],
    "14-am-ram": [(crit_14_am_ram, 0.11)],
    "15-smpgd-svrg": [(crit_15_smpgd_svrg, 0.36)],
    "16-clt": [(lambda: crit_16_clt(np.eye(2), 41), 3.8),
               (lambda: crit_16_clt(np.diag([1.0, 4.0]), 42), 4.0),
               (crit_16_asgd_decay, 0.25)],
    "17-ipm": [(crit_17_ipm, 1.5)],
    "18-continuous-time": [(crit_18_continuous_time, 0.09)],
}


def run_criterion(cid, part=None):
    """Run check cid's parts in order, or only the one numbered part; KeyError if no check cid."""
    parts = CRITERIA[cid]
    for run, _ in parts if part is None else [parts[part]]:
        run()
