"""Golden sha256 hashes of results that refactors must keep bit-identical.

    PYTHONPATH=src python tests/golden.py           # rewrite tests/golden_traces.json
    PYTHONPATH=src python tests/golden.py --check   # list changed cases, write nothing

Run it only at a commit whose results are known good: the test in
tests/test_golden.py recomputes every case and compares. Each case maps to a
dict of named hashes (plus a few plain counts that make a mismatch easier to
read). Floats and arrays are hashed through their float64 bytes, so
the hashes depend on numpy and its BLAS/LAPACK; the file records the numpy
version it was made with.

Cases:
  ipm/*  solve_lp on check 17's 20 vertex-enumeration LPs, its 4 sqrt(m)
         scaling LPs and one m = 100, d = 10 LP, all at eps = 1e-6. "states"
         hashes (t, lambda, x) of every PathState that path_follow returned
         inside solve_lp; "solve_lp" hashes solve_lp's (x, value, iterations).
  trace/*  iterate traces: every run_solver name on seeded d = 5 quadratic,
         least-squares, logistic, lasso, finite-sum and hinge-SVM problems,
         with the default step and with step 0.1 (run_solver/<algo>/<kind>/
         <step>); the 15 module-level solver loops on d = 5 inputs
         (loop/<module.function>); run_psd and run_psd_strong on the hinge
         SVM (svm/<function>). "csv" hashes to_csv(), "final_point" the final
         point's bytes and "custom.<key>" each custom column; a case that
         raises keeps only "raises", the hash of the exception class name
         (plus that name as "error"). Also: run_sgd and run_smpgd at seeds
         1-2 (seed 0 is the loop case) and at seed 0 on a finite sum of four
         3-row least-squares components (<function>/multi-row), run_asgd at
         seeds 0-2 and run_svrg with both epoch plans on a strongly convex
         d = 5 finite sum (whose "evals" count is kept), and
         run_psd/run_psd_strong on the d = 5 worst-case nonsmooth instance.
         Loops that return more than a trace: run_am on check 14's two-block
         quadratic; cg_solve stopping early at three tolerances on a d = 40
         quadratic ("directions" hashes the search directions); run_svrg
         stopping at a target gap. Budget edges:
         run_solver's cg on A = I at budget 6, where CG is exact after one
         step and stays put; run_svrg started at x* with a target gap, so
         one epoch runs; run_am with 0 sweeps; cg_solve with N = 0; and the
         direct cg_solve on A = I at tol = 0 (7 records). run_ellipsoid,
         which returns no trace, on check 07's triangle LP and, in
         feasibility-only mode, from two infeasible centers: "best" hashes
         the point it returns and "state" the final ellipsoid (these keep
         their trace/loop/ names).
  solve/*  run_psd_functional on check 06's instance and on a two-constraint
         variant, from feasible and infeasible starts ("x" hashes the point,
         "iterations" is the count); sinkhorn on check 13's first two
         instances at N = 50 and, with a tolerance, stopping early ("f", "g",
         "plan", "mu_err", "nu_err" and "kl_mu").
  parse/*  parse_problem_file on seeded files of every kind, written once with
         "%.17g" tokens and once with "%+.16e" tokens (parse/<kind>/<format>).
         The data mixes magnitudes from 1e-8 to 1e8 with -0, 0 and a
         subnormal; integer fields are written in the same format. Each
         array in the problem's extra (and in a nested problem's extra, as
         "smooth.X") is hashed through its bytes, as are the radius of a
         declared ball, alpha, beta and f* (the bytes of "None" when f* is
         unknown).
  clt/*  clt_check at n = 300 steps and 64 trials on I, diag(1, 4), a
         non-diagonal 2 x 2 A with theta* != 0 and noise_scale 2, and a 3 x 3
         A. "cov" hashes the empirical covariance's bytes, "rel" the relative
         error.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")
LP_EPS = 1e-6


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.float64(part).tobytes())
    return h.hexdigest()


def _ipm_lps():
    from convexkit import problems
    seed = 100
    for d, m in [(2, 8), (3, 10), (4, 12), (5, 13), (6, 14)]:
        for _ in range(4):
            yield "ipm/vertex-m%d-d%d-seed%d" % (m, d, seed), problems.make_random_lp(m, d, seed=seed)
            seed += 1
    for m in (8, 16, 32, 64):
        yield "ipm/scaling-m%d" % m, problems.make_random_lp(m, 4, seed=200 + m)
    yield "ipm/random-m100-d10", problems.make_random_lp(100, 10, seed=7)


def _ipm_case(lp):
    """solve_lp once, keeping the PathStates its path_follow call returned."""
    from convexkit import ipm
    walked = []
    path_follow = ipm.path_follow

    def recording(*args, **kwargs):
        x, states = path_follow(*args, **kwargs)
        walked.extend(states)
        return x, states

    ipm.path_follow = recording
    try:
        x, value, iterations = ipm.solve_lp(lp.A, lp.b, lp.c, lp.x_interior, LP_EPS)
    finally:
        ipm.path_follow = path_follow
    states = _sha([np.array([s.t for s in walked]).tobytes(),
                   np.array([s.lam for s in walked]).tobytes(),
                   np.concatenate([s.x for s in walked]).tobytes()])
    return {"states": states, "n_states": len(walked),
            "solve_lp": _sha([x.tobytes(), value, iterations]), "iterations": iterations}


TRACE_D = 5
TRACE_ROWS = 8
TRACE_N = 25  # budget of every run_solver case
LOOP_N = 40  # budget of every module-level loop
TRACE_STEP = 0.1


def _trace_problems():
    """Seeded d = 5 problems, one per kind that run_solver accepts from data."""
    from convexkit import problems
    rng = np.random.Generator(np.random.Philox(2024))
    d, n = TRACE_D, TRACE_ROWS
    G = rng.standard_normal((d, d))
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal(n)
    signs = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    rows = rng.standard_normal((6, d))
    targets = rng.standard_normal(6)
    return {
        "quadratic": problems.make_quadratic(G @ G.T / d + 0.5 * np.eye(d),
                                             rng.standard_normal(d)),
        "least-squares": problems.make_least_squares(X, Y),
        "logistic": problems.make_logistic(X, (signs > 0).astype(float)),
        "lasso": problems.make_lasso(X, Y, 0.1),
        "finite-sum": problems.make_finite_sum(
            [problems.make_least_squares(rows[i:i + 1], targets[i:i + 1]) for i in range(6)]),
        "svm": problems.make_svm_hinge(X, signs, 0.1),
    }


def _strongly_convex_finite_sum():
    """A seeded d = 5 average of six strongly convex quadratics, with x* set."""
    from convexkit import problems
    rng = np.random.Generator(np.random.Philox(2025))
    d = TRACE_D
    rows = rng.standard_normal((6, d))
    targets = rng.standard_normal((6, d))
    comps = [problems.make_quadratic(np.outer(r, r) + 0.5 * np.eye(d), t)
             for r, t in zip(rows, targets)]
    fs = problems.make_finite_sum(comps)
    fs.x_star = np.linalg.solve(sum(c.extra["A"] for c in comps),
                                sum(c.extra["b"] for c in comps))
    return fs


def _multi_row_finite_sum():
    """A seeded d = 5 average of four least-squares components of three rows each."""
    from convexkit import problems
    rng = np.random.Generator(np.random.Philox(2028))
    X = rng.standard_normal((4, 3, TRACE_D))
    Y = rng.standard_normal((4, 3))
    return problems.make_finite_sum([problems.make_least_squares(x, y) for x, y in zip(X, Y)])


def _trace_hashes(run):
    """The hashes of the trace that run() returns, or of the exception it raises.

    run() may also return (trace, counts): a dict of plain numbers (or further
    hashes) kept as they are.
    """
    try:
        trace = run()
    except Exception as exc:  # a case that raises is recorded by its exception class
        name = type(exc).__name__
        return {"raises": _sha([name.encode()]), "error": name}
    counts = {}
    if isinstance(trace, tuple):
        trace, counts = trace
    point = trace.final_point
    out = {"csv": _sha([trace.to_csv().encode()]), "records": len(trace),
           "final_point": _sha([b"None" if point is None else np.asarray(point).tobytes()])}
    out.update(counts)
    for key in trace.custom_keys():
        out["custom." + key] = _sha([trace.custom(key).tobytes()])
    return out


def _loops(probs):
    """The 15 module-level solver loops on d = 5 inputs, name -> run()."""
    from convexkit import (altmin, frankwolfe, gradient, krylov, mirror, nonsmooth,
                           proximal, stochastic)
    q, fs = probs["quadratic"], probs["finite-sum"]
    f, g = probs["lasso"].extra["smooth"], probs["lasso"].extra["reg"]
    A, b = q.extra["A"], q.extra["b"]
    d, N = TRACE_D, LOOP_N
    x0 = np.linspace(-1.0, 1.0, d)
    ball = 1.5 * max(float(np.linalg.norm(x0)), float(np.linalg.norm(q.x_star)))
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(d), ball)
    loo = lambda p: frankwolfe.loo_box(p, -2.0, 2.0)
    dt = 1.0 / (100.0 * q.beta)
    simplex0 = np.full(d, 1.0 / d)
    return {
        "gradient.run_gd": lambda: gradient.run_gd(q, 1.0 / q.beta, x0, N),
        "gradient.run_agd": lambda: gradient.run_agd(q, x0, N),
        "krylov.cg_solve": lambda: krylov.cg_solve(A, b, x0, d)[0],
        "nonsmooth.run_psd": lambda: nonsmooth.run_psd(q, proj, ball / np.sqrt(N), x0, N),
        "nonsmooth.run_psd_strong": lambda: nonsmooth.run_psd_strong(q, proj, x0, N)[1],
        "proximal.run_pgd": lambda: proximal.run_pgd(f, g, 1.0 / f.beta, x0, N),
        "proximal.run_apgd": lambda: proximal.run_apgd(f, g, x0, N),
        "proximal.run_ppm": lambda: proximal.run_ppm(q, 1.0, x0, N),
        "frankwolfe.run_fw": lambda: frankwolfe.run_fw(q, loo, x0, N)[0],
        "mirror.run_mpgd": lambda: mirror.run_mpgd(q, None, mirror.entropic_geometry(d), 0.05,
                                                   simplex0, N, constraint="simplex"),
        "stochastic.run_sgd": lambda: stochastic.run_sgd(fs, 0.05, x0, N, 0),
        "stochastic.run_smpgd": lambda: stochastic.run_smpgd(
            fs, None, mirror.euclidean_geometry(d), 0.05, x0, N, 0),
        "altmin.run_gauss_southwell": lambda: altmin.run_gauss_southwell(
            q, 1.0 / float(np.max(np.diag(A))), x0, N),
        "gradient.simulate_gf": lambda: gradient.simulate_gf(q, N * dt, dt, x0),
        "gradient.simulate_agf": lambda: gradient.simulate_agf(q, N * dt, dt, x0, mode="convex"),
    }


def _trace_cases():
    from convexkit import core, mirror, nonsmooth, problems, stochastic
    probs = _trace_problems()
    for algo in core.solver_names():
        for kind, prob in probs.items():
            for label, step in (("default", None), ("step-%g" % TRACE_STEP, TRACE_STEP)):
                yield ("trace/run_solver/%s/%s/%s" % (algo, kind, label),
                       lambda prob=prob, algo=algo, step=step:
                           core.run_solver(prob, algo, TRACE_N, step=step))
    for name, run in _loops(probs).items():
        yield "trace/loop/" + name, run
    svm = probs["svm"]
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(TRACE_D), svm.domain.radius)
    yield "trace/svm/nonsmooth.run_psd", lambda: nonsmooth.run_psd(
        svm, proj, 0.5, np.zeros(TRACE_D), LOOP_N)
    yield "trace/svm/nonsmooth.run_psd_strong", lambda: nonsmooth.run_psd_strong(
        svm, proj, np.zeros(TRACE_D), LOOP_N)[1]
    x0 = np.linspace(-1.0, 1.0, TRACE_D)
    fs = probs["finite-sum"]
    for seed in (1, 2):
        yield ("trace/loop/stochastic.run_sgd/seed-%d" % seed,
               lambda seed=seed: stochastic.run_sgd(fs, 0.05, x0, LOOP_N, seed))
        yield ("trace/loop/stochastic.run_smpgd/seed-%d" % seed,
               lambda seed=seed: stochastic.run_smpgd(
                   fs, None, mirror.euclidean_geometry(TRACE_D), 0.05, x0, LOOP_N, seed))
    multi = _multi_row_finite_sum()
    yield ("trace/loop/stochastic.run_sgd/multi-row",
           lambda: stochastic.run_sgd(multi, 0.05, x0, LOOP_N, 0))
    yield ("trace/loop/stochastic.run_smpgd/multi-row",
           lambda: stochastic.run_smpgd(multi, None, mirror.euclidean_geometry(TRACE_D), 0.05,
                                        x0, LOOP_N, 0))
    sc = _strongly_convex_finite_sum()
    for seed in (0, 1, 2):
        yield ("trace/loop/stochastic.run_asgd/seed-%d" % seed,
               lambda seed=seed: stochastic.run_asgd(sc, 0.75, x0, LOOP_N, seed)[1])

    def svrg(prob, plan, epochs, seed, target_gap=None):
        trace, evals = stochastic.run_svrg(prob, x0=x0, epochs=epochs, epoch_plan=plan,
                                           seed=seed, target_gap=target_gap)
        return trace, {"evals": evals}

    yield "trace/loop/stochastic.run_svrg/constant", lambda: svrg(sc, "constant", 8, 0)
    yield "trace/loop/stochastic.run_svrg/doubling", lambda: svrg(sc, "doubling", 6, 1)
    sct = _strongly_convex_finite_sum()
    sct.f_star = sct.value(sct.x_star)
    yield ("trace/loop/stochastic.run_svrg/target-gap",
           lambda: svrg(sct, "constant", 200, 2, target_gap=1e-6))
    w = problems.make_worst_case_nonsmooth(TRACE_D - 1, 2.0, 1.0)
    R = w.domain.radius
    wproj = lambda z: nonsmooth.project_ball(z, np.zeros(w.dim), R)
    yield "trace/worst-case-nonsmooth/nonsmooth.run_psd", lambda: nonsmooth.run_psd(
        w, wproj, R / np.sqrt(LOOP_N), np.zeros(w.dim), LOOP_N)
    yield "trace/worst-case-nonsmooth/nonsmooth.run_psd/x0", lambda: nonsmooth.run_psd(
        w, wproj, R / np.sqrt(LOOP_N), x0, LOOP_N)
    yield ("trace/worst-case-nonsmooth/nonsmooth.run_psd_strong",
           lambda: nonsmooth.run_psd_strong(w, wproj, np.zeros(w.dim), LOOP_N)[1])
    yield from _more_loops()


def _triangle_lp():
    """Check 07's LP, min -x - y/2 over x, y >= 0, x + y <= 1: (objective, separation)."""
    from convexkit.core import ProblemOracle
    c = np.array([-1.0, -0.5])
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])

    def separation(x):
        viol = A @ x - b
        i = int(np.argmax(viol))
        return A[i].copy() if viol[i] > 0 else None

    return ProblemOracle(2, lambda x: float(c @ x), lambda x: c.copy(), f_star=-1.0), separation


def _more_loops():
    """(name, run) for run_am and cg_solve at tol > 0."""
    from convexkit import acceptance, altmin, krylov
    am = acceptance._two_block_quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
    yield "trace/loop/altmin.run_am", lambda: altmin.run_am(am, np.array([1.0, -2.0]), 12)
    rng = np.random.Generator(np.random.Philox(2026))
    G = rng.standard_normal((40, 40))
    A, b = G @ G.T / 40 + 0.1 * np.eye(40), rng.standard_normal(40)

    def cg(tol):
        trace, directions = krylov.cg_solve(A, b, tol=tol)
        return trace, {"directions": _sha([np.concatenate(directions).tobytes()]),
                       "n_directions": len(directions)}

    for tol in (1e-2, 1e-4, 1e-6):
        yield "trace/loop/krylov.cg_solve/tol-%g" % tol, lambda tol=tol: cg(tol)
    yield from _edge_cases()


def _edge_cases():
    """(name, run) for the budget edges of cg, run_am and run_svrg.

    On A = I, CG reaches the exact solution (r = 0) after one step. The
    last edge case is the direct cg_solve there at tol = 0.
    """
    from convexkit import acceptance, altmin, core, krylov, problems, stochastic
    b = np.array([1.0, -2.0, 0.5])
    eye = problems.make_quadratic(np.eye(3), b)
    yield "trace/run_solver/cg/identity/budget-6", lambda: core.run_solver(eye, "cg", 6)
    sct = _strongly_convex_finite_sum()
    sct.f_star = sct.value(sct.x_star)

    def svrg_at_target():
        trace, evals = stochastic.run_svrg(sct, x0=sct.x_star, epochs=5, seed=3,
                                           target_gap=1e-6)
        return trace, {"evals": evals}

    yield "trace/loop/stochastic.run_svrg/target-gap-at-x0", svrg_at_target
    am = acceptance._two_block_quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
    yield "trace/loop/altmin.run_am/sweeps-0", lambda: altmin.run_am(am, np.array([1.0, -2.0]), 0)
    q = _trace_problems()["quadratic"]
    yield "trace/loop/krylov.cg_solve/N-0", lambda: krylov.cg_solve(
        q.extra["A"], q.extra["b"], np.linspace(-1.0, 1.0, TRACE_D), 0)[0]

    def cg_identity():
        trace, directions = krylov.cg_solve(np.eye(3), b, np.zeros(3), 6)
        return trace, {"directions": _sha([np.concatenate(directions).tobytes()]),
                       "n_directions": len(directions)}

    yield "trace/loop/krylov.cg_solve/identity-tol-0", cg_identity


def _psd_functional_case(n_constraints, x0):
    """run_psd_functional on check 06's instance (one half-plane) or with a second one."""
    from convexkit import nonsmooth
    from convexkit.core import ProblemOracle
    c = np.array([1.0, 0.0] if n_constraints == 1 else [1.0, 1.0])
    x_star = np.array([-0.3, 0.0] if n_constraints == 1 else [-0.3, -0.2])
    obj = ProblemOracle(2, lambda x: float(c @ x), lambda x: c.copy(),
                        L=float(np.linalg.norm(c)), f_star=float(c @ x_star), x_star=x_star)
    cons = [ProblemOracle(2, lambda x: -x[0] - 0.3, lambda x: np.array([-1.0, 0.0]), L=1.0),
            ProblemOracle(2, lambda x: -x[1] - 0.2, lambda x: np.array([0.0, -1.0]), L=1.0)]
    proj = lambda z: nonsmooth.project_ball(z, np.zeros(2), 1.0)
    x, iters = nonsmooth.run_psd_functional(obj, cons[:n_constraints], proj, 1e-2,
                                             np.array(x0))
    return {"x": _sha([x.tobytes()]), "iterations": iters}


def _sinkhorn_case(nx, ny, seed, N, tol=None):
    from convexkit import altmin
    res = altmin.sinkhorn(altmin.EotInstance.random(nx, ny, seed=seed, cost_scale=3.0), N, tol)
    out = {key: _sha([np.asarray(getattr(res, key)).tobytes()])
           for key in ("f", "g", "plan", "mu_err", "nu_err", "kl_mu")}
    out["iterations"] = len(res.mu_err)
    return out


def _ellipsoid_case(objective, center, radius, N):
    from convexkit import nonsmooth
    best, state = nonsmooth.run_ellipsoid(objective, _triangle_lp()[1], np.array(center),
                                          radius, N)
    return {"best": _sha([b"None" if best is None else best.tobytes()]),
            "state": _sha([state.x.tobytes(), state.Sigma.tobytes()])}


def _solve_cases():
    """name -> a zero-argument function returning the case's hashes."""
    return {
        "trace/loop/nonsmooth.run_ellipsoid/triangle-lp":
            lambda: _ellipsoid_case(_triangle_lp()[0], [0.3, 0.3], 2.0, 2000),
        "trace/loop/nonsmooth.run_ellipsoid/feasibility-1.5-1.5":
            lambda: _ellipsoid_case(None, [1.5, 1.5], 3.0, 200),
        "trace/loop/nonsmooth.run_ellipsoid/feasibility-3--2":
            lambda: _ellipsoid_case(None, [3.0, -2.0], 6.0, 200),
        "solve/nonsmooth.run_psd_functional/check-06": lambda: _psd_functional_case(1, [0.0, 0.0]),
        "solve/nonsmooth.run_psd_functional/check-06/infeasible-start":
            lambda: _psd_functional_case(1, [-0.8, 0.0]),
        "solve/nonsmooth.run_psd_functional/two-constraints":
            lambda: _psd_functional_case(2, [-0.8, 0.0]),
        "solve/nonsmooth.run_psd_functional/two-constraints/both-violated":
            lambda: _psd_functional_case(2, [-0.6, -0.6]),
        "solve/altmin.sinkhorn/3x3-seed31": lambda: _sinkhorn_case(3, 3, 31, 50),
        "solve/altmin.sinkhorn/5x7-seed32": lambda: _sinkhorn_case(5, 7, 32, 50),
        "solve/altmin.sinkhorn/3x3-seed31-tol": lambda: _sinkhorn_case(3, 3, 31, 1000, 1e-10),
    }


CLT_N = 300
CLT_TRIALS = 64


def _clt_cases():
    """name -> clt_check arguments (A, theta*, seed, noise_scale)."""
    A3 = [[3.0, 0.4, 0.2], [0.4, 2.0, -0.3], [0.2, -0.3, 1.5]]
    return {
        "clt/identity-seed41": (np.eye(2), np.zeros(2), 41, 1.0),
        "clt/diag-1-4-seed42": (np.diag([1.0, 4.0]), np.zeros(2), 42, 1.0),
        "clt/full-2x2-shifted-noise2": ([[2.0, 0.5], [0.5, 1.0]], [0.5, -1.0], 43, 2.0),
        "clt/full-3x3": (A3, [1.0, -0.5, 0.25], 44, 1.0),
    }


def _clt_case(A, theta_star, seed, noise_scale):
    from convexkit import stochastic
    cov, _, rel = stochastic.clt_check(A, theta_star, 0.75, CLT_N, CLT_TRIALS, seed=seed,
                                       noise_scale=noise_scale)
    return {"cov": _sha([cov.tobytes()]), "rel": _sha([rel])}


PARSE_FORMATS = {"g17": "%.17g", "e16": "%+.16e"}


def _parse_files():
    """kind -> [(field, numbers)] in file order, seeded, for every problem-file kind."""
    rng = np.random.Generator(np.random.Philox(2027))
    d, n = 6, 9

    def spread(size):  # magnitudes 1e-8 .. 1e8, with -0, 0 and a subnormal
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
        v[:3] = (-0.0, 0.0, 5e-324)
        return v

    G = rng.standard_normal((d, d))
    A = G @ G.T / d + 0.5 * np.eye(d)
    X = spread(n * d)
    design = [("rows", [n]), ("dim", [d]), ("X", X)]
    return {
        "quadratic": [("dim", [d]), ("A", A.ravel()), ("b", spread(d))],
        "least-squares": design + [("Y", spread(n))],
        "logistic": design + [("Y", (rng.standard_normal(n) > 0).astype(float))],
        "lasso": design + [("Y", spread(n)), ("lam", [0.1 * rng.random()])],
        "svm": design + [("Y", np.where(rng.standard_normal(n) > 0, 1.0, -1.0)),
                         ("lam", [0.1 * rng.random()])],
        "worst-case-smooth": [("steps", [8]), ("beta", [rng.random() + 0.5]), ("dim", [17])],
        "worst-case-nonsmooth": [("steps", [8]), ("L", [rng.random() + 0.5]),
                                 ("R", [rng.random() + 0.5])],
    }


def _extra_hashes(extra, prefix=""):
    from convexkit.core import ProblemOracle
    out = {}
    for key in sorted(extra):
        value = extra[key]
        if isinstance(value, ProblemOracle):
            out.update(_extra_hashes(value.extra, prefix + key + "."))
        elif isinstance(value, (np.ndarray, float, int)):
            out["extra." + prefix + key] = _sha([np.asarray(value, dtype=float).tobytes()])
    return out


def _parse_case(path, kind, fields, fmt):
    from convexkit import cli
    with open(path, "w") as fh:
        fh.write("kind %s\n" % kind)
        for key, numbers in fields:
            fh.write("%s %s\n" % (key, " ".join(fmt % v for v in np.asarray(numbers, float))))
    p = cli.parse_problem_file(path)
    out = _extra_hashes(p.extra)
    if p.domain is not None:
        out["domain.radius"] = _sha([np.float64(p.domain.radius).tobytes()])
    out["constants"] = _sha([p.alpha, p.beta, b"None" if p.f_star is None else p.f_star])
    out["dim"] = p.dim
    return out


def _parse_cases():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.prob")
        for kind, fields in _parse_files().items():
            for label, fmt in PARSE_FORMATS.items():
                out["parse/%s/%s" % (kind, label)] = _parse_case(path, kind, fields, fmt)
    return out


def cases():
    """Every golden case, name -> dict of hashes and counts."""
    out = {name: _ipm_case(lp) for name, lp in _ipm_lps()}
    out.update(_parse_cases())
    out.update((name, _trace_hashes(run)) for name, run in _trace_cases())
    out.update((name, _clt_case(*args)) for name, args in _clt_cases().items())
    out.update((name, case()) for name, case in _solve_cases().items())
    return out


def changes(want, got):
    """name -> sorted keys whose hash or count differs, over every case in either."""
    diff = {}
    for name in sorted(set(want) | set(got)):
        a, b = want.get(name, {}), got.get(name, {})
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if keys:
            diff[name] = keys
    return diff


def load():
    with open(PATH) as fh:
        return json.load(fh)


def check():
    """Print the cases whose hashes differ from the file; exit 1 if any do."""
    want = load()
    if want["numpy"] != np.__version__:
        print("note: the file was made with numpy %s, this is numpy %s"
              % (want["numpy"], np.__version__))
    diff = changes(want["cases"], cases())
    for name, keys in diff.items():
        print("%s: %s" % (name, ", ".join(keys)))
    print("%d of %d cases changed" % (len(diff), len(want["cases"])), file=sys.stderr)
    return 1 if diff else 0


def main(argv):
    if argv == ["--check"]:
        return check()
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    golden = {"numpy": np.__version__, "cases": cases()}
    with open(PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(golden["cases"]), PATH), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
