"""The four workloads. Each is a closed loop: one caller, one operation in flight.

A workload function takes (ck, seed, seconds, traced) where ck is the imported
convexkit package, and returns a Result. Untraced runs time whole rounds of
operations and fill `e2e`; every end-to-end time is normalized to a reference
host speed by yardstick runs around the operation (yardstick.py). Traced runs
split the time into a phase with spans only around each solver call (clean
per-loop timings) and a phase with every span installed (counts and per-call
costs), and fill `layers`.
"""

import contextlib
import io
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import yardstick
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DATA_DIR = os.path.join(HERE, "data")

VERIFY_IDS = [
    "01-gd-rate", "02-smooth-lower-bound", "03-acceleration", "04-cg", "05-subgradient",
    "06-functional-constraints", "07-ellipsoid", "08-feasibility-lower-bound",
    "09-frank-wolfe", "10-proximal", "11-mirror-mw", "12-pinsker-bregman", "13-sinkhorn",
    "14-am-ram", "15-smpgd-svrg", "16-clt", "17-ipm", "18-continuous-time",
]
SMALL_N = 300  # iterations per d = 5 loop
LARGE_N = 30  # iterations per d = 1000 solver
IMPORT_REPEATS = 5
BUILD_REPEATS = 5
PARSE_REPEATS = 3


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []  # check failures: the program gave a wrong answer
        self.e2e = {}
        self.layers = {}

    def check(self, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))


def closed_loop(result, ops, seconds, on_output, stick):
    """Run whole rounds of `ops` until `seconds` have passed (at least one round).

    Returns each op's list of normalized times (stick.timed). Output checks
    run outside the timed region. An op that raises counts as failed and its
    time is not kept.
    """
    times = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            result.attempted += 1
            try:
                out, seconds_i = stick.timed(op)
            except Exception:  # one failed op must not end the run; report it
                result.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            times[i].append(seconds_i)
            on_output(op, out)
        if time.perf_counter() - start >= seconds:
            return times


# The child times the import, then runs the Python yardstick itself, so the
# normalization sees the same CPU at the same moment as the import.
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import convexkit.cli; "
               "t1 = time.perf_counter(); import yardstick; "
               "print(t1 - t0, yardstick.python_seconds())")


def fresh_import_s():
    """Median normalized time of `import convexkit.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                              capture_output=True, text=True)
        seconds, kernel_s = map(float, proc.stdout.split())
        times.append(seconds * yardstick.PYTHON_REFERENCE_S / kernel_s)
    return statistics.median(times)


def child_inputs(workload, seed, directory=None):
    """inputs.py's payload for a workload, built in a child process.

    scipy, the reference solves and the generated arrays then stay out of
    this process, whose peak resident set is `peak_rss_mb`.
    """
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
           "--seed", str(seed)]
    if directory:
        cmd += ["--dir", directory]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE)
    return pickle.loads(proc.stdout)


def median_time(fn, repeats, stick):
    """(median normalized time of `repeats` calls of fn, the last call's result)."""
    times, out = [], None
    for _ in range(repeats):
        out = None  # let the previous result go before the next call allocates
        out, seconds = stick.timed(fn)
        times.append(seconds)
    return statistics.median(times), out


def core_spans(ck, tracer):
    """Spans on the core primitives every solver loop calls."""
    modules = [mod for name, mod in sorted(sys.modules.items()) if name.startswith("convexkit.")]
    tracer.patch(ck.core.IterateTrace, "add", "core.trace_add")
    tracer.patch(ck.core.IterateTrace, "to_csv", "core.to_csv", units=lambda a: len(a[0].records))
    tracer.patch_everywhere(ck.core, modules, "check_divergence", "core.check_divergence")
    tracer.patch_everywhere(ck.core, modules, "as_vector", "core.as_vector")
    tracer.patch(ck.nonsmooth, "project_ball", "nonsmooth.project_ball")


def core_layers(tracer, ops):
    """Per-call cost and per-op count of each core primitive."""
    out = {}
    for key in ("core.trace_add", "core.check_divergence", "core.as_vector", "nonsmooth.project_ball"):
        out[key + ".us"] = tracer.per_call_us(key)
        out[key + ".calls"] = tracer.calls(key) / ops
    rows = tracer.spans["core.to_csv"].units
    out["core.to_csv.us_per_row"] = 1e6 * tracer.seconds("core.to_csv") / rows if rows else 0.0
    return out


def finish_e2e(result, setup_s, times):
    """op_s.p50 over every op; wall_s is one round: the sum of each op's median."""
    result.e2e["setup_s"] = setup_s
    result.e2e["op_s.p50"] = statistics.median(t for op_times in times for t in op_times)
    result.e2e["wall_s"] = sum(statistics.median(op_times) for op_times in times)


def traced_phase(result, ck, ops, seconds, on_output, stick, extra_spans=None):
    """Second half of a traced run: every span installed; returns the Tracer."""
    tracer = Tracer()
    core_spans(ck, tracer)
    if extra_spans:
        extra_spans(tracer)
    try:
        times = [t for op_times in closed_loop(result, ops, seconds / 2.0, on_output, stick)
                 for t in op_times]
    finally:
        tracer.restore()
    result.layers.update(core_layers(tracer, len(times)))
    result.layers["tracing.op_s.p50"] = statistics.median(times)
    result.layers[stick.metric] = 1e3 * statistics.median(stick.samples)
    return tracer


# --- verify ------------------------------------------------------------------

def verify(ck, seed, seconds, traced):
    """All 18 acceptance checks: one op is one `convexkit verify` through cli.main.

    A pass takes over a minute, so a run makes exactly one. The checks take
    no input, so the seed changes nothing here. Traced runs time each check
    (normalized) around acceptance.run_criterion and install no other span.
    """
    result = Result()
    # One 70-s pass: a 1-s tick still gives 70 samples, and a denser one would
    # lengthen every verify run by several seconds.
    stick = yardstick.python_yardstick(tick_s=1.0)
    setup_s = fresh_import_s()

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ck.cli.main(["verify"])
        return code, buf.getvalue()

    def on_output(_, out):
        result.check(checks.verify_output, out[0], out[1], VERIFY_IDS)

    if not traced:
        finish_e2e(result, setup_s, closed_loop(result, [op], 0.0, on_output, stick))
        return result
    check_s = {}
    original = ck.acceptance.run_criterion

    def timed_criterion(cid):
        out, check_s[cid] = stick.timed(lambda: original(cid))
        return out

    tracer = Tracer()
    tracer.patch(ck.acceptance, "run_criterion", None, wrapper=timed_criterion)
    result.attempted += 1
    try:
        on_output(op, op())
    except Exception:  # report the failed pass like closed_loop does
        result.failed += 1
        traceback.print_exc(file=sys.stderr)
    finally:
        tracer.restore()
    for cid in VERIFY_IDS:
        result.layers["acceptance.%s.s" % cid] = check_s.get(cid, 0.0)
    result.layers["tracing.op_s.p50"] = sum(check_s.values())
    result.layers[stick.metric] = 1e3 * statistics.median(stick.samples)
    return result


# --- solve-small ---------------------------------------------------------------

def build_small(ck, data):
    """The d = 5 problems, constructed through convexkit.problems."""
    p = ck.problems
    lasso = p.make_lasso(data["X"], data["Y"], data["lam"])
    comps = [p.make_least_squares(data["Xs"][i:i + 1], data["Ys"][i:i + 1])
             for i in range(data["Xs"].shape[0])]
    return {"quadratic": p.make_quadratic(data["A"], data["b"]),
            "smooth": lasso.extra["smooth"], "reg": lasso.extra["reg"],
            "finite-sum": p.make_finite_sum(comps)}


class Loop:
    """One solver loop: `solve()` returns an IterateTrace with budget+1 records."""

    def __init__(self, name, budget, solve, x0_value, check):
        self.name, self.budget, self.solve = name, budget, solve
        self.x0_value, self.check = x0_value, check


def small_loops(ck, probs, payload, seed):
    """Every d = 5 solver loop, each through its own module's public function."""
    data, x0, simplex0 = payload["data"], payload["x0"], payload["simplex0"]
    A, b = data["A"], data["b"]
    q, qr = probs["quadratic"], payload["quadratic"]
    f, g, fs = probs["smooth"], probs["reg"], probs["finite-sum"]
    las, fsr = payload["lasso"], payload["finite-sum"]
    d, N = x0.size, SMALL_N
    R = float(np.linalg.norm(x0 - qr["x_star"]))
    ball = 1.5 * max(float(np.linalg.norm(x0)), float(np.linalg.norm(qr["x_star"])))
    L_ball = float(np.linalg.norm(A, 2)) * ball + float(np.linalg.norm(b))
    box = 1.5 * max(float(np.max(np.abs(x0))), float(np.max(np.abs(qr["x_star"]))))
    L_inf = float(np.max(np.abs(A))) + float(np.max(np.abs(b)))
    simplex_star = payload["simplex_f_star"]
    h_md = float(np.sqrt(2.0 * np.log(d) / N)) / L_inf
    h_sgd = 0.5 / float(np.max(np.sum(data["Xs"] ** 2, axis=1)))
    h_gs = 1.0 / float(np.max(np.diag(A)))
    dt = 1.0 / (100.0 * qr["beta"])
    proj = lambda z: ck.nonsmooth.project_ball(z, np.zeros(d), ball)
    loo = lambda p: ck.frankwolfe.loo_box(p, -box, box)
    euclid = ck.mirror.euclidean_geometry(d)
    entropic = ck.mirror.entropic_geometry(d)
    fq, fq0 = qr["f_star"], qr["value_x0"]
    gap = checks.gap_bound

    def cg_check(tr, v):
        for n, value in enumerate(v):
            gap("cg", value, fq, checks.cg_bound(qr["beta"] / qr["alpha"], v[0] - fq, n))
        gap("cg finite termination", v[-1], fq, 0.0)

    def descent(ref_star):
        def check(tr, v):
            checks.at_least("descent", v[-1], ref_star)
            checks.decreased("descent", v)
        return check

    def gs_check(tr, v):
        checks.monotone("gauss-southwell", v)
        descent(fq)(tr, v)

    def md_check(tr, v):
        checks.at_least("md", v[-1], simplex_star)
        gap("md average", float(tr.custom("avg_value")[-1]), simplex_star,
            checks.md_bound(L_inf, d, N))

    return [
        Loop("gradient.run_gd", N, lambda: ck.gradient.run_gd(q, 1.0 / qr["beta"], x0, N), fq0,
             lambda tr, v: gap("gd", v[-1], fq, checks.gd_bound(qr["beta"], R, N))),
        Loop("gradient.run_agd", N, lambda: ck.gradient.run_agd(q, x0, N), fq0,
             lambda tr, v: gap("agd", v[-1], fq, checks.agd_bound(qr["beta"], R, N))),
        Loop("krylov.cg_solve", d, lambda: ck.krylov.cg_solve(A, b, x0, d)[0], fq0, cg_check),
        Loop("nonsmooth.run_psd", N,
             lambda: ck.nonsmooth.run_psd(q, proj, 2.0 * ball / np.sqrt(N), x0, N), fq0,
             lambda tr, v: gap("psd", v[-1], fq, checks.psd_bound(L_ball, 2.0 * ball, N))),
        Loop("nonsmooth.run_psd_strong", N,
             lambda: ck.nonsmooth.run_psd_strong(q, proj, x0, N)[1], fq0,
             lambda tr, v: gap("psd_strong", v[-1], fq,
                               checks.psd_strong_bound(L_ball, ball, qr["alpha"], N))),
        Loop("proximal.run_pgd", N, lambda: ck.proximal.run_pgd(f, g, 1.0 / las["beta"], x0, N),
             las["value_x0"],
             lambda tr, v: gap("ista", v[-1], las["f_star"], checks.gd_bound(
                 las["beta"], float(np.linalg.norm(x0 - las["x_star"])), N))),
        Loop("proximal.run_apgd", N, lambda: ck.proximal.run_apgd(f, g, x0, N), las["value_x0"],
             lambda tr, v: gap("fista", v[-1], las["f_star"], checks.agd_bound(
                 las["beta"], float(np.linalg.norm(x0 - las["x_star"])), N))),
        Loop("proximal.run_ppm", N, lambda: ck.proximal.run_ppm(q, 1.0, x0, N), fq0,
             lambda tr, v: gap("ppm", v[-1], fq, checks.ppm_bound(R, 1.0, N))),
        Loop("frankwolfe.run_fw", N, lambda: ck.frankwolfe.run_fw(q, loo, x0, N)[0], fq0,
             lambda tr, v: gap("fw", v[-1], fq,
                               checks.fw_bound(qr["beta"], 2.0 * box * np.sqrt(d), N))),
        Loop("mirror.run_mpgd", N,
             lambda: ck.mirror.run_mpgd(q, None, entropic, h_md, simplex0, N, constraint="simplex"),
             qr["value_simplex0"], md_check),
        Loop("stochastic.run_sgd", N, lambda: ck.stochastic.run_sgd(fs, h_sgd, x0, N, seed),
             fsr["value_x0"], descent(fsr["f_star"])),
        Loop("stochastic.run_smpgd", N,
             lambda: ck.stochastic.run_smpgd(fs, None, euclid, h_sgd, x0, N, seed),
             fsr["value_x0"], descent(fsr["f_star"])),
        Loop("altmin.run_gauss_southwell", N,
             lambda: ck.altmin.run_gauss_southwell(q, h_gs, x0, N), fq0, gs_check),
        Loop("gradient.simulate_gf", N, lambda: ck.gradient.simulate_gf(q, N * dt, dt, x0), fq0,
             lambda tr, v: gap("gradient flow", v[-1], fq, R * R / (2.0 * N * dt))),
        Loop("gradient.simulate_agf", N,
             lambda: ck.gradient.simulate_agf(q, N * dt, dt, x0, mode="convex"), fq0,
             descent(fq)),
    ]


def loop_checker(result):
    """Checks one loop's trace; the first CSV of each loop is the byte reference."""
    first_csv = {}

    def check(loop, tr, csv):
        try:
            values = checks.csv_values(csv, loop.budget)
            checks.matches(loop.name + " value at x0", values[0], loop.x0_value)
            loop.check(tr, values)
            checks.same_bytes(loop.name, first_csv.setdefault(loop.name, csv), csv)
        except checks.CheckFailed as exc:
            result.errors.append("%s: %s" % (loop.name, exc))

    return check


def solve_small(ck, seed, seconds, traced):
    """One op = one pass over every d = 5 loop, each followed by to_csv()."""
    result = Result()
    payload = child_inputs("solve-small", seed)
    stick = yardstick.python_yardstick()
    import_s = fresh_import_s()
    build_s, probs = median_time(lambda: build_small(ck, payload["data"]), BUILD_REPEATS, stick)
    loops = small_loops(ck, probs, payload, seed)
    check = loop_checker(result)
    per_iter = {loop.name: [] for loop in loops}

    def one_pass():
        out = []
        for loop in loops:
            t0 = time.perf_counter()
            tr = loop.solve()
            per_iter[loop.name].append((time.perf_counter() - t0) / loop.budget)
            out.append((loop, tr, tr.to_csv()))
        return out

    def on_output(_, out):
        for loop, tr, csv in out:
            check(loop, tr, csv)

    if not traced:
        times = closed_loop(result, [one_pass], seconds, on_output, stick)
        finish_e2e(result, import_s + build_s, times)
        return result
    closed_loop(result, [one_pass], seconds / 2.0, on_output, stick)
    for name, samples in per_iter.items():
        result.layers[name + ".us_per_iter"] = 1e6 * statistics.median(samples)
    traced_phase(result, ck, [one_pass], seconds, on_output, stick)
    return result


# --- solve-large ----------------------------------------------------------------

LARGE_PAIRS = [  # (algo, kind, module.loop the registry calls)
    ("gd", "quadratic", "gradient.run_gd"), ("agd", "quadratic", "gradient.run_agd"),
    ("cg", "quadratic", "krylov.cg_solve"),
    ("gd", "least-squares", "gradient.run_gd"), ("agd", "least-squares", "gradient.run_agd"),
    ("gd", "logistic", "gradient.run_gd"), ("agd", "logistic", "gradient.run_agd"),
    ("ista", "lasso", "proximal.run_pgd"), ("fista", "lasso", "proximal.run_apgd"),
]


def large_check(algo, ref, values):
    """The proven bound of `algo` for its final (or, for CG, every) gap; x0 = 0."""
    N = len(values) - 1
    f_star = ref["f_star"]
    if algo == "cg":
        kappa = ref["beta"] / ref["alpha"]
        for n, v in enumerate(values):
            checks.gap_bound("cg", v, f_star, checks.cg_bound(kappa, values[0] - f_star, n))
        return
    R = float(np.linalg.norm(ref["x_star"]))
    bound = (checks.gd_bound if algo in ("gd", "ista") else checks.agd_bound)(ref["beta"], R, N)
    if "comparison_point" in ref:  # logistic: the bound holds against any point
        if not values[-1] - f_star <= bound + checks.tol_for(f_star):
            raise checks.CheckFailed("%s: gap to the comparison point %.6g exceeds %.6g"
                                     % (algo, values[-1] - f_star, bound))
        return
    checks.gap_bound(algo, values[-1], f_star, bound)


def solve_large(ck, seed, seconds, traced):
    """One op = one run_solver + to_csv() pass over every (solver, problem file) pair."""
    result = Result()
    directory = os.path.join(DATA_DIR, "seed-%d" % seed)
    try:
        payload = child_inputs("solve-large", seed, directory)
        paths, refs, sizes = payload["paths"], payload["refs"], payload["mb"]
        tracer = Tracer() if traced else None
        if traced:
            for kind, fn in (("quadratic", "make_quadratic"), ("least-squares", "make_least_squares"),
                             ("logistic", "make_logistic"), ("lasso", "make_lasso")):
                tracer.patch(ck.problems, fn, "construct." + kind)
        parse_s = {kind: [] for kind in paths}
        construct_s = {kind: [] for kind in paths}

        def setup():
            probs = {}
            for kind, path in paths.items():
                before = tracer.seconds("construct." + kind) if traced else 0.0
                t0 = time.perf_counter()
                probs[kind] = ck.cli.parse_problem_file(path)
                total = time.perf_counter() - t0
                if traced:
                    built = tracer.seconds("construct." + kind) - before
                    construct_s[kind].append(built)
                    parse_s[kind].append(total - built)
            return probs

        try:
            setup_s, probs = median_time(setup, PARSE_REPEATS, yardstick.python_yardstick())
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    stick = yardstick.blas_yardstick()  # the d = 1000 passes are matvec-bound
    first_csv = {}
    per_iter = {pair: [] for pair in LARGE_PAIRS}

    def one_pass():
        out = []
        for pair in LARGE_PAIRS:
            algo, kind, _ = pair
            t0 = time.perf_counter()
            tr = ck.core.run_solver(probs[kind], algo, LARGE_N)
            per_iter[pair].append((time.perf_counter() - t0) / LARGE_N)
            out.append((pair, tr.to_csv()))
        return out

    def on_output(_, out):
        for (algo, kind, _), csv in out:
            label = "%s on %s" % (algo, kind)
            try:
                values = checks.csv_values(csv, LARGE_N)
                checks.matches(label + " value at x0", values[0], refs[kind]["value_x0"])
                large_check(algo, refs[kind], values)
                checks.same_bytes(label, first_csv.setdefault(label, csv), csv)
            except checks.CheckFailed as exc:
                result.errors.append("%s: %s" % (label, exc))

    if not traced:
        times = closed_loop(result, [one_pass], seconds, on_output, stick)
        finish_e2e(result, setup_s, times)
        return result
    for kind in paths:
        p = statistics.median(parse_s[kind])
        result.layers["cli.parse_s." + kind] = p
        result.layers["cli.parse_mb_per_s." + kind] = sizes[kind] / p
        result.layers["problems.construct_s." + kind] = statistics.median(construct_s[kind])
    closed_loop(result, [one_pass], seconds / 2.0, on_output, stick)
    for (algo, kind, loop), samples in per_iter.items():
        result.layers["%s.%s.ms_per_iter" % (loop, kind)] = 1e3 * statistics.median(samples)
    traced_phase(result, ck, [one_pass], seconds, on_output, stick)
    for (algo, kind), (nv, ng) in oracle_counts(ck, probs).items():
        result.layers["problems.value.calls_per_iter.%s.%s" % (algo, kind)] = nv
        result.layers["problems.gradient.calls_per_iter.%s.%s" % (algo, kind)] = ng
    return result


def oracle_counts(ck, probs):
    """Oracle calls per iteration of each (algo, kind) pair, from one counted solve each."""
    counts = {}
    for algo, kind, _ in LARGE_PAIRS:
        if algo == "cg":
            continue
        prob = probs[kind]
        oracle = prob.extra["smooth"] if kind == "lasso" else prob
        tracer = Tracer()
        tracer.patch(oracle, "value", "value")
        tracer.patch(oracle, "subgradient", "gradient")
        try:
            ck.core.run_solver(prob, algo, LARGE_N)
        finally:
            tracer.restore()
        counts[(algo, kind)] = (tracer.calls("value") / LARGE_N, tracer.calls("gradient") / LARGE_N)
    return counts


# --- lp ---------------------------------------------------------------------------

def lp(ck, seed, seconds, traced):
    """One op = one ipm.solve_lp on a random LP; a round is the seed's LP pool."""
    result = Result()
    stick = yardstick.python_yardstick()
    setup_s = fresh_import_s()
    payload = child_inputs("lp", seed)
    pool, eps = payload["pool"], payload["eps"]
    first = {}
    steps = {}

    def make_op(i, inst):
        def op():
            t0 = time.perf_counter()
            x, value, iters = ck.ipm.solve_lp(inst["A"], inst["b"], inst["c"], inst["x0"], eps)
            steps.setdefault(i, []).append((time.perf_counter() - t0, iters))
            return i, x, value
        return op

    ops = [make_op(i, inst) for i, inst in enumerate(pool)]

    def on_output(_, out):
        i, x, value = out
        label = "lp %d" % i
        try:
            checks.lp_solution(label, x, value, pool[i], eps)
            if first.setdefault(i, value) != value:
                raise checks.CheckFailed("%s: two solves of the same LP gave different values" % label)
        except checks.CheckFailed as exc:
            result.errors.append(str(exc))

    if not traced:
        times = closed_loop(result, ops, seconds, on_output, stick)
        finish_e2e(result, setup_s, times)
        return result
    closed_loop(result, ops, seconds / 2.0, on_output, stick)
    samples = [s for runs in steps.values() for s in runs]
    result.layers["ipm.newton_steps"] = float(np.mean([steps[i][0][1] for i in sorted(steps)]))
    result.layers["ipm.solve_lp.ms_per_step"] = 1e3 * statistics.median(t / n for t, n in samples)
    steps.clear()

    def ipm_spans(tr):
        ipm = ck.ipm
        original = ipm.log_barrier_polytope

        def barrier_with_span(A, b):
            barrier = original(A, b)
            barrier.hessian = tr.wrap("ipm.hessian", barrier.hessian)
            return barrier

        tr.patch(ipm, "log_barrier_polytope", None, wrapper=barrier_with_span)
        tr.patch(ipm, "newton_step", "ipm.newton_step")
        tr.patch(ipm, "newton_decrement", "ipm.newton_decrement")

    tracer = traced_phase(result, ck, ops, seconds, on_output, stick, ipm_spans)
    total_steps = sum(n for runs in steps.values() for _, n in runs)
    result.layers["ipm.newton_step.ms"] = tracer.per_call_us("ipm.newton_step") / 1e3
    result.layers["ipm.newton_decrement.ms"] = tracer.per_call_us("ipm.newton_decrement") / 1e3
    result.layers["ipm.hessian.calls_per_step"] = tracer.calls("ipm.hessian") / total_steps
    return result


WORKLOADS = {"verify": verify, "solve-small": solve_small, "solve-large": solve_large, "lp": lp}
