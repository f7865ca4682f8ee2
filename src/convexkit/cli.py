"""Command-line harness: run solvers on problem files, fit observed rates
against theory, and execute the acceptance suite.

Exit codes: 0 success, 1 acceptance/rate failure or a failed run (e.g. a
diverging solver), 2 usage error or invalid problem file (including a step
given to agd, apgd, cg, fista or fw, which take none, and agd/apgd/fista on
a problem whose smoothness constant is 0 or infinite), 3 missing oracle
capability or no positive finite default step (1/beta with beta = 0 or
infinite, for example). `run` writes only the trace CSV to
stdout; summaries go to stderr. Flags are long-form only; each of
--iters/--step/--seed falls back to the CONVEXKIT_ITERS/CONVEXKIT_STEP/
CONVEXKIT_SEED environment variable before its default. Worst-case problem
files are size-capped (MAX_CHAIN_DIM, MAX_NONSMOOTH_STEPS): past a cap, exit 2
before anything is allocated.
"""

import argparse
import math
import os
import sys
import time
import warnings

import numpy as np

from . import acceptance, gradient, nonsmooth, problems
from .core import (CapabilityError, ConvexkitError, InvalidInput, InvalidProblem,
                   IterateTrace, fit_rate, run_solver, takes_step)


# --- problem spec files ------------------------------------------------------
#
# Textual key/value documents: one `key value...` pair per line, '#' comments.
# Matrices are inline row-major number lists; every float must be finite and
# the file UTF-8. A number is an ASCII decimal token or nan/inf/infinity (any
# case, optionally signed), and numbers are separated by ASCII whitespace; a
# field is kept as one string and read in one C pass (_floats), so no Python
# object is made per number (perfbench solve-large, d = 1000, 2-vCPU KVM
# guest: setup_s 2.54 -> 2.13 s, peak_rss_mb 197.3 -> 118.9 MB against one
# str and one float per number). Underscores (1_0), non-ASCII digits and
# separators other than space, tab, newline, \v, \f and \r exit 2.
# Fields by kind:
#   kind quadratic        dim, A (dim*dim), b (dim)
#   kind least-squares    rows, dim, X (rows*dim), Y (rows)
#   kind logistic         rows, dim, X (rows*dim), Y (rows; 0/1)
#   kind lasso            rows, dim, X (rows*dim), Y (rows), lam
#   kind svm              rows, dim, X (rows*dim), Y (rows; +-1), lam
#   kind worst-case-smooth     steps, beta, dim <= MAX_CHAIN_DIM
#   kind worst-case-nonsmooth  steps <= MAX_NONSMOOTH_STEPS, L, R

MAX_CHAIN_DIM = 4096  # a dense dim x dim matrix: 128 MB at the cap
MAX_NONSMOOTH_STEPS = 1000000  # vectors of steps + 1 entries: 8 MB at the cap


def _parse_fields(path):
    fields = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, rest = line.partition(" ")
                if not rest.strip():
                    raise InvalidInput("problem file line %r has no value" % line)
                if key in fields:
                    raise InvalidInput("problem file repeats field %r" % key)
                fields[key] = rest
        except UnicodeDecodeError:
            raise InvalidInput("problem file is not UTF-8 text")
    return fields


def _floats(text):
    """The numbers in text as a float64 array; ValueError if any token is not one."""
    if text.isspace():  # fromstring reads blank text as [-1.0]
        return np.empty(0)
    with warnings.catch_warnings():  # numpy < 2 warns on a bad token and stops there
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, sep=" ")
        except DeprecationWarning as exc:
            raise ValueError(str(exc))


def _numbers(fields, key, count=None, finite=True):
    if key not in fields:
        raise InvalidInput("problem file is missing field %r" % key)
    try:
        vals = _floats(fields[key])
    except ValueError:
        raise InvalidInput("field %r holds non-numeric data" % key)
    if count is not None and len(vals) != count:
        raise InvalidInput("field %r has %d numbers, expected %d"
                           % (key, len(vals), count))
    if finite and not np.isfinite(vals).all():
        raise InvalidInput("field %r holds a non-finite number" % key)
    return vals


def _scalar(fields, key):
    return float(_numbers(fields, key, 1)[0])


def _integer(fields, key, minimum, maximum=math.inf):
    value = float(_numbers(fields, key, 1, finite=False)[0])
    if not (math.isfinite(value) and value == int(value) and minimum <= value <= maximum):
        raise InvalidInput("field %r must be an integer in [%d, %s], got %r"
                           % (key, minimum, maximum, value))
    return int(value)


def _design(fields):
    rows = _integer(fields, "rows", 1)
    dim = _integer(fields, "dim", 1)
    X = _numbers(fields, "X", rows * dim).reshape(rows, dim)
    Y = _numbers(fields, "Y", rows)
    return X, Y


def parse_problem_file(path):
    """Read a problem spec file into a ProblemOracle."""
    fields = _parse_fields(path)
    if "kind" not in fields:
        raise InvalidInput("problem file is missing field 'kind'")
    kind = fields["kind"].split()[0]
    if kind == "quadratic":
        dim = _integer(fields, "dim", 1)
        A = _numbers(fields, "A", dim * dim).reshape(dim, dim)
        b = _numbers(fields, "b", dim)
        return problems.make_quadratic(A, b)
    if kind == "least-squares":
        return problems.make_least_squares(*_design(fields))
    if kind == "logistic":
        return problems.make_logistic(*_design(fields))
    if kind == "lasso":
        X, Y = _design(fields)
        return problems.make_lasso(X, Y, _scalar(fields, "lam"))
    if kind == "svm":
        X, Y = _design(fields)
        return problems.make_svm_hinge(X, Y, _scalar(fields, "lam"))
    if kind == "worst-case-smooth":
        return problems.make_worst_case_smooth(
            _integer(fields, "steps", 0), _scalar(fields, "beta"),
            _integer(fields, "dim", 1, MAX_CHAIN_DIM))
    if kind == "worst-case-nonsmooth":
        return problems.make_worst_case_nonsmooth(
            _integer(fields, "steps", 0, MAX_NONSMOOTH_STEPS), _scalar(fields, "L"),
            _scalar(fields, "R"))
    raise InvalidInput("unknown problem kind %r" % kind)


def parse_lp_file(path):
    """Read an LP from one file with CSV blocks under `A:`, `b:`, `c:`, `x0:`.

    Returns (A, b, c, x0) with x0 = None when the section is absent.
    """
    sections = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.endswith(":") and line[:-1] in ("A", "b", "c", "x0"):
                    current = line[:-1]
                    sections[current] = []
                    continue
                if current is None:
                    raise InvalidInput("LP file data before any section header")
                try:
                    row = _floats(line.replace(",", " "))
                except ValueError:
                    raise InvalidInput("LP section %r holds non-numeric data: %r"
                                       % (current, line))
                if not np.isfinite(row).all():
                    raise InvalidInput("LP section %r holds a non-finite number: %r"
                                       % (current, line))
                sections[current].append(row)
        except UnicodeDecodeError:
            raise InvalidInput("LP file is not UTF-8 text")
    for key in ("A", "b", "c"):
        if key not in sections or not sections[key]:
            raise InvalidInput("LP file is missing section %r" % key)
    if len({len(row) for row in sections["A"]}) != 1:
        raise InvalidInput("LP section 'A' has rows of different lengths")
    A = np.array(sections["A"])
    b, c = np.concatenate(sections["b"]), np.concatenate(sections["c"])
    if A.shape != (b.size, c.size):
        raise InvalidInput("LP sections have inconsistent shapes")
    x0 = None
    if sections.get("x0"):
        x0 = np.concatenate(sections["x0"])
        if x0.size != c.size:
            raise InvalidInput("x0 has the wrong length")
    return A, b, c, x0


# --- config precedence: flag > CONVEXKIT_* env var > default -----------------

def _setting(flag_value, env_name, default, cast):
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("CONVEXKIT_" + env_name)
    if raw is not None:
        try:
            return cast(raw)
        except ValueError:
            raise InvalidInput("CONVEXKIT_%s=%r is not a valid value" % (env_name, raw))
    return default


# --- subcommands -------------------------------------------------------------

def cmd_run(args):
    problem = parse_problem_file(args.problem)
    iters = _setting(args.iters, "ITERS", 100, int)
    seed = _setting(args.seed, "SEED", 0, int)
    step = _setting(args.step, "STEP", None, float)
    algo = {"name": args.algo}
    if step is not None:
        if not takes_step(args.algo):
            raise InvalidInput("algorithm %s takes no step" % args.algo)
        algo["step"] = step
    started = time.monotonic()
    trace = run_solver(problem, algo, iters, seed=seed)
    elapsed = time.monotonic() - started
    csv_text = trace.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    gap = trace.final_gap()
    print("final value %.17g%s" % (trace.final_value(),
                                   "" if gap is None else " gap %.17g" % gap), file=sys.stderr)
    print("wall time %.3fs" % elapsed, file=sys.stderr)
    return 0


RATE_SUITES = {
    "gd-vs-agd": "GD and AGD on the chain quadratic; expected exponents -1 and -2",
    "subgradient": "projected subgradient on the resisting max instance; expected -0.5",
}


def _rate_rows(suite):
    if suite == "gd-vs-agd":
        w = problems.make_worst_case_smooth(1024, 1.0, 65)
        x0 = np.zeros(65)
        rows = []
        for name, trace, theory, slack in (
                ("gd", gradient.run_gd(w, 1.0, x0, 1024), -1.0, 0.5),
                ("agd", gradient.run_agd(w, x0, 1024), -2.0, 0.6)):
            exponent, r2, kind = fit_rate(trace, skip=65)
            rows.append((name, exponent, r2, theory,
                         kind == "polynomial" and exponent <= theory + slack))
        return rows
    if suite == "subgradient":
        # gap at the budget across N, each run with its own tuned step
        trace = IterateTrace(0.0)
        for N in np.unique(np.geomspace(16, 512, 12).astype(int)):
            N = int(N)
            w = problems.make_worst_case_nonsmooth(N, 2.0, 1.0)
            R = w.extra["R"]
            proj = lambda z: nonsmooth.project_ball(z, np.zeros(w.dim), R)
            run = nonsmooth.run_psd(w, proj, R / math.sqrt(N), np.zeros(w.dim), N)
            trace.add(N, run.gaps()[-1])
        exponent, r2, kind = fit_rate(trace)
        return [("psd", exponent, r2, -0.5,
                 kind == "polynomial" and exponent <= -0.25)]
    raise InvalidInput("unknown suite %r (have: %s)"
                       % (suite, ", ".join(sorted(RATE_SUITES))))


def cmd_rates(args):
    if not args.suite:
        for name in sorted(RATE_SUITES):
            print("%-12s %s" % (name, RATE_SUITES[name]))
        return 0
    rows = _rate_rows(args.suite)
    lines = ["algorithm,fitted_exponent,r2,theory_exponent,passed"]
    for name, exponent, r2, theory, ok in rows:
        lines.append("%s,%s,%s,%s,%s" % (name, format(exponent, ".17g"),
                                         format(r2, ".17g"),
                                         format(theory, ".17g"),
                                         "pass" if ok else "fail"))
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    print("%-10s %10s %8s %8s  %s" % ("algorithm", "fitted", "r2", "theory", "status"))
    for name, exponent, r2, theory, ok in rows:
        print("%-10s %10.3f %8.3f %8.1f  %s"
              % (name, exponent, r2, theory, "pass" if ok else "FAIL"))
    if not args.out:
        sys.stdout.write(csv_text)
    return 0 if all(row[4] for row in rows) else 1


def cmd_verify(args):
    ids = acceptance.criterion_ids()
    if args.only:
        ids = [cid for cid in ids if args.only in cid]
        if not ids:
            print("no criterion matches %r" % args.only, file=sys.stderr)
            return 2
    if args.list:
        for cid in sorted(ids):
            print(cid)
        return 0
    failures = 0
    for cid in sorted(ids):
        try:
            acceptance.run_criterion(cid)
            print("PASS %s" % cid)
        except AssertionError as exc:
            failures += 1
            print("FAIL %s: %s" % (cid, exc))
        except ConvexkitError as exc:
            failures += 1
            print("FAIL %s: %s: %s" % (cid, type(exc).__name__, exc))
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convexkit",
        description="Run convex-optimization solvers, fit rates, verify bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver on a problem file")
    p_run.add_argument("--problem", required=True, help="problem spec file")
    p_run.add_argument("--algo", required=True, help="solver name (e.g. gd, agd, psd)")
    p_run.add_argument("--iters", type=int, default=None)
    p_run.add_argument("--step", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_rates = sub.add_parser("rates", help="fit observed rates against theory")
    p_rates.add_argument("--suite", default=None,
                         help="benchmark suite; omit to list suites")
    p_rates.add_argument("--out", default=None, help="CSV output path")
    p_rates.set_defaults(func=cmd_rates)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--only", default=None,
                          help="run only criteria whose id contains this string")
    p_verify.add_argument("--list", action="store_true",
                          help="print criterion ids and exit")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapabilityError as exc:
        print("capability error: %s" % exc, file=sys.stderr)
        return 3
    except (InvalidInput, InvalidProblem, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConvexkitError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
