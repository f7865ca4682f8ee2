"""Command-line harness: run solvers on problem files, fit observed rates
against theory, and execute the acceptance suite.

Exit codes: 0 success, 1 acceptance/rate failure or a failed run (e.g. a
diverging solver), 2 usage error or invalid problem file (including a step
given to agd, apgd, cg, fista or fw, which take none, and agd/apgd/fista on
a problem whose smoothness constant is 0 or infinite, as lasso's, and a
step that is not positive and finite), 3 missing oracle capability or
domain (md needs the simplex, which no file kind declares; psd a ball,
which svm and worst-case-nonsmooth files do) or no positive finite default
step from the problem's constants (1/beta with beta = 0 or infinite, as on
svm, worst-case-nonsmooth and lasso files). `run` writes only the trace
CSV to stdout; summaries go to stderr. Flags are long-form only. --iters
(MAX_ITERS) and worst-case problem files (MAX_CHAIN_DIM, MAX_NONSMOOTH_STEPS)
are size-capped: past a cap, exit 2 before anything is allocated.

`verify` runs the parts of its checks in up to two worker interpreters with
one BLAS thread each, longest part first; on one CPU, for one part, or under
a wrapped acceptance.run_criterion, it runs the checks in this process.
Either way it prints one PASS or FAIL line per check in check order and
exits 1 if any failed, a check with a part that raises or whose worker dies
included.
"""

import argparse
import math
import os
import sys
import time
import warnings

import numpy as np

from . import acceptance, problems
from .core import (CapabilityError, ConvexkitError, InvalidInput, InvalidProblem,
                   fit_rate, run_solver)


# --- problem spec files ------------------------------------------------------
#
# Textual key/value documents: one `key value...` pair per line, '#' comments.
# Matrices are inline row-major number lists; every float must be finite and
# the file UTF-8. A number is an ASCII decimal token or nan/inf/infinity (any
# case, optionally signed), and numbers are separated by ASCII whitespace.
# Each line is read in pieces of PIECE characters, and each piece is converted
# by one C pass (_floats) as it arrives, cut after its last separator. So no
# Python object is made per number, no string much longer than a piece is
# alive, and no field's text outlives its line; only `kind` is kept as text
# (perfbench solve-large, d = 1000, 2-vCPU KVM guest, medians of 12 pairs:
# peak_rss_mb 119.0 -> 98.3 MB against one string per field, setup_s
# unchanged). Underscores (1_0), non-ASCII digits and separators other than
# space, tab, newline, \v, \f and \r exit 2.
# Fields by kind:
#   kind quadratic        dim, A (dim*dim), b (dim)
#   kind least-squares    rows, dim, X (rows*dim), Y (rows)
#   kind logistic         rows, dim, X (rows*dim), Y (rows; 0/1)
#   kind lasso            rows, dim, X (rows*dim), Y (rows), lam
#   kind svm              rows, dim, X (rows*dim), Y (rows; +-1), lam
#   kind worst-case-smooth     beta, dim <= MAX_CHAIN_DIM
#   kind worst-case-nonsmooth  steps <= MAX_NONSMOOTH_STEPS, L, R

MAX_ITERS = 1000000  # trace columns of iters + 1 rows: 8 MB each at the cap
MAX_CHAIN_DIM = 4096  # a dense dim x dim matrix: 128 MB at the cap
MAX_NONSMOOTH_STEPS = 1000000  # vectors of steps + 1 entries: 8 MB at the cap
PIECE = 1 << 20  # characters of a line read at once
_SEPARATORS = " \t\n\r\v\f"  # the whitespace np.fromstring separates numbers by


def _parse_fields(path):
    """Each field of the problem file at path: `kind` as text, any other field
    as the float64 array of its numbers, or None if a token is not a number."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        try:
            piece = fh.readline(PIECE)
            while piece:
                pieces = _line_pieces(fh, piece)
                del piece  # so that the generator can drop it
                key, value = _field(pieces)
                if key is not None:
                    if key in fields:
                        raise InvalidInput("problem file repeats field %r" % key)
                    fields[key] = value
                piece = fh.readline(PIECE)
        except UnicodeDecodeError:
            raise InvalidInput("problem file is not UTF-8 text")
    return fields


def _line_pieces(fh, piece):
    """Yield the line of fh that starts with piece, in pieces, up to any '#'.

    The whole line is read, the part after a '#' included, before the
    generator ends. No piece is held while the next one is read.
    """
    while True:
        comment = piece.find("#")
        if comment >= 0:
            yield piece[:comment]
            while piece and not piece.endswith("\n"):
                piece = fh.readline(PIECE)
            return
        end = piece.endswith("\n")
        yield piece
        del piece
        if end:
            return
        piece = fh.readline(PIECE)
        if not piece:
            return


def _field(pieces):
    """(key, value) of the line given as pieces, or (None, None) if it is blank.

    The key ends at the first space. Each piece of the value, after the text
    carried from the pieces before, is converted up to its last separator
    that some non-whitespace follows, and the rest is carried on; text that
    is all whitespace up to that separator is carried whole. So the joined
    arrays are those of converting the stripped value in one pass. Every
    piece is consumed, also after a token that is not a number.
    """
    key, head, carry, parts = None, "", "", []  # parts: None once a token is not a number
    for piece in pieces:
        if key is None:
            head = (head + piece).lstrip()
            space = head.find(" ")
            if space < 0:
                continue
            key, piece, head = head[:space], head[space + 1:], None
        if key == "kind":
            carry += piece
            continue
        if parts is None:
            continue
        text = carry + piece
        del piece  # only the carry stays while the next piece is read
        end = len(text.rstrip())
        cut = -1
        for sep in _SEPARATORS:  # space first: the rest search only past its last
            cut = max(cut, text.rfind(sep, cut + 1, end))
        cut += 1
        if not cut or text[:cut].isspace():
            carry = text
            continue
        try:
            parts.append(_floats(text[:cut]))
        except ValueError:
            parts = None
        carry = text[cut:]
        del text
    if key is None:
        if head:
            raise InvalidInput("problem file line %r has no value" % head.rstrip())
        return None, None
    text = carry.rstrip()
    if not text and not parts:  # nothing cut off either: the value is blank
        raise InvalidInput("problem file line %r has no value" % key.rstrip())
    if key == "kind":
        return key, text
    if parts is None:
        return key, None
    if text:
        try:
            parts.append(_floats(text))
        except ValueError:
            return key, None
    return key, parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    vals = fields[key]
    if vals is None:
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


def _kind(fields):
    if "kind" not in fields:
        raise InvalidInput("problem file is missing field 'kind'")
    return fields["kind"].split()[0]


def parse_problem_file(path):
    """Read a problem spec file into a ProblemOracle."""
    fields = _parse_fields(path)
    kind = _kind(fields)
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
            _scalar(fields, "beta"), _integer(fields, "dim", 1, MAX_CHAIN_DIM))
    if kind == "worst-case-nonsmooth":
        return problems.make_worst_case_nonsmooth(
            _integer(fields, "steps", 0, MAX_NONSMOOTH_STEPS), _scalar(fields, "L"),
            _scalar(fields, "R"))
    raise InvalidInput("unknown problem kind %r" % kind)


# --- subcommands -------------------------------------------------------------

def cmd_run(args):
    if args.iters > MAX_ITERS:
        raise InvalidInput("--iters must be at most %d, not %d" % (MAX_ITERS, args.iters))
    problem = parse_problem_file(args.problem)
    started = time.monotonic()
    trace = run_solver(problem, args.algo, args.iters, step=args.step, seed=args.seed)
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
    def row(name, iters, gaps, theory, slack, skip=0):
        exponent, r2, kind = fit_rate(iters, gaps, skip=skip)
        return name, exponent, r2, theory, kind == "polynomial" and exponent <= theory + slack

    if suite == "gd-vs-agd":
        w = problems.make_worst_case_smooth(1.0, 65)
        traces = {name: run_solver(w, name, 1024) for name in ("gd", "agd")}
        return [row(name, traces[name].iters(), traces[name].gaps(), theory, slack, skip=65)
                for name, theory, slack in (("gd", -1.0, 0.5), ("agd", -2.0, 0.6))]
    if suite == "subgradient":
        # gap at the budget across N, each run with its own tuned step
        budgets = [int(N) for N in np.unique(np.geomspace(16, 512, 12).astype(int))]
        gaps = [run_solver(problems.make_worst_case_nonsmooth(N, 2.0, 1.0), "psd", N).final_gap()
                for N in budgets]
        return [row("psd", budgets, gaps, -0.5, 0.25)]
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


_RUN_CRITERION = acceptance.run_criterion

# A verify worker: one "<check id> <part number>" per line on stdin, one JSON
# [failed, line] per line on stdout. The working directory ("" on sys.path
# under -c) goes, so convexkit comes from PYTHONPATH. fd 1 becomes stderr, so
# a check's own output cannot reach the replies. SIGINT is ignored: the parent
# ends workers.
_WORKER_SOURCE = """
import json, os, signal, sys
if "" in sys.path:
    sys.path.remove("")
signal.signal(signal.SIGINT, signal.SIG_IGN)
replies = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)
sys.stdout = sys.stderr
from convexkit.cli import _check
for line in sys.stdin:
    cid, part = line.split()
    replies.write(json.dumps(_check(cid, int(part))) + "\\n")
    replies.flush()
"""


def _check(cid, *part):
    """(failed, line): run check cid, or its one part numbered part, and
    format the check's PASS or FAIL line."""
    try:
        acceptance.run_criterion(cid, *part)
    except AssertionError as exc:
        return True, "FAIL %s: %s" % (cid, exc)
    except Exception as exc:  # a ConvexkitError, or a fault in the check itself
        if not isinstance(exc, ConvexkitError):
            import traceback
            traceback.print_exc()  # to stderr: where the fault is
        return True, "FAIL %s: %s: %s" % (cid, type(exc).__name__, exc)
    return False, "PASS %s" % cid


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(ids):
    """(check id, part number, seconds) of each part of the checks ids."""
    return [(cid, i, seconds) for cid in ids
            for i, (_, seconds) in enumerate(acceptance.CRITERIA[cid])]


def _check_in_workers(ids, count, report):
    """Run the parts of the checks ids on count worker interpreters, longest
    first by the costs in acceptance.CRITERIA.

    Each worker runs at one BLAS thread and takes the next part as soon as it
    is free. Once all parts of a check have replied, report(cid, (failed,
    line)) is called with the first failing part's result in part order, or
    the PASS. A worker that dies mid-part fails that part, and a new worker
    takes its place while parts remain. However this returns, no worker
    outlives it.
    """
    import json
    import selectors
    import subprocess

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH")))))
    todo = sorted(_parts(ids), key=lambda part: part[2], reverse=True)
    replies = {cid: [None] * len(acceptance.CRITERIA[cid]) for cid in ids}
    procs, busy = [], {}  # busy: worker -> the (check id, part number) it runs
    sel = selectors.DefaultSelector()

    def reply(part, result):  # (failed, line) of a part
        cid, i = part
        results = replies[cid]
        results[i] = result
        if None not in results:
            report(cid, next((r for r in results if r[0]), results[0]))

    def hand_out(proc):
        if todo:
            cid, i, _ = todo.pop(0)
            busy[proc] = cid, i
            try:
                proc.stdin.write("%s %d\n" % (cid, i))
                proc.stdin.flush()
            except OSError:  # the worker is gone; its end of file fails the part
                pass

    def start():
        proc = subprocess.Popen([sys.executable, "-c", _WORKER_SOURCE], env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        procs.append(proc)
        sel.register(proc.stdout, selectors.EVENT_READ, proc)
        hand_out(proc)

    try:
        for _ in range(count):
            start()
        while busy:
            for key, _ in sel.select():
                proc = key.data
                line = proc.stdout.readline()
                if line.endswith("\n"):
                    reply(busy.pop(proc), json.loads(line))
                    hand_out(proc)
                    continue
                sel.unregister(proc.stdout)  # end of file: the worker has died
                if proc in busy:
                    proc.kill()  # a no-op unless it closed stdout and lives on
                    part = busy.pop(proc)
                    reply(part, (True, "FAIL %s: the worker running it exited with code %d"
                                 % (part[0], proc.wait())))
                    if todo:
                        start()
    finally:
        for proc in procs:
            if proc in busy:  # mid-part, and its result is no longer wanted
                proc.kill()
            try:
                proc.stdin.close()  # an idle worker exits at end of input
            except OSError:
                pass
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        sel.close()


def cmd_verify(args):
    ids = sorted(acceptance.CRITERIA)
    if args.only:
        ids = [cid for cid in ids if args.only in cid]
        if not ids:
            print("no criterion matches %r" % args.only, file=sys.stderr)
            return 2
    if args.list:
        for cid in ids:
            print(cid)
        return 0
    results = {}
    printed = 0

    def report(cid, result):  # print in check order as soon as the lines before are in
        nonlocal printed
        results[cid] = result
        while printed < len(ids) and ids[printed] in results:
            print(results[ids[printed]][1])
            printed += 1

    count = min(2, len(_parts(ids)), _cpu_count())
    # a wrapper put around run_criterion in this process (a tracer that times
    # each check, say) would not see the checks that workers run
    if count < 2 or not sys.executable or acceptance.run_criterion is not _RUN_CRITERION:
        for cid in ids:
            report(cid, _check(cid))
    else:
        _check_in_workers(ids, count, report)
    return 1 if any(failed for failed, _ in results.values()) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convexkit",
        description="Run convex-optimization solvers, fit rates, verify bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver on a problem file")
    p_run.add_argument("--problem", required=True, help="problem spec file")
    p_run.add_argument("--algo", required=True, help="solver name (e.g. gd, agd, psd)")
    p_run.add_argument("--iters", type=int, default=100)
    p_run.add_argument("--step", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=0)
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
