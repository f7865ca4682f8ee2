import contextlib
import inspect
import io
import itertools
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import acceptance, cli, nonsmooth, problems
from convexkit.core import InvalidInput, ProblemOracle, Simplex, run_solver, solver_names

QUAD = """\
# a 2-d quadratic
kind quadratic
dim 2
A 2 0 0 1
b 1 1
"""

LASSO = """\
kind lasso
rows 4
dim 2
X 1 0.5 -0.3 2 0.7 -1 1.5 0.2
Y 1 -2 0.5 3
lam 0.1
"""

LP = """\
kind lp
rows 4
dim 2
A 1 0 -1 0 0 1 0 -1
b 1 1 1 1
c 1 0
x0 0.2 0.1
"""


@pytest.fixture
def quad_file(tmp_path):
    p = tmp_path / "quad.prob"
    p.write_text(QUAD)
    return str(p)


def test_parse_problem_file(quad_file):
    q = cli.parse_problem_file(quad_file)
    assert q.dim == 2
    assert q.beta == 2.0
    assert np.allclose(q.x_star, [0.5, 1.0])


def test_parse_problem_file_errors(tmp_path, capsys):
    p = tmp_path / "bad.prob"
    for text, message in [("kind quadratic\ndim 2\nA 1 2 3\nb 0 0\n", "field 'A' has 3 numbers"),
                          ("dim 2\n", "missing field 'kind'"),
                          ("kind martian\n", "unknown problem kind 'martian'"),
                          (LP, "unknown problem kind 'lp'")]:  # run solves no LP
        p.write_text(text)
        with pytest.raises(InvalidInput, match=message):
            cli.parse_problem_file(str(p))
        assert cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"]) == 2
        assert message in capsys.readouterr().err


def test_parse_worst_case_file(tmp_path):
    # f depends on beta and dim alone: a steps field, valid or not, is not read
    p = tmp_path / "w.prob"
    for steps in ("", "steps 8\n", "steps nan\n"):
        p.write_text("kind worst-case-smooth\n%sbeta 1.0\ndim 17\n" % steps)
        w = cli.parse_problem_file(str(p))
        assert w.dim == 17 and w.beta == 1.0
        assert cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"]) == 0


def test_run_writes_trace_and_exits_zero(quad_file, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    code = cli.main(["run", "--problem", quad_file, "--algo", "gd",
                     "--iters", "12", "--out", out])
    assert code == 0
    with open(out) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "iter,value,gap,grad_norm,time_s"
    assert len(lines) == 14  # header + budget+1 records
    assert "final value" in capsys.readouterr().err


def test_run_negative_iters_usage_error(quad_file, capsys):
    assert cli.main(["run", "--problem", quad_file, "--algo", "gd", "--iters", "-1"]) == 2
    assert "budget" in capsys.readouterr().err


def test_run_repeated_field_usage_error(tmp_path, capsys):
    p = tmp_path / "dup.prob"
    p.write_text(QUAD + "b 5 5\n")
    with pytest.raises(InvalidInput, match="repeats field 'b'"):
        cli.parse_problem_file(str(p))
    assert cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"]) == 2


def test_run_invalid_problem_usage_error(tmp_path, capsys):
    p = tmp_path / "asym.prob"
    p.write_text("kind quadratic\ndim 2\nA 2 1 0 1\nb 1 1\n")
    assert cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_run_ppm_nonpositive_step_usage_error(quad_file, capsys):
    assert cli.main(["run", "--problem", quad_file, "--algo", "ppm", "--step", "-1",
                     "--iters", "3"]) == 2


def test_run_diverging_pgd_exits_1_without_rows(tmp_path, capsys):
    p = tmp_path / "lasso.prob"
    p.write_text(LASSO)
    assert cli.main(["run", "--problem", str(p), "--algo", "pgd", "--step", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DivergenceError" in captured.err


@pytest.mark.parametrize("text", [
    QUAD.replace("dim 2", "dim nan"), QUAD.replace("dim 2", "dim inf"),
    QUAD.replace("dim 2", "dim 2.5"), QUAD.replace("dim 2", "dim 0"),
    LASSO.replace("rows 4", "rows -inf"), LASSO.replace("rows 4", "rows 4.000001"),
    "kind worst-case-nonsmooth\nsteps -5\nL 1\nR 1\n",
    "kind worst-case-nonsmooth\nsteps 2.5\nL 1\nR 1\n",
], ids=["dim-nan", "dim-inf", "dim-2.5", "dim-0", "rows-minus-inf", "rows-4.000001",
        "steps-minus-5", "steps-2.5"])
def test_run_non_integer_field_usage_error(tmp_path, capsys, text):
    p = tmp_path / "bad.prob"
    p.write_text(text)
    assert cli.main(["run", "--problem", str(p), "--algo", "gd"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_run_integral_float_field_is_accepted(tmp_path):
    p = tmp_path / "q.prob"
    p.write_text(QUAD.replace("dim 2", "dim 2.0"))
    assert cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3",
                     "--out", str(tmp_path / "t.csv")]) == 0


def test_run_byte_stable(quad_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert cli.main(["run", "--problem", quad_file, "--algo", "agd",
                         "--iters", "9", "--seed", "5", "--out", out]) == 0
        with open(out, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_run_unknown_algo_usage_error(quad_file, capsys):
    assert cli.main(["run", "--problem", quad_file, "--algo", "zzz",
                     "--iters", "5"]) == 2


def test_run_capability_exit_3(quad_file):
    assert cli.main(["run", "--problem", quad_file, "--algo", "fw",
                     "--iters", "5"]) == 3


SVM = """\
kind svm
rows 4
dim 2
X 1 0.5 -0.3 2 0.7 -1 1.5 0.2
Y 1 -1 1 -1
lam 0.1
"""


ZERO = """\
kind quadratic
dim 2
A 0 0 0 0
b 0 0
"""  # beta = 0


@pytest.mark.parametrize("text, algo", [
    ("kind worst-case-nonsmooth\nsteps 0\nL 1\nR 1\n", "md"),  # md needs the simplex
    (SVM, "pgd"), (SVM, "ista"),  # hinge loss: beta = inf, 1 / beta = 0
    (ZERO, "gd"), (ZERO, "pgd"), (ZERO, "ista"),  # A = 0: beta = 0, 1 / beta = inf
    # f is not smooth, so beta = inf (gd took step 1.0 on the first two, 1/beta of
    # lasso's smooth part on the third); test_run_non_finite_float_field_exit_2 runs
    # these files with --step
    (SVM, "gd"), ("kind worst-case-nonsmooth\nsteps 8\nL 1\nR 1\n", "gd"), (LASSO, "gd"),
], ids=["md-dim-1", "pgd-svm", "ista-svm", "gd-zero-A", "pgd-zero-A", "ista-zero-A",
        "gd-svm", "gd-worst-case-nonsmooth", "gd-lasso"])
def test_run_zero_default_step_exit_3(tmp_path, capsys, text, algo):
    p = tmp_path / "f.prob"
    p.write_text(text)
    assert cli.main(["run", "--problem", str(p), "--algo", algo, "--iters", "3"]) == 3
    assert "capability error" in capsys.readouterr().err


@pytest.mark.parametrize("text, algo", [
    ("kind worst-case-nonsmooth\nsteps 0\nL 1\nR 1\n", "md"), (SVM, "pgd"), (QUAD, "gd"),
], ids=["md-dim-1", "pgd-svm", "gd-quadratic"])
@pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "-inf"])
def test_run_explicit_nonpositive_step_still_exit_2(tmp_path, text, algo, step):
    # nan and inf passed the step <= 0 test and ended in DivergenceError, exit 1
    p = tmp_path / "f.prob"
    p.write_text(text)
    code, out, err = _run(["run", "--problem", str(p), "--algo", algo, "--iters", "3",
                           "--step=" + step])  # "--step -inf" would read -inf as a flag
    assert code == 2 and out == "" and "step must be positive and finite" in err


def test_run_agd_on_lasso_exit_2(tmp_path):
    # lasso declared its smooth part's beta, so agd ran on the nonsmooth f + g
    p = tmp_path / "lasso.prob"
    p.write_text(LASSO)
    code, out, err = _run(["run", "--problem", str(p), "--algo", "agd", "--iters", "3"])
    assert code == 2 and out == "" and "finite positive smoothness constant" in err


def _run(argv):
    """cli.main's exit code, stdout and stderr; an exception escaping main fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def zero_file(tmp_path):
    p = tmp_path / "zero.prob"
    p.write_text(ZERO)
    return str(p)


@pytest.mark.parametrize("algo", ["agd", "fista", "apgd"])
def test_run_zero_beta_accelerated_exit_2(zero_file, algo):
    # beta <= 0 is refused like an infinite beta
    code, out, err = _run(["run", "--problem", zero_file, "--algo", algo, "--iters", "3"])
    assert code == 2 and out == "" and "finite positive smoothness constant" in err


@pytest.mark.parametrize("algo", ["gd", "pgd", "ista"])
def test_run_zero_beta_given_step_is_honoured(zero_file, algo):
    code, out, _ = _run(["run", "--problem", zero_file, "--algo", algo, "--iters", "3",
                         "--step", "0.1"])
    assert code == 0 and out.count("\n") == 5


@pytest.mark.parametrize("algo", solver_names())
def test_run_zero_beta_every_solver_exits_0_2_or_3(zero_file, algo):
    assert _run(["run", "--problem", zero_file, "--algo", algo, "--iters", "3"])[0] in (0, 2, 3)


def test_sgd_zero_beta_default_step_is_a_capability_error():
    from convexkit import problems
    from convexkit.core import CapabilityError, run_solver
    zero = problems.make_quadratic(np.zeros((2, 2)), np.zeros(2))
    fs = problems.make_finite_sum([zero, zero])
    assert fs.beta == 0.0
    with pytest.raises(CapabilityError, match="default step"):
        run_solver(fs, "sgd", 3)
    assert len(run_solver(fs, "sgd", 3, step=0.1)) == 4


@pytest.mark.parametrize("algo", ["agd", "apgd", "cg", "fista", "fw"])
def test_run_stepless_solver_refuses_a_step(quad_file, algo):
    code, out, err = _run(["run", "--problem", quad_file, "--algo", algo, "--step", "1e-9"])
    assert code == 2 and out == ""
    assert "algorithm %s takes no step" % algo in err


def test_run_unknown_algo_with_step_is_named_unknown(quad_file):
    code, _, err = _run(["run", "--problem", quad_file, "--algo", "zzz", "--step", "1"])
    assert code == 2 and "unknown algorithm 'zzz'" in err


def test_run_cg_past_convergence_exits_0(tmp_path):
    # kappa = 10, d = 3: <p, Ap> underflowed to 0 at step 33, and --iters 40 exited 1
    # with "error: NotPositiveDefinite: <p, Ap> = 0 <= 0"
    p = tmp_path / "q3.prob"
    p.write_text("kind quadratic\ndim 3\nA 3.3 -0.779 3.5 -0.779 7.63 1.6 3.5 1.6 7.55\n"
                 "b 0.56 -0.64 0.55\n")
    code, out, _ = _run(["run", "--problem", str(p), "--algo", "cg", "--iters", "40"])
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == 41
    assert len({row.split(",", 1)[1] for row in rows[33:]}) == 1  # CG stays put


def test_run_cg_on_a_least_squares_file_exit_3(tmp_path):
    # cg asks for the quadratic's (A, b) through require, like every other registry row
    p = tmp_path / "ls.prob"
    p.write_text("kind least-squares\nrows 3\ndim 2\nX 1 0 0 1 1 1\nY 1 2 3\n")
    code, out, err = _run(["run", "--problem", str(p), "--algo", "cg", "--iters", "3"])
    assert (code, out) == (3, "")
    assert err == "capability error: problem 'least-squares' lacks the quadratic oracle\n"


@pytest.mark.parametrize("text, field", [
    ("kind worst-case-smooth\nbeta 1\ndim 1e9\n", "dim"),
    ("kind worst-case-nonsmooth\nsteps 1e15\nL 1\nR 1\n", "steps"),
], ids=["smooth-dim-1e9", "nonsmooth-steps-1e15"])
def test_run_worst_case_size_cap_exit_2(tmp_path, capsys, monkeypatch, text, field):
    def no_build(*args, **kwargs):
        raise AssertionError("the size cap must be checked before the problem is built")
    monkeypatch.setattr(cli.problems, "make_worst_case_smooth", no_build)
    monkeypatch.setattr(cli.problems, "make_worst_case_nonsmooth", no_build)
    p = tmp_path / "w.prob"
    p.write_text(text)
    assert cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"]) == 2
    assert "field %r must be an integer in [" % field in capsys.readouterr().err


@pytest.mark.parametrize("kind, field, cap, other", [
    ("worst-case-smooth", "dim", cli.MAX_CHAIN_DIM, "steps 8\nbeta 1\n"),
    ("worst-case-nonsmooth", "steps", cli.MAX_NONSMOOTH_STEPS, "L 1\nR 1\n"),
])
def test_worst_case_size_caps_are_inclusive(tmp_path, monkeypatch, kind, field, cap, other):
    built = []
    for name in ("make_worst_case_smooth", "make_worst_case_nonsmooth"):
        monkeypatch.setattr(cli.problems, name, lambda *args: built.append(args))
    p = tmp_path / "w.prob"
    p.write_text("kind %s\n%s%s %d\n" % (kind, other, field, cap))
    cli.parse_problem_file(str(p))
    assert cap in built[0]
    p.write_text("kind %s\n%s%s %d\n" % (kind, other, field, cap + 1))
    with pytest.raises(InvalidInput, match=r"must be an integer in \[\d+, %d\]" % cap):
        cli.parse_problem_file(str(p))


def test_run_missing_file_exit_2(tmp_path):
    assert cli.main(["run", "--problem", str(tmp_path / "nope.prob"),
                     "--algo", "gd", "--iters", "5"]) == 2


@pytest.mark.parametrize("iters", [cli.MAX_ITERS + 1, 10 ** 15])
def test_run_iters_past_the_cap_exit_2(quad_file, monkeypatch, iters):
    # 10**15 iterations asked IterateTrace for 7.11 PiB and ended in a traceback
    def no_parse(path):
        raise AssertionError("the iters cap must be checked before the file is parsed")
    monkeypatch.setattr(cli, "parse_problem_file", no_parse)
    code, out, err = _run(["run", "--problem", quad_file, "--algo", "gd",
                           "--iters", str(iters)])
    assert code == 2 and out == ""
    assert "--iters must be at most %d" % cli.MAX_ITERS in err


def test_rates_lists_suites(capsys):
    assert cli.main(["rates"]) == 0
    out = capsys.readouterr().out
    assert "gd-vs-agd" in out and "subgradient" in out


def test_rates_unknown_suite():
    assert cli.main(["rates", "--suite", "bogus"]) == 2


@pytest.mark.parametrize("suite, algorithms", [("gd-vs-agd", ["gd", "agd"]),
                                               ("subgradient", ["psd"])])
def test_rates_suite_csv(tmp_path, suite, algorithms):
    header = "algorithm,fitted_exponent,r2,theory_exponent,passed\n"
    code, out, err = _run(["rates", "--suite", suite])
    assert code == 0
    csv = out[out.index(header):]  # after the table
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert [row[0] for row in rows] == algorithms
    assert all(row[4] == "pass" for row in rows)
    path = tmp_path / "rates.csv"
    code_out, table, _ = _run(["rates", "--suite", suite, "--out", str(path)])
    assert code_out == 0
    assert path.read_bytes() == csv.encode()
    assert table + csv == out  # --out moves the CSV from stdout to the file
    assert _run(["rates", "--suite", suite]) == (code, out, err)


def test_verify_list_sorted(capsys):
    assert cli.main(["verify", "--list"]) == 0
    ids = capsys.readouterr().out.strip().split("\n")
    assert ids == sorted(ids) and len(ids) == 18


def test_verify_only_filter(capsys):
    assert cli.main(["verify", "--only", "gd-rate"]) == 0
    out = capsys.readouterr().out
    assert "PASS 01-gd-rate" in out
    assert cli.main(["verify", "--only", "zzz"]) == 2


LOWER_BOUNDS = ["02-smooth-lower-bound", "08-feasibility-lower-bound"]  # both under 0.1 s

def with_faults(criteria, fault, faulty):
    """criteria with fault(cid, number) in place of each part of a check whose
    id is in faulty, and of each part whose (id, number) pair is."""
    return {cid: [((lambda cid=cid, number=number: fault(cid, number))
                   if cid in faulty or (cid, number) in faulty else part, seconds)
                  for number, (part, seconds) in enumerate(parts)]
            for cid, parts in criteria.items()}


# Put in front of the worker program, with fault's body, with_faults and its
# faulty list filled in: those checks and parts then run fault(cid, number).
FAULTY_WORKER = """
import os, signal, time
from convexkit import acceptance

def fault(cid, number):
    %s

%s
acceptance.CRITERIA = with_faults(acceptance.CRITERIA, fault, %r)
"""


@pytest.fixture
def workers(monkeypatch):
    """The worker processes that verify starts, on a machine of two CPUs."""
    started, popen = [], subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    return started


def faulty_workers(monkeypatch, body, faulty):
    source = FAULTY_WORKER % (body, inspect.getsource(with_faults), faulty)
    monkeypatch.setattr(cli, "_WORKER_SOURCE", source + cli._WORKER_SOURCE)


def assert_none_left(started):
    """Each worker was waited for, so it is no longer a child of this process."""
    for proc in started:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)


def test_verify_workers_print_what_the_in_process_path_prints(workers, monkeypatch, capsys):
    assert cli.main(["verify", "--only", "lower-bound"]) == 0
    out = capsys.readouterr().out
    assert len(workers) == 2
    assert_none_left(workers)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    assert cli.main(["verify", "--only", "lower-bound"]) == 0
    assert capsys.readouterr().out.splitlines() == out.splitlines() == [
        "PASS " + cid for cid in LOWER_BOUNDS]
    assert len(workers) == 2


def test_verify_runs_in_process_under_a_wrapped_run_criterion(workers, monkeypatch, capsys):
    seen, run = [], acceptance.run_criterion

    def timed(cid):
        seen.append(cid)
        return run(cid)

    monkeypatch.setattr(acceptance, "run_criterion", timed)
    assert cli.main(["verify", "--only", "lower-bound"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS " + cid for cid in LOWER_BOUNDS]
    assert seen == LOWER_BOUNDS and workers == []


def test_verify_reports_an_unexpected_exception_and_goes_on(workers, monkeypatch, capsys):
    def fault(cid, number):
        raise ValueError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA",
                        with_faults(acceptance.CRITERIA, fault, [LOWER_BOUNDS[1]]))
    faulty_workers(monkeypatch, "raise ValueError('boom')", [LOWER_BOUNDS[1]])
    expected = ["PASS " + LOWER_BOUNDS[0], "FAIL %s: ValueError: boom" % LOWER_BOUNDS[1]]
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        assert cli.main(["verify", "--only", "lower-bound"]) == 1
        assert capsys.readouterr().out.splitlines() == expected
    assert len(workers) == 2
    assert_none_left(workers)


def test_verify_fails_the_check_of_a_dead_worker(workers, monkeypatch, capsys):
    # 06 and 08 cost more than 09 here, so the first two workers take them and
    # die, and exactly one more runs 09, whichever death is read first
    costs = {"06-functional-constraints": 1.0, "08-feasibility-lower-bound": 1.0}
    monkeypatch.setattr(acceptance, "CRITERIA", {
        cid: [(part, costs.get(cid, seconds)) for part, seconds in parts]
        for cid, parts in acceptance.CRITERIA.items()})
    faulty_workers(monkeypatch, "os.kill(os.getpid(), signal.SIGKILL)",
                   ["06-functional-constraints", "08-feasibility-lower-bound"])
    assert cli.main(["verify", "--only=-f"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "FAIL 06-functional-constraints", "FAIL 08-feasibility-lower-bound", "PASS 09-frank-wolfe"]
    assert lines[0].endswith("exited with code -%d" % signal.SIGKILL)
    assert len(workers) == 3
    assert_none_left(workers)


def test_verify_fails_a_check_with_its_first_failing_part(workers, monkeypatch, capsys):
    # longest first, part 1 fails at once and part 0 later; the line is part 0's
    def fault(cid, number):
        time.sleep(0.5 * (number == 0))
        raise AssertionError("part %d" % number)

    monkeypatch.setattr(acceptance, "CRITERIA",
                        with_faults(acceptance.CRITERIA, fault, ["05-subgradient"]))
    faulty_workers(monkeypatch, "time.sleep(0.5 * (number == 0)); "
                   "raise AssertionError('part %d' % number)", ["05-subgradient"])
    expected = ["PASS 02-smooth-lower-bound", "FAIL 05-subgradient: part 0",
                "PASS 13-sinkhorn", "PASS 15-smpgd-svrg"]
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        assert cli.main(["verify", "--only=-s"]) == 1
        assert capsys.readouterr().out.splitlines() == expected
    assert len(workers) == 2
    assert_none_left(workers)


def test_verify_fails_a_check_with_a_later_part_that_fails(workers, monkeypatch, capsys):
    def fault(cid, number):
        if number == 1:
            raise AssertionError("part 1")

    monkeypatch.setattr(acceptance, "CRITERIA",
                        with_faults(acceptance.CRITERIA, fault, ["05-subgradient"]))
    faulty_workers(monkeypatch, "if number == 1: raise AssertionError('part 1')",
                   ["05-subgradient"])
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        assert cli.main(["verify", "--only=05-"]) == 1
        assert capsys.readouterr().out.splitlines() == ["FAIL 05-subgradient: part 1"]
    assert len(workers) == 2
    assert_none_left(workers)


def test_verify_fails_the_check_of_a_worker_killed_mid_part(workers, monkeypatch, capsys):
    faulty_workers(monkeypatch, "if number == 1: os.kill(os.getpid(), signal.SIGKILL)",
                   ["05-subgradient"])
    assert cli.main(["verify", "--only=05-"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL 05-subgradient: the worker running it exited with code -%d" % signal.SIGKILL]
    assert len(workers) == 2
    assert_none_left(workers)


def test_verify_runs_the_parts_of_one_check_on_two_workers(workers, monkeypatch, capsys):
    faulty_workers(monkeypatch, "pass", [("16-clt", 0), ("16-clt", 1)])
    assert cli.main(["verify", "--only", "clt"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS 16-clt"]
    assert len(workers) == 2
    assert_none_left(workers)


def test_verify_workers_run_one_blas_thread(workers, monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")
    faulty_workers(monkeypatch, "assert [os.environ[v] for v in ('OPENBLAS_NUM_THREADS', "
                   "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')] == ['1'] * 3", LOWER_BOUNDS)
    assert cli.main(["verify", "--only", "lower-bound"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS " + cid for cid in LOWER_BOUNDS]
    assert_none_left(workers)


def test_verify_output_of_a_check_in_a_worker_goes_to_stderr(workers, monkeypatch, capfd):
    faulty_workers(monkeypatch, "print('noise'); os.write(1, b'fd noise\\n')", LOWER_BOUNDS)
    assert cli.main(["verify", "--only", "lower-bound"]) == 0
    out, err = capfd.readouterr()
    assert out.splitlines() == ["PASS " + cid for cid in LOWER_BOUNDS]
    assert err.count("noise") == 4
    assert_none_left(workers)


def test_verify_interrupted_leaves_no_worker(workers, monkeypatch):
    # check 08 interrupts verify, then would run for a minute
    faulty_workers(monkeypatch, "os.kill(os.getppid(), signal.SIGINT); time.sleep(60)",
                   [LOWER_BOUNDS[1]])
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify", "--only", "lower-bound"])
    finally:
        signal.signal(signal.SIGINT, handler)
    assert time.monotonic() - started < 30
    assert len(workers) == 2
    assert_none_left(workers)


def test_importing_the_cli_loads_no_process_machinery():
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, convexkit.cli; print([m for m in ('subprocess', 'multiprocessing', "
            "'concurrent.futures', 'selectors') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=root),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, text in (("quad.prob", QUAD), ("lasso.prob", LASSO)):
        (d / name).write_text(text)
        paths.append(str(d / name))
    return paths


def _finite_or_empty(field):
    return field == "" or math.isfinite(float(field))


@settings(max_examples=60, deadline=None)
@given(algo=st.sampled_from(solver_names()), which=st.integers(0, 1),
       step=st.floats(-1e3, 1e3).filter(lambda h: h != 0.0),
       iters=st.integers(-2, 40) | st.integers(cli.MAX_ITERS + 1, 10 ** 18))
def test_fuzz_run_exit_codes_and_pure_csv(fuzz_files, algo, which, step, iters):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--problem", fuzz_files[which], "--algo", algo,
                         "--step=%r" % step, "--iters=%d" % iters])
    assert code in (0, 1, 2, 3)
    if iters > cli.MAX_ITERS:
        assert code == 2 and out.getvalue() == ""
    if code == 0:
        lines = out.getvalue().split("\n")
        assert lines[0] == "iter,value,gap,grad_norm,time_s"
        assert lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert [int(r[0]) for r in rows] == list(range(iters + 1))
        assert all(len(r) == 5 and all(_finite_or_empty(v) for v in r[1:]) for r in rows)


@pytest.fixture(scope="module")
def stepless_fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz-no-step")
    paths = []
    for name, text in (("quad.prob", QUAD), ("lasso.prob", LASSO), ("zero.prob", ZERO)):
        (d / name).write_text(text)
        paths.append(str(d / name))
    return paths


@settings(max_examples=60, deadline=None)
@given(algo=st.sampled_from(solver_names()), which=st.integers(0, 2),
       iters=st.integers(-2, 40))
def test_fuzz_run_without_step_exit_codes_and_pure_csv(stepless_fuzz_files, algo, which,
                                                        iters):
    code, out, _ = _run(["run", "--problem", stepless_fuzz_files[which], "--algo", algo,
                         "--iters=%d" % iters])
    assert code in ((0, 1, 2, 3) if which < 2 else (0, 2, 3))
    if code == 0:
        lines = out.split("\n")
        assert lines[0] == "iter,value,gap,grad_norm,time_s"
        assert lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert [int(r[0]) for r in rows] == list(range(iters + 1))
        assert all(len(r) == 5 and all(_finite_or_empty(v) for v in r[1:]) for r in rows)


INTEGER_FIELDS = [  # (file text, field, its value in the text, minimum)
    (QUAD, "dim", "2", 1),
    (LASSO, "rows", "4", 1),
    (LASSO, "dim", "2", 1),
]


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(INTEGER_FIELDS),
       value=st.one_of(st.integers(-3, 10), st.floats(allow_nan=True, allow_infinity=True)))
def test_fuzz_integer_fields_exit_codes(tmp_path_factory, case, value):
    text, field, old, minimum = case
    p = tmp_path_factory.mktemp("intfuzz") / "f.prob"
    p.write_text(text.replace("%s %s\n" % (field, old), "%s %r\n" % (field, value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"])
    assert code in (0, 1, 2, 3)
    v = float(value)
    if not (math.isfinite(v) and v == int(v) and v >= minimum):
        assert code == 2 and "must be an integer" in err.getvalue()


FIELDS_BY_KIND = {  # kind -> (field, a valid value) in file order
    "quadratic": [("dim", "2"), ("A", "2 0 0 1"), ("b", "1 1")],
    "least-squares": [("rows", "3"), ("dim", "2"), ("X", "1 0 0 1 1 1"), ("Y", "1 2 3")],
    "logistic": [("rows", "3"), ("dim", "2"), ("X", "1 0 0 1 1 1"), ("Y", "0 1 1")],
    "lasso": [("rows", "3"), ("dim", "2"), ("X", "1 0 0 1 1 1"), ("Y", "1 2 3"), ("lam", "0.1")],
    "svm": [("rows", "3"), ("dim", "2"), ("X", "1 0 0 1 1 1"), ("Y", "1 -1 1"), ("lam", "0.1")],
    "worst-case-smooth": [("beta", "1"), ("dim", "3")],
    "worst-case-nonsmooth": [("steps", "8"), ("L", "1"), ("R", "1")],
}
FLOAT_FIELDS = [(kind, field) for kind, fields in FIELDS_BY_KIND.items()
                for field, _ in fields if field in ("A", "b", "X", "Y", "lam", "beta", "L", "R")]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, field", FLOAT_FIELDS, ids=["-".join(kf) for kf in FLOAT_FIELDS])
def test_run_non_finite_float_field_exit_2(tmp_path, kind, field, bad):
    def write(bad_field):
        lines = ["kind " + kind] + [
            "%s %s" % (f, " ".join([bad] + v.split()[1:]) if f == bad_field else v)
            for f, v in FIELDS_BY_KIND[kind]]
        p = tmp_path / "f.prob"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    argv = ["--algo", "cg" if kind == "quadratic" else "gd", "--iters", "3"]  # cg wrote nan rows
    if cli.parse_problem_file(write(None)).beta == math.inf:  # gd has no default step
        argv += ["--step", "0.1"]
    assert _run(["run", "--problem", write(None)] + argv)[0] == 0
    code, out, err = _run(["run", "--problem", write(field)] + argv)
    assert code == 2 and out == ""
    assert "field %r holds a non-finite number" % field in err


@pytest.fixture(scope="module")
def kind_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("kinds")
    for kind, fields in FIELDS_BY_KIND.items():
        (d / kind).write_text("\n".join(["kind " + kind] + ["%s %s" % fv for fv in fields]) + "\n")
    return {kind: str(d / kind) for kind in FIELDS_BY_KIND}


# every 20th power of ten from 1e-300, and the largest steps
STEP_GRID = [10.0 ** k for k in range(-300, 301, 20)] + [1e308, sys.float_info.max]


@pytest.mark.parametrize("algo", solver_names())
def test_every_step_ends_in_a_documented_outcome(kind_files, algo):
    # numpy's overflow warnings escaped ahead of the divergence guard: gd's, ista's
    # and pgd's on every file kind from step 1e200 (on logistic from 1e10), ppm's at 1e308
    for (kind, path), step in itertools.product(kind_files.items(), STEP_GRID):
        code, out, err = _run(["run", "--problem", path, "--algo", algo, "--iters", "5",
                               "--step=%r" % step])
        case = (kind, step, code, err)
        if code == 0:
            lines = out.splitlines()
            assert [int(r.split(",")[0]) for r in lines[1:]] == list(range(6)), case
            assert all(_finite_or_empty(v) for r in lines[1:] for v in r.split(",")), case
            continue
        assert out == "", case
        if code == 1:
            assert err.startswith("error: DivergenceError: iterate diverged"), case
        elif code == 2:
            assert err == "error: algorithm %s takes no step\n" % algo, case
        else:
            assert code == 3 and err.startswith("capability error: "), case
            assert " lacks the " in err or " needs a problem declared on " in err, case


def test_run_problem_file_not_utf8_exit_2(tmp_path):
    p = tmp_path / "f.prob"
    p.write_bytes(QUAD.encode().replace(b"b 1 1", b"b 1 \xff"))
    code, out, err = _run(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"])
    assert code == 2 and out == "" and "not UTF-8" in err


@pytest.fixture(scope="module")
def bytes_file(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes") / "f.prob"


@settings(max_examples=100, deadline=None)
@given(head=st.sampled_from([b"", b"kind quadratic\ndim 2\n", QUAD.encode()]),
       tail=st.binary(max_size=48))
def test_fuzz_problem_file_bytes_exit_codes(bytes_file, head, tail):
    bytes_file.write_bytes(head + tail)
    argv = ["run", "--problem", str(bytes_file), "--algo", "gd", "--iters", "3"]
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    assert code == 0 or out == ""
    with mock.patch.object(cli, "PIECE", 3):  # every line read in 3-character pieces
        code3, out3, err3 = _run(argv)
    assert (code3, out3, _timeless(err3)) == (code, out, _timeless(err))


def _timeless(err):
    return [line for line in err.splitlines() if not line.startswith("wall time")]


@pytest.mark.parametrize("algo", ["gd", "agd", "cg"])
def test_run_large_optimum_is_not_divergence(tmp_path, algo):
    # f* = -4e12 is reached from 0 in one step; a guard scaled only by the
    # value at x0 = 0 called that step a divergence
    p = tmp_path / "f.prob"
    p.write_text("kind quadratic\ndim 2\nA 1 0 0 1\nb 2e6 2e6\n")
    code, out, err = _run(["run", "--problem", str(p), "--algo", algo, "--iters", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "3,-4000000000000,0,0,0"
    assert "final value -4000000000000 gap 0" in err


def test_run_md_large_gradient_does_not_overflow():
    # h |grad| is about 1400 here, so exp of the unshifted dual vector overflowed;
    # the symmetric problem keeps every iterate at the uniform point. No file
    # kind declares the simplex, so the quadratic is declared on it here.
    q = problems.make_quadratic(np.eye(2), np.array([2e3, 2e3]))
    on_simplex = ProblemOracle(2, q.value, q.gradient, L=1.0, domain=Simplex())  # step 0.68
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_solver(on_simplex, "md", 3)
    assert trace.values().tolist() == [-1999.75] * 4  # f(1/2, 1/2)


@pytest.mark.parametrize("algo, domain", [("md", "the simplex"), ("psd", "a ball")])
def test_run_md_and_psd_need_a_declared_domain(quad_file, algo, domain):
    # md ran on the simplex and psd on the unit ball whatever the problem, and
    # ended at gaps 0.083 and 0.0094 with exit 0 on this quadratic
    code, out, err = _run(["run", "--problem", quad_file, "--algo", algo, "--iters", "2000"])
    assert code == 3 and out == ""
    assert "%s needs a problem declared on %s" % (algo, domain) in err
    assert "declares no domain" in err


def test_run_psd_projects_onto_the_declared_ball(tmp_path):
    p = tmp_path / "f.prob"
    p.write_text("kind worst-case-nonsmooth\nsteps 9\nL 2\nR 0.7\n")
    code, out, _ = _run(["run", "--problem", str(p), "--algo", "psd", "--iters", "30"])
    assert code == 0
    w = problems.make_worst_case_nonsmooth(9, 2.0, 0.7)
    ball = lambda z: nonsmooth.project_ball(z, np.zeros(10), 0.7)
    assert out == nonsmooth.run_psd(w, ball, 0.7 / math.sqrt(30), np.zeros(10), 30).to_csv()


@pytest.mark.parametrize("text", [SVM, "kind worst-case-nonsmooth\nsteps 8\nL 2\nR 0.7\n"],
                         ids=["svm", "worst-case-nonsmooth"])
@pytest.mark.parametrize("step", ["1e200", "1e308"])
def test_run_psd_huge_step_ends_finite_or_diverged(tmp_path, text, step):
    # h / ||p|| overflowed to inf and inf * 0 gave NaN entries (NumericalError, exit 1),
    # and the projection of a point beyond 1e154 returned the centre, with warnings
    p = tmp_path / "f.prob"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(["run", "--problem", str(p), "--algo", "psd", "--step", step,
                               "--iters", "20"])
    if code == 1:
        assert "DivergenceError" in err and out == ""
        return
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 21
    assert all(math.isfinite(float(cell)) for row in rows for cell in row if cell != "")


# --- the number reader ---------------------------------------------------------

_DIGITS = st.text("0123456789", max_size=4)
_DECIMAL = st.builds(  # sign, digits, an optional dot and fraction, an optional exponent
    lambda sign, whole, dot, frac, exp: sign + whole + dot + frac + exp,
    st.sampled_from(["", "+", "-"]), _DIGITS, st.sampled_from(["", "."]), _DIGITS,
    st.one_of(st.just(""), st.builds(lambda e, s, d: e + s + d, st.sampled_from("eE"),
                                     st.sampled_from(["", "+", "-"]), _DIGITS)))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TOKEN = st.one_of(
    _DECIMAL,
    _FINITE.map(lambda v: "%.17g" % v),
    _FINITE.map(lambda v: "%+.16e" % v),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity", "-Infinity",
                     "INF", "1e400", "-1e-400", "4.9e-324", "x", "1x", "--1", "0x10"]))
_SEP = st.sampled_from([" ", "\t", "\n", "  ", " \t\n"])


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(_TOKEN, min_size=1, max_size=12),
       seps=st.lists(_SEP, min_size=11, max_size=11),
       ends=st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "\n"])))
def test_numbers_match_per_token_float(tokens, seps, ends):
    text = ends[0] + tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:])) + ends[1]
    try:
        want = np.array([float(t) for t in text.split()])
    except ValueError:
        want = None
    blank = want is not None and not want.size
    line = "A " + text
    for size in (len(line), 3):  # the line as one piece, and in 3-character pieces
        try:
            got = cli._numbers(dict([cli._field(_in_pieces(line, size))]), "A", finite=False)
        except InvalidInput as exc:
            assert ("has no value" if blank else "non-numeric") in str(exc)
            got = None
        assert (got is None) == (want is None or blank), (text, size)
        if got is not None:
            # every nan is equal here: "-nan" reads as a nan without its sign bit,
            # and no field accepts a nan
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes(), (text, size)


def _in_pieces(text, size):
    return (text[i:i + size] for i in range(0, len(text), size))


@pytest.mark.parametrize("token, message", [
    ("1_0", "non-numeric data"),  # float() accepts underscores between digits
    ("\uff11", "non-numeric data"),  # a fullwidth digit
    ("\u0663", "non-numeric data"),  # an Arabic-Indic digit
    ("1\u00a01", "non-numeric data"),  # a no-break space between two numbers
    ("1\u20031", "non-numeric data"),  # an em space
    ("1\x1f1", "non-numeric data"),  # str.split() reads the ASCII separators 0x1c-0x1f as space
    ("nan(12)", "a non-finite number"),  # read as a nan, which no float field accepts
    ("1-2", "non-numeric data"),  # the rest were rejected before too
    ("1.5.5", "non-numeric data"),
    ("1,2", "non-numeric data"),
    ("0x1p3", "non-numeric data"),
])
def test_run_token_outside_the_format_exit_2(tmp_path, token, message):
    p = tmp_path / "f.prob"
    p.write_text("kind quadratic\ndim 2\nA 1 0 0 1\nb 1 %s\n" % token, encoding="utf-8")
    code, out, err = _run(["run", "--problem", str(p), "--algo", "gd", "--iters", "3"])
    assert code == 2 and out == ""
    assert "field 'b' holds %s" % message in err


def test_numbers_bad_token_under_old_numpy(monkeypatch):
    # numpy < 2 warns and returns the numbers before a bad token instead of raising
    def fromstring(text, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.0])

    monkeypatch.setattr(np, "fromstring", fromstring)
    with pytest.raises(InvalidInput, match="non-numeric"):
        cli._numbers(dict([cli._field(iter(["b 1 x"]))]), "b", 1)


def test_parse_memory_is_a_few_bytes_per_text_byte(tmp_path):
    rows, dim = 2000, 100  # 200k numbers: ten random rows, written 200 times over
    rng = np.random.default_rng(5)
    block, Y = rng.standard_normal((10, dim)), rng.standard_normal(rows)
    X = np.tile(block, (rows // 10, 1))
    p = tmp_path / "ls.prob"
    p.write_text("kind least-squares\nrows %d\ndim %d\nX%s\nY %s\n"
                 % (rows, dim, (" " + " ".join(map(repr, block.ravel().tolist()))) * (rows // 10),
                    " ".join(map(repr, Y.tolist()))))
    size = p.stat().st_size
    tracemalloc.start()
    try:
        q = cli.parse_problem_file(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q.design.X, X)
    # the line, its value text and the array; one str and one float per
    # number took about 6 bytes per byte of text
    assert peak < 3 * size, (peak, size)


def _parsed(path):
    """cli._parse_fields(path) with arrays as bytes, or its InvalidInput message."""
    try:
        fields = cli._parse_fields(path)
    except InvalidInput as exc:
        return str(exc)
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in fields.items()}


def _array(*values):
    return np.array(values, dtype=float).tobytes()


PIECE_CASES = {  # file bytes, what _parse_fields makes of them
    "token split across pieces": (
        b"kind quadratic\ndim 2\nA 2.5e+00 -0 0 1.0625\nb -1.25e-3 7\n",
        {"kind": "quadratic", "dim": _array(2), "A": _array(2.5, -0.0, 0, 1.0625),
         "b": _array(-1.25e-3, 7)}),
    "comment starting in a later piece": (
        b"kind quadratic # sample\ndim 2\nA 2 0 0 1 # 7 7 7\nb 1 1#x\n# 3 3\n",
        {"kind": "quadratic", "dim": _array(2), "A": _array(2, 0, 0, 1), "b": _array(1, 1)}),
    "key longer than a piece": (
        b"dimension_of_the_problem 12 13\nkind svm\n",
        {"dimension_of_the_problem": _array(12, 13), "kind": "svm"}),
    "crlf split across pieces": (
        b"kind lasso\r\nlam 0.5\r\nY 1 2\r\n\r\nX 3\r\n",
        {"kind": "lasso", "lam": _array(0.5), "Y": _array(1, 2), "X": _array(3)}),
    "all-whitespace pieces": (
        b"b          1  \t\t\t\t\t\t\t\t  2                 \nA                    \t  \n",
        "problem file line 'A' has no value"),
    "spaces then a number": (
        b"b                 \t\t\t\t 3.5e1     \nkind  \t\v\f  svm  \n",
        {"b": _array(35), "kind": " \t\x0b\x0c  svm"}),
    "line with no value": (
        b"kind quadratic\n   dim\t \t  # 4\n", "problem file line 'dim' has no value"),
    "line with no space": (
        b"kind quadratic\ndim\t4\n", "problem file line 'dim\\t4' has no value"),
    "repeated field": (
        b"kind quadratic\nb 1 1\n  b   2 2\n", "problem file repeats field 'b'"),
    "non-numeric token in a field nothing reads": (
        b"kind worst-case-smooth\nname my problem\nsteps 8\nbad 1 2 3 x 4 5 6 7 8\n",
        {"kind": "worst-case-smooth", "name": None, "steps": _array(8), "bad": None}),
    "non-ASCII whitespace before the numbers": (
        "b \u00a0 1 2\nA  \t  3 4\n".encode(),
        {"b": None, "A": _array(3, 4)}),
    "non-ASCII whitespace after the numbers": (
        "b 1 2\u00a0\u2003 \nA 1 2\u00a0 3\n".encode(),
        {"b": _array(1, 2), "A": None}),
}


@pytest.mark.parametrize("case", PIECE_CASES)
def test_parse_is_the_same_at_every_piece_size(tmp_path, monkeypatch, case):
    data, want = PIECE_CASES[case]
    p = tmp_path / "f.prob"
    p.write_bytes(data)
    assert _parsed(str(p)) == want
    for size in range(1, 9):
        monkeypatch.setattr(cli, "PIECE", size)
        assert _parsed(str(p)) == want, size


def test_parse_memory_stays_under_the_file_size(tmp_path):
    # no field's text outlives its line, and no string is longer than about
    # one piece; what is left is X, in its pieces and joined. X is written
    # with tabs, so that pieces must be cut at separators other than space.
    rows, dim = 6000, 100
    rng = np.random.default_rng(6)
    block, Y = rng.standard_normal((10, dim)), rng.standard_normal(rows)
    p = tmp_path / "ls.prob"
    p.write_text("kind least-squares\nrows %d\ndim %d\nX %s\nY %s\n"
                 % (rows, dim, "\t".join(map(repr, block.ravel().tolist() * (rows // 10))),
                    " ".join(map(repr, Y.tolist()))))
    size = p.stat().st_size
    assert size >= 8e6
    tracemalloc.start()
    try:
        q = cli.parse_problem_file(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q.design.X, np.tile(block, (rows // 10, 1)))
    assert peak < size, (peak, size)
