"""Output checks: proven rate bounds, trace shape, byte stability, LP optima.

Each check raises CheckFailed with a message naming what was wrong. The
references they compare against come from inputs.py (numpy/scipy), never
from stored copies of convexkit's output. selftest.py shows that every check
rejects a wrong answer.
"""

import math


class CheckFailed(Exception):
    pass


def tol_for(f_star):
    """Absolute slack for float64 rounding in value - f*."""
    return 1e-9 * (1.0 + abs(f_star))


def csv_values(csv_text, budget):
    """The value column of a trace CSV; requires iters 0..budget, all values finite."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "iter,value,gap,grad_norm,time_s":
        raise CheckFailed("trace CSV has no header")
    rows = lines[1:]
    if len(rows) != budget + 1:
        raise CheckFailed("trace has %d rows, expected budget+1 = %d" % (len(rows), budget + 1))
    values = []
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != 5 or cells[0] != str(i):
            raise CheckFailed("trace row %d is malformed: %r" % (i, row))
        v = float(cells[1])
        if not math.isfinite(v):
            raise CheckFailed("trace row %d has a non-finite value %r" % (i, cells[1]))
        values.append(v)
    return values


def same_bytes(label, first, again):
    if first != again:
        raise CheckFailed("%s: two runs of the same solve gave different to_csv() bytes" % label)


def gap_bound(label, value, f_star, bound):
    """f* - tol <= value <= f* + bound + tol."""
    gap = value - f_star
    tol = tol_for(f_star)
    if not gap <= bound + tol:
        raise CheckFailed("%s: gap %.6g exceeds its proven bound %.6g" % (label, gap, bound))
    if not gap >= -tol:
        raise CheckFailed("%s: value %.17g is below the reference optimum %.17g" % (label, value, f_star))


def at_least(label, value, f_star):
    """The value cannot beat the reference optimum."""
    if not value - f_star >= -tol_for(f_star):
        raise CheckFailed("%s: value %.17g is below the reference optimum %.17g" % (label, value, f_star))


def matches(label, got, want):
    """A value the program reports equals the benchmark's own evaluation."""
    if not abs(got - want) <= tol_for(want):
        raise CheckFailed("%s: program value %.17g differs from the reference %.17g" % (label, got, want))


def decreased(label, values):
    if not values[-1] < values[0]:
        raise CheckFailed("%s: final value %.17g did not improve on %.17g" % (label, values[-1], values[0]))


def monotone(label, values):
    for i in range(1, len(values)):
        if values[i] > values[i - 1] + tol_for(values[i - 1]):
            raise CheckFailed("%s: value rose at step %d" % (label, i))


# --- proven bounds (x0 = 0, R = ||x0 - x*||) ----------------------------------

def gd_bound(beta, R, N):
    return beta * R * R / (2.0 * N)


def agd_bound(beta, R, N):
    return 2.0 * beta * R * R / (N * N)


def cg_bound(kappa, gap0, n):
    """f(x_n) - f* <= 4 ((sqrt k - 1)/(sqrt k + 1))^(2n) (f(x_0) - f*)."""
    s = math.sqrt(kappa)
    return 4.0 * ((s - 1.0) / (s + 1.0)) ** (2 * n) * gap0


def psd_bound(L, R, N):
    return L * R / math.sqrt(N)


def psd_strong_bound(L, R, alpha, N):
    """(n+1)-weighted averaging with h_n = 2/(alpha(n+1)) over a ball of radius R."""
    return (2.0 * L * L / alpha + 4.0 * L * R) / (N + 1.0)


def fw_bound(beta, D, N):
    return 2.0 * beta * D * D / (N + 1.0)


def md_bound(L, d, N):
    return L * math.sqrt(8.0 * math.log(d) / N)


def ppm_bound(R, h, N):
    return R * R / (2.0 * h * N)


# --- workload-level checks ---------------------------------------------------

def verify_output(code, stdout, ids):
    if code != 0:
        raise CheckFailed("convexkit verify exited %r" % (code,))
    passed = [line.split(" ", 1)[1] for line in stdout.splitlines() if line.startswith("PASS ")]
    if sorted(passed) != sorted(ids) or len(stdout.splitlines()) != len(ids):
        raise CheckFailed("convexkit verify did not print PASS for exactly the %d checks: %r"
                          % (len(ids), stdout))


def lp_solution(label, x, value, lp, eps):
    A, b, c = lp["A"], lp["b"], lp["c"]
    if not all(math.isfinite(v) for v in x):
        raise CheckFailed("%s: non-finite LP solution" % label)
    slack = b - A @ x
    if not float(slack.min()) > 0.0:
        raise CheckFailed("%s: LP solution violates A x < b (min slack %.3g)" % (label, slack.min()))
    if abs(float(c @ x) - value) > 1e-12 * (1.0 + abs(value)):
        raise CheckFailed("%s: reported value is not <c, x>" % label)
    if not abs(value - lp["value"]) <= eps:
        raise CheckFailed("%s: LP value %.12g differs from HiGHS %.12g by more than %g"
                          % (label, value, lp["value"], eps))
