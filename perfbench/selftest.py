"""Show that every perfbench output check accepts a right answer and rejects a wrong one.

    python3 perfbench/selftest.py

Right answers come from real convexkit solves on seeded d = 5 inputs; each
wrong answer is the same output with one fault put in: an inflated gap, a
value below the optimum, a dropped or non-finite row, changed bytes, a shifted
LP value, an infeasible LP point, or a failed acceptance check. Exits 1 if a
check lets a fault through or rejects a right answer.
"""

import sys

import run  # pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SEED = 11
problems_seen = []


def expect(label, fn, *args, ok):
    try:
        fn(*args)
        passed = True
    except checks.CheckFailed:
        passed = False
    if passed != ok:
        problems_seen.append(label)
    print("%-4s %s" % ("ok" if passed == ok else "BAD", label))


def corrupt_last(tr, delta):
    """The same trace with its final value (and running average) moved by delta."""
    last = tr.records[-1]
    last["value"] += delta
    if last["gap"] is not None:
        last["gap"] += delta
    if "avg_value" in last["custom"]:
        last["custom"]["avg_value"] += delta
    return tr


def with_value(csv, row, text):
    """csv with the value cell of trace row `row` replaced by `text`."""
    lines = csv.splitlines(True)
    cells = lines[row + 1].split(",")
    cells[1] = text
    lines[row + 1] = ",".join(cells)
    return "".join(lines)


def small_loop_checks(ck):
    payload = inputs.small_payload(SEED)
    probs = workloads.build_small(ck, payload["data"])
    for loop in workloads.small_loops(ck, probs, payload, SEED):
        def run_check(tr, csv, loop=loop):
            values = checks.csv_values(csv, loop.budget)
            checks.matches(loop.name, values[0], loop.x0_value)
            loop.check(tr, values)

        tr = loop.solve()
        csv = tr.to_csv()
        expect(loop.name + ": accepts its trace", run_check, tr, csv, ok=True)
        expect(loop.name + ": rejects an inflated final gap", run_check,
               corrupt_last(loop.solve(), 1e6), corrupt_last(loop.solve(), 1e6).to_csv(), ok=False)
        expect(loop.name + ": rejects a value below f*", run_check,
               corrupt_last(loop.solve(), -1e6), corrupt_last(loop.solve(), -1e6).to_csv(), ok=False)
        expect(loop.name + ": rejects a dropped row", run_check, tr,
               "".join(csv.splitlines(True)[:-1]), ok=False)
        expect(loop.name + ": rejects a non-finite row", run_check, tr,
               with_value(csv, loop.budget, "nan"), ok=False)
        first = float(csv.splitlines()[1].split(",")[1])
        expect(loop.name + ": rejects a wrong value at x0", run_check, tr,
               with_value(csv, 0, repr(first + 1.0)), ok=False)
        expect(loop.name + ": rejects changed bytes", checks.same_bytes, loop.name, csv,
               csv.replace("e-", "E-", 1) if "e-" in csv else csv + " ", ok=False)


def large_checks(ck):
    """large_check on d = 5 stand-ins for the d = 1000 problems, through run_solver."""
    data = inputs.small_data(SEED)
    qref = inputs.quadratic_ref(data["A"], data["b"])
    X, Y = data["X"], data["Y"]
    Yl = (Y > 0).astype(float)
    cases = [
        ("gd", ck.problems.make_quadratic(data["A"], data["b"]), qref),
        ("agd", ck.problems.make_quadratic(data["A"], data["b"]), qref),
        ("cg", ck.problems.make_quadratic(data["A"], data["b"]), qref),
        ("gd", ck.problems.make_least_squares(X, Y), inputs.least_squares_ref(X, Y)),
        ("agd", ck.problems.make_logistic(X, Yl), inputs.logistic_ref(X, Yl)),
        ("ista", ck.problems.make_lasso(X, Y, data["lam"]), inputs.lasso_ref(X, Y, data["lam"])),
        ("fista", ck.problems.make_lasso(X, Y, data["lam"]), inputs.lasso_ref(X, Y, data["lam"])),
    ]
    for algo, prob, ref in cases:
        label = "solve-large %s on %s" % (algo, prob.name)
        values = checks.csv_values(ck.core.run_solver(prob, algo, 5).to_csv(), 5)
        expect(label + ": accepts its trace", workloads.large_check, algo, ref, values, ok=True)
        expect(label + ": rejects an inflated final gap", workloads.large_check, algo, ref,
               values[:-1] + [values[-1] + 1e6], ok=False)
        if algo not in ("gd", "agd") or "comparison_point" not in ref:
            expect(label + ": rejects a value below f*", workloads.large_check, algo, ref,
                   values[:-1] + [ref["f_star"] - 1.0], ok=False)


def lp_checks(ck):
    inst = inputs.lp_pool(SEED)[0]
    x, value, _ = ck.ipm.solve_lp(inst["A"], inst["b"], inst["c"], inst["x0"], inputs.LP_EPS)
    check = checks.lp_solution
    expect("lp: accepts the IPM solution", check, "lp", x, value, inst, inputs.LP_EPS, ok=True)
    expect("lp: rejects a value shifted by 1e-5", check, "lp", x, value + 1e-5, inst,
           inputs.LP_EPS, ok=False)
    far = x + 10.0 * inst["A"][0]
    expect("lp: rejects a point outside A x < b", check, "lp", far, float(inst["c"] @ far), inst,
           inputs.LP_EPS, ok=False)
    wrong_ref = dict(inst, value=inst["value"] - 1e-5)
    expect("lp: rejects a solution 1e-5 from the HiGHS optimum", check, "lp", x, value, wrong_ref,
           inputs.LP_EPS, ok=False)


def verify_checks():
    ids = workloads.VERIFY_IDS
    good = "".join("PASS %s\n" % cid for cid in sorted(ids))
    expect("verify: accepts 18 PASS lines and exit 0", checks.verify_output, 0, good, ids, ok=True)
    expect("verify: rejects exit 1", checks.verify_output, 1, good, ids, ok=False)
    expect("verify: rejects a FAIL line", checks.verify_output, 0,
           good.replace("PASS 04-cg", "FAIL 04-cg: gap"), ids, ok=False)
    expect("verify: rejects a missing check", checks.verify_output, 0,
           good.replace("PASS 16-clt\n", ""), ids, ok=False)


def main():
    ck = run.import_convexkit()
    small_loop_checks(ck)
    large_checks(ck)
    lp_checks(ck)
    verify_checks()
    if problems_seen:
        print("%d checks misjudged: %s" % (len(problems_seen), problems_seen))
        return 1
    print("every check accepted the right answer and rejected each fault")
    return 0


if __name__ == "__main__":
    np.seterr(all="ignore")
    sys.exit(main())
