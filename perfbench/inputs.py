"""Seeded inputs for every workload, with references computed apart from convexkit.

Everything here uses numpy and scipy only. The program receives the arrays
(or the problem files written from them); the references (f*, x*, smoothness
and Lipschitz constants, LP optima) never come from convexkit.

The benchmark builds a workload's inputs in a child process, so that scipy and
the reference arrays never count in the measured process's memory:

    python3 perfbench/inputs.py --workload solve-large --seed 1 --dir perfbench/data/seed-1

writes the workload's payload (plain arrays and numbers, see PAYLOADS) to
stdout as a pickle; `solve-large` also writes its problem files into --dir.
"""

import argparse
import math
import os
import pickle
import sys

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

SMALL_D = 5
LARGE_D = 1000
LARGE_ROWS = {"least-squares": 600, "logistic": 600, "lasso": 600}
LP_SHAPE = (100, 10)  # m constraints, d variables
LP_POOL = 3  # LPs per round of the lp workload
LP_EPS = 1e-6


def rng_for(seed, stream):
    """Independent generator per (seed, input family)."""
    return np.random.default_rng([int(seed), stream])


# --- reference solutions ----------------------------------------------------

def quadratic_ref(A, b):
    """f(x) = 1/2 <x, A x> - <b, x> with A symmetric positive definite."""
    evals = scipy.linalg.eigvalsh(A)
    x_star = scipy.linalg.solve(A, b, assume_a="pos")
    return {"alpha": float(evals[0]), "beta": float(evals[-1]), "x_star": x_star,
            "f_star": -0.5 * float(b @ x_star),
            "value": lambda x: 0.5 * float(x @ (A @ x)) - float(b @ x)}


def plain(ref, **points):
    """ref without its value closure, plus value_<name> = f(point) for each point."""
    out = {k: v for k, v in ref.items() if k != "value"}
    out.update(("value_" + name, ref["value"](x)) for name, x in points.items())
    return out


def random_quadratic(rng, d, lo=1.0, hi=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = Q @ np.diag(rng.uniform(lo, hi, size=d)) @ Q.T
    return 0.5 * (A + A.T), rng.standard_normal(d)


def least_squares_ref(X, Y):
    n = X.shape[0]
    x_star = scipy.linalg.lstsq(X, Y)[0]
    r = X @ x_star - Y
    return {"beta": float(scipy.linalg.eigvalsh(X.T @ X / n)[-1]),
            "x_star": x_star, "f_star": 0.5 * float(r @ r) / n,
            "value": lambda th: 0.5 * float((X @ th - Y) @ (X @ th - Y)) / n}


def logistic_ref(X, Y):
    """Comparison point u for the logistic loss (its infimum may not be attained).

    The GD and AGD bounds hold against any point u, so u need not be optimal.
    """
    n = X.shape[0]

    def fun(th):
        z = X @ th
        return float(np.mean(np.logaddexp(0.0, z) - Y * z)), X.T @ (scipy.special.expit(z) - Y) / n

    res = scipy.optimize.minimize(fun, np.zeros(X.shape[1]), jac=True, method="L-BFGS-B",
                                  options={"maxiter": 200})
    return {"beta": float(scipy.linalg.eigvalsh(X.T @ X / (4.0 * n))[-1]),
            "x_star": res.x, "f_star": float(res.fun), "value": lambda th: fun(th)[0],
            "comparison_point": True}


def lasso_ref(X, Y, lam):
    """F* of (1/2n)||X th - Y||^2 + lam ||th||_1 by L-BFGS-B on th = u - v, u, v >= 0."""
    n, d = X.shape

    def fun(uv):
        th = uv[:d] - uv[d:]
        r = X @ th - Y
        g = X.T @ r / n
        return 0.5 * float(r @ r) / n + lam * float(np.sum(uv)), np.concatenate([g + lam, lam - g])

    res = scipy.optimize.minimize(fun, np.zeros(2 * d), jac=True, method="L-BFGS-B",
                                  bounds=[(0.0, None)] * (2 * d),
                                  options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12})
    x_star = res.x[:d] - res.x[d:]

    def value(th):
        r = X @ th - Y
        return 0.5 * float(r @ r) / n + lam * float(np.sum(np.abs(th)))

    return {"beta": float(scipy.linalg.eigvalsh(X.T @ X / n)[-1]), "x_star": x_star,
            "f_star": value(x_star), "value": value}


def simplex_min(A, b):
    """min of 1/2 <x,Ax> - <b,x> over the simplex by enumerating supports."""
    d = b.size
    best = np.inf
    for mask in range(1, 2 ** d):
        S = [i for i in range(d) if mask >> i & 1]
        K = np.zeros((len(S) + 1, len(S) + 1))
        K[:-1, :-1] = A[np.ix_(S, S)]
        K[:-1, -1] = K[-1, :-1] = 1.0
        sol = np.linalg.solve(K, np.concatenate([b[S], [1.0]]))
        if np.all(sol[:-1] >= 0.0):
            x = np.zeros(d)
            x[S] = sol[:-1]
            best = min(best, 0.5 * float(x @ (A @ x)) - float(b @ x))
    return best



# --- solve-small (d = 5) ----------------------------------------------------

def small_data(seed):
    """Arrays for the d = 5 pass: a quadratic, a lasso and a finite-sum least squares."""
    rng = rng_for(seed, 1)
    A, b = random_quadratic(rng, SMALL_D)
    X = rng.standard_normal((20, SMALL_D))
    Y = X @ rng.standard_normal(SMALL_D) + 0.3 * rng.standard_normal(20)
    lam = 0.1 * float(np.max(np.abs(X.T @ Y))) / X.shape[0]
    Xs = rng.standard_normal((8, SMALL_D))
    Ys = Xs @ rng.standard_normal(SMALL_D) + 0.3 * rng.standard_normal(8)
    return {"A": A, "b": b, "X": X, "Y": Y, "lam": lam, "Xs": Xs, "Ys": Ys}


def small_payload(seed):
    """The d = 5 arrays, the start points and the references at them."""
    data = small_data(seed)
    x0 = rng_for(seed, 4).standard_normal(SMALL_D)
    simplex0 = np.full(SMALL_D, 1.0 / SMALL_D)
    return {"data": data, "x0": x0, "simplex0": simplex0,
            "quadratic": plain(quadratic_ref(data["A"], data["b"]), x0=x0, simplex0=simplex0),
            "lasso": plain(lasso_ref(data["X"], data["Y"], data["lam"]), x0=x0),
            "finite-sum": plain(least_squares_ref(data["Xs"], data["Ys"]), x0=x0),
            "simplex_f_star": simplex_min(data["A"], data["b"])}


# --- solve-large (d = 1000, problem files) ------------------------------------

def large_data(seed):
    """Quadratic, least-squares, logistic and lasso data at d = LARGE_D."""
    rng = rng_for(seed, 2)
    d = LARGE_D
    G = rng.standard_normal((d, d))
    A = G @ G.T / (2.0 * d) + 0.5 * np.eye(d)
    A = 0.5 * (A + A.T)
    out = {"quadratic": {"A": A, "b": rng.standard_normal(d)}}
    theta = rng.standard_normal(d) / math.sqrt(d)
    for kind, rows in LARGE_ROWS.items():
        X = rng.standard_normal((rows, d)) / math.sqrt(d) * 3.0
        z = X @ theta
        if kind == "logistic":
            Y = (rng.uniform(size=rows) < scipy.special.expit(z)).astype(float)
        else:
            Y = z + 0.1 * rng.standard_normal(rows)
        out[kind] = {"X": X, "Y": Y}
    Xl, Yl = out["lasso"]["X"], out["lasso"]["Y"]
    out["lasso"]["lam"] = 0.1 * float(np.max(np.abs(Xl.T @ Yl))) / Xl.shape[0]
    return out


def large_refs(data):
    return {"quadratic": quadratic_ref(data["quadratic"]["A"], data["quadratic"]["b"]),
            "least-squares": least_squares_ref(data["least-squares"]["X"], data["least-squares"]["Y"]),
            "logistic": logistic_ref(data["logistic"]["X"], data["logistic"]["Y"]),
            "lasso": lasso_ref(data["lasso"]["X"], data["lasso"]["Y"], data["lasso"]["lam"])}


def large_payload(seed, directory):
    """Writes the d = LARGE_D problem files; their paths and sizes, and the references."""
    data = large_data(seed)
    x0 = np.zeros(LARGE_D)
    refs = {kind: plain(ref, x0=x0) for kind, ref in large_refs(data).items()}
    paths = write_large_files(data, directory)
    return {"paths": paths, "refs": refs,
            "mb": {kind: os.path.getsize(path) / 1e6 for kind, path in paths.items()}}


def _fixed(v):
    """17 significant digits (round-trips every float) at a fixed width, so every
    seed's files have the same size and parse with the same allocations."""
    return "%+.16e" % v


def _write_numbers(fh, key, arr):
    fh.write(key)
    for row in np.atleast_2d(arr):
        fh.write(" ")
        fh.write(" ".join(map(_fixed, row.tolist())))
    fh.write("\n")


def write_problem_file(path, kind, fields):
    """Write `fields` in the `convexkit run` problem-file format."""
    with open(path, "w") as fh:
        fh.write("# generated by perfbench\nkind %s\n" % kind)
        if kind == "quadratic":
            fh.write("dim %d\n" % fields["b"].size)
            _write_numbers(fh, "A", fields["A"])
            _write_numbers(fh, "b", fields["b"])
            return
        X = fields["X"]
        fh.write("rows %d\ndim %d\n" % X.shape)
        _write_numbers(fh, "X", X)
        _write_numbers(fh, "Y", fields["Y"])
        if kind == "lasso":
            fh.write("lam %s\n" % _fixed(fields["lam"]))


def write_large_files(data, directory):
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for kind, fields in data.items():
        paths[kind] = os.path.join(directory, kind + ".prob")
        write_problem_file(paths[kind], kind, fields)
    return paths


# --- lp -------------------------------------------------------------------------

def random_lp(rng, m, d):
    """Bounded LP {Ax <= b}: +-e_i box rows plus random unit rows, 0 strictly inside."""
    rows = [s * np.eye(d)[i] for i in range(d) for s in (1.0, -1.0)]
    V = rng.standard_normal((m - 2 * d, d))
    A = np.vstack(rows + [V / np.linalg.norm(V, axis=1, keepdims=True)])
    b = rng.uniform(0.5, 1.5, size=m)
    c = rng.standard_normal(d)
    return A, b, c / np.linalg.norm(c), np.zeros(d)


def lp_pool(seed):
    rng = rng_for(seed, 3)
    pool = []
    for _ in range(LP_POOL):
        A, b, c, x0 = random_lp(rng, *LP_SHAPE)
        ref = scipy.optimize.linprog(c, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
        if ref.status != 0:
            raise RuntimeError("HiGHS failed on a generated LP: %s" % ref.message)
        pool.append({"A": A, "b": b, "c": c, "x0": x0, "value": float(ref.fun)})
    return pool


def lp_payload(seed):
    return {"pool": lp_pool(seed), "eps": LP_EPS}


PAYLOADS = {"solve-small": lambda args: small_payload(args.seed),
            "solve-large": lambda args: large_payload(args.seed, args.dir),
            "lp": lambda args: lp_payload(args.seed)}


def main():
    parser = argparse.ArgumentParser(description="Write one workload's inputs as a pickle.")
    parser.add_argument("--workload", required=True, choices=sorted(PAYLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", help="where solve-large writes its problem files")
    args = parser.parse_args()
    if args.workload == "solve-large" and not args.dir:
        parser.error("solve-large needs --dir")
    sys.stdout.buffer.write(pickle.dumps(PAYLOADS[args.workload](args)))


if __name__ == "__main__":
    main()
