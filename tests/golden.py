"""Golden sha256 hashes of results that refactors must keep bit-identical.

    PYTHONPATH=src python tests/golden.py     # rewrite tests/golden_traces.json

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
"""

import hashlib
import json
import os
import sys

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


def cases():
    """Every golden case, name -> dict of hashes and counts."""
    return {name: _ipm_case(lp) for name, lp in _ipm_lps()}


def load():
    with open(PATH) as fh:
        return json.load(fh)


def main():
    golden = {"numpy": np.__version__, "cases": cases()}
    with open(PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(golden["cases"]), PATH), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
