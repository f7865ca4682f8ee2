"""Conjugate gradient with its Chebyshev polynomial certificates."""

import math

import numpy as np

from .core import NotPositiveDefinite, as_vector, record


def _residual_value(x, b, r):
    """f(x) = -1/2 <x, b + r> given r = b - Ax; 0.0 - keeps f(0) at +0.0."""
    return 0.0 - 0.5 * float(x @ (b + r))


def cg_solve(A, b, x0=None, N=None, tol=0.0, f_star=None):
    """Conjugate gradient on f(x) = 1/2 <x,Ax> - <b,x>.

    Returns (trace, directions). For tol > 0 the trace ends at the first
    ||r|| <= tol * ||b||; otherwise it has N+1 records, and at an exact
    solution (r = 0) CG stays put. Directions p_0..p_k are kept for the
    orthogonality tests. One A @ p per iteration: the value is
    -1/2 <x, b + r> from the residual r = b - Ax that CG keeps (its
    recurrence, not a fresh A @ x).
    """
    A = np.asanyarray(A, dtype=float)
    b = as_vector(b)
    d = b.size
    if N is None:
        N = d
    if f_star is None:
        try:
            xs = np.linalg.solve(A, b)
            f_star = -0.5 * float(b @ xs)
        except np.linalg.LinAlgError:
            f_star = None
    directions = []
    bnorm = float(np.linalg.norm(b))

    def iterates(x):
        r = b - A @ x
        p = r.copy()
        rr = float(r @ r)
        while True:
            yield x, _residual_value(x, b, r), math.sqrt(rr), {}
            if tol > 0 and math.sqrt(rr) <= tol * bnorm:
                return
            if rr == 0.0:
                continue
            Ap = A @ p
            pAp = float(p @ Ap)
            if pAp <= 0:
                raise NotPositiveDefinite("<p, Ap> = %g <= 0" % pAp)
            directions.append(p.copy())
            step = rr / pAp
            x = x + step * p
            r = r - step * Ap
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new

    trace = record(iterates, np.zeros(d) if x0 is None else x0, N, f_star)
    return trace, directions


def chebyshev_value(n, x):
    """T_n(x) by the three-term recurrence T_{n+1} = 2x T_n - T_{n-1}."""
    t_prev, t = 1.0, float(x)
    if n == 0:
        return t_prev
    for _ in range(n - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


def chebyshev_bound(kappa, n):
    """2 ((sqrt(kappa)-1)/(sqrt(kappa)+1))^n, the CG energy-norm rate."""
    s = math.sqrt(kappa)
    return 2.0 * ((s - 1.0) / (s + 1.0)) ** n


def cg_energy_certificate(A, b, x0=None, N=None):
    """(gap ratio after N CG steps, squared Chebyshev bound); ratio <= bound^2."""
    A = np.asarray(A, dtype=float)
    b = as_vector(b)
    if N is None:
        N = b.size
    evals = np.linalg.eigvalsh(A)
    kappa = evals[-1] / evals[0]
    trace, _ = cg_solve(A, b, x0, N)
    gap0 = trace.gaps()[0]
    gapN = trace.gaps()[-1]
    ratio = 0.0 if gap0 <= 0 else max(gapN, 0.0) / gap0
    bound = chebyshev_bound(kappa, N) ** 2
    return ratio, bound
