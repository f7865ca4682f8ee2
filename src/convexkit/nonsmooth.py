"""Projections, subgradient methods, functional constraints, and the ellipsoid method."""

import itertools
import math

import numpy as np

from .core import (InfeasibleOrBudget, InvalidInput, InvalidSeparator, NoFeasiblePoint,
                   NumericalError, as_vector, norm, record)


def project_ball(x, c, r):
    x = as_vector(x)
    if r <= 0:
        raise InvalidInput("radius must be positive")
    d = x - c
    nd = math.sqrt(np.vdot(d, d))  # np.linalg.norm's value; inf, not a warning, on overflow
    if nd <= r:
        return x.copy()
    if nd == math.inf:  # far from c: scale d by its largest entry first
        d = d / np.max(np.abs(d))
        nd = math.sqrt(d.dot(d))
    return c + (r / nd) * d


def project_box(x, lo, hi):
    x = as_vector(x)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    if np.any(lo > hi):
        raise InvalidInput("need lo <= hi")
    return np.clip(x, lo, hi)


def subgrad_max(components, x):
    """Subgradient of max_i f_i at x: the smallest-index maximizer's subgradient."""
    x = as_vector(x)
    vals = [c.value(x) for c in components]
    i = int(np.argmax(vals))
    return components[i].subgradient(x)


def run_psd(problem, projector, h, x0, N):
    """Projected subgradient descent with normalized steps and iterate averaging.

    x_{n+1} = proj(x_n - h p_n / ||p_n||). The trace's value column is f at the
    running average (custom "raw" holds f at the raw iterate). A zero
    subgradient is exact stationarity: the iterate stays put.
    """
    if h <= 0:
        raise InvalidInput("step must be positive")

    def iterates(x):
        avg = x
        for n in itertools.count():
            raw, p = problem.value_and_grad(x)
            pn = norm(p)
            yield avg, problem.value(avg), pn, {"raw": raw}
            if pn != 0.0:
                t = h / pn  # inf for a huge h: then step h along the unit vector p / pn
                x = projector(x - (t * p if t < math.inf else h * (p / pn)))
                avg = avg + (x - avg) / (n + 2.0)

    return record(iterates, x0, N, problem.f_star)


def run_psd_strong(problem, projector, x0, N):
    """Subgradient method for alpha-strongly convex f: h_n = 2/(alpha(n+1)),
    weighted averaging with weights (n+1). Returns (averaged point, trace)."""
    if problem.alpha <= 0:
        raise InvalidInput("needs a strongly convex problem")
    alpha = problem.alpha

    def iterates(x):
        avg = x
        wsum = 1.0
        for n in itertools.count():
            raw, p = problem.value_and_grad(x)
            yield avg, problem.value(avg), norm(p), {"raw": raw}
            x = projector(x - (2.0 / (alpha * (n + 1))) * p)
            w = n + 2.0
            wsum += w
            avg = avg + (w / wsum) * (x - avg)

    trace = record(iterates, x0, N, problem.f_star)
    return trace.final_point, trace


def run_psd_functional(objective, constraints, projector, eps, x0):
    """Subgradient method with functional constraints f_i <= 0.

    Two-case update: if max_i f_i(x) <= eps take an objective step with
    h = eps/||p||^2, otherwise step on the worst constraint with
    h = f_max(x)/||p||^2. Succeeds within ceil(L^2 R^2 / eps^2) iterations,
    R = ||x0 - objective.x_star||. Returns (best feasible-ish point,
    iterations used).
    """
    x = as_vector(x0).copy()
    L = objective.L
    if not math.isfinite(L):
        raise InvalidInput("objective must declare a Lipschitz constant")
    if objective.x_star is None:
        raise InvalidInput("objective must declare x_star, which sets the budget's R")
    R = float(np.linalg.norm(x - objective.x_star))
    budget = int(math.ceil(L * L * R * R / (eps * eps)))
    best, best_val = None, math.inf
    for n in range(budget + 1):
        fvals = [c.value(x) for c in constraints]
        fmax = max(fvals)
        if fmax <= eps:
            v = objective.value(x)
            if v < best_val:
                best, best_val = x.copy(), v
            if objective.f_star is not None and v - objective.f_star <= eps:
                return x, n
            p = objective.subgradient(x)
            pn2 = float(p.dot(p))
            if pn2 == 0.0:
                return x, n
            h = eps / pn2
        else:
            i = int(np.argmax(fvals))
            p = constraints[i].subgradient(x)
            pn2 = float(p.dot(p))
            if pn2 == 0.0:
                # a violated constraint minimized here can never reach <= 0
                raise InfeasibleOrBudget("constraint %d is infeasible" % i)
            h = fmax / pn2
        if n < budget:
            x = projector(x - h * p)
    if best is not None and objective.f_star is None:
        return best, budget
    raise InfeasibleOrBudget("no eps-feasible eps-optimal point within %d iterations" % budget)


class EllipsoidState:
    """Ellipsoid {z : <z - x, inv(Sigma) (z - x)> <= 1}."""

    def __init__(self, x, Sigma):
        self.x = as_vector(x).copy()
        self.Sigma = np.asarray(Sigma, dtype=float).copy()
        if np.max(np.abs(self.Sigma - self.Sigma.T)) > 1e-12 * (1 + np.max(np.abs(self.Sigma))):
            raise InvalidInput("Sigma must be symmetric")
        np.linalg.cholesky(self.Sigma)  # PD check

    @classmethod
    def ball(cls, center, radius):
        center = as_vector(center)
        return cls(center, radius * radius * np.eye(center.size))

    def log_volume_unit(self):
        """log(vol / vol(unit ball)) = 1/2 log det Sigma."""
        sign, logdet = np.linalg.slogdet(self.Sigma)
        return 0.5 * logdet


def ellipsoid_volume_ratio(d):
    """Per-step volume shrink factor of the minimal covering half-ellipsoid."""
    return math.sqrt((d - 1.0) / (d + 1.0) * (d * d / (d * d - 1.0)) ** d)


def ellipsoid_update(state, p):
    """Minimum-volume ellipsoid containing the half-ellipsoid cut by <p, z - x> <= 0."""
    p = as_vector(p)
    if float(p.dot(p)) == 0.0:
        raise InvalidSeparator("separator must be non-zero")
    d = p.size
    if d < 2:
        raise InvalidInput("ellipsoid update needs dimension >= 2")
    Sp = state.Sigma @ p
    pSp = float(p.dot(Sp))
    if not pSp > 0.0:
        raise NumericalError("ellipsoid degenerate along the separator")
    x_new = state.x - Sp / ((d + 1.0) * math.sqrt(pSp))
    Sigma_new = (d * d / (d * d - 1.0)) * (state.Sigma - (2.0 / (d + 1.0)) * np.outer(Sp, Sp) / pSp)
    Sigma_new = 0.5 * (Sigma_new + Sigma_new.T)  # symmetrize against drift
    return EllipsoidState(x_new, Sigma_new)


def run_ellipsoid(objective, separation, center, radius, N):
    """Cutting-plane minimization over a convex set C inside the ball B(center, radius).

    separation(x) returns None when x is in C, else a separating vector.
    Feasible queries consume objective cuts (the subgradient), infeasible ones
    the separator. Returns (best feasible point, final state) after N updates,
    or earlier if the ellipsoid degenerates. With objective=None it runs in
    feasibility-only mode: it stops at the first centre in C and returns
    (that centre, state), or (None, state) when no query lands in C.
    """
    state = EllipsoidState.ball(center, radius)
    best, best_val = None, math.inf
    for n in range(N + 1):
        sep = separation(state.x) if separation is not None else None
        if sep is None:
            if objective is None:
                return state.x.copy(), state
            v = objective.value(state.x)
            if v < best_val:
                best, best_val = state.x.copy(), v
            p = objective.subgradient(state.x)
        else:
            p = np.asarray(sep, dtype=float)
        if n < N:
            try:
                state = ellipsoid_update(state, p)
            except (NumericalError, np.linalg.LinAlgError):
                break  # ellipsoid collapsed to numerical degeneracy
    if objective is not None and best is None:
        raise NoFeasiblePoint("no feasible iterate within %d queries" % N)
    return best, state
