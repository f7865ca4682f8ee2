"""Proximal operators, PPM, ISTA/FISTA, Moreau envelope, numeric 1-D conjugation."""

import itertools
import math

import numpy as np

from .core import InvalidInput, NumericalError, as_vector, composite_value, norm, plus_reg, record


def prox_l1(y, lam):
    """Soft thresholding: (|y| - lam)_+ sign(y) componentwise."""
    if lam < 0:
        raise InvalidInput("lam must be >= 0")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def _agd_strong(grad, x0, alpha, beta, tol, max_iter):
    """Constant-momentum AGD for an alpha-strongly convex beta-smooth function."""
    kappa = beta / alpha
    theta = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    h = 1.0 / beta
    x = x0.copy()
    x_prev = x.copy()
    for _ in range(max_iter):
        y = x + theta * (x - x_prev)
        g = grad(y)
        x_prev = x
        x = y - h * g
        if norm(grad(x)) <= tol:
            return x
    raise NumericalError("inner AGD did not reach tolerance %g" % tol)


def prox_generic(problem, y, h):
    """argmin of f(x) + ||y - x||^2 / (2h) by an inner accelerated solve.

    The inner objective is (alpha + 1/h)-strongly convex. Smooth f uses AGD;
    non-smooth 1-D f falls back to bracketed ternary search.
    """
    if h <= 0:
        raise InvalidInput("h must be positive")
    y = as_vector(y)
    tol = 1e-10 * problem.scale_at(y)
    if math.isfinite(problem.beta):
        alpha = problem.alpha + 1.0 / h
        beta = problem.beta + 1.0 / h

        def grad(x):
            return problem.subgradient(x) + (x - y) / h

        budget = 100 * int(math.ceil(math.sqrt(1.0 + problem.beta * h))) + 100
        return _agd_strong(grad, y.copy(), alpha, beta, tol, budget)
    if y.size != 1:
        raise NumericalError("non-smooth prox supported in 1-D only")
    # bracketed ternary search; the prox point is within h*L of y, expand until covered
    def val1(t):
        return problem.value(np.array([t])) + (t - y[0]) ** 2 / (2.0 * h)

    lo, hi = y[0] - 1.0, y[0] + 1.0
    while val1(lo) < val1(lo + 1e-9) or val1(hi) < val1(hi - 1e-9):
        lo, hi = y[0] - 2 * (y[0] - lo + 1), y[0] + 2 * (hi - y[0] + 1)
        if hi - lo > 1e12:
            raise NumericalError("could not bracket the prox point")
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if val1(m1) <= val1(m2):
            hi = m2
        else:
            lo = m1
    return np.array([(lo + hi) / 2.0])


def _prox_of(problem):
    if problem.prox is not None:
        return problem.prox
    return lambda y, h: prox_generic(problem, y, h)


def run_ppm(problem, h, x0, N):
    """Proximal point method x_{n+1} = prox_{hf}(x_n)."""
    if h <= 0:
        raise InvalidInput("step must be positive")
    prox = _prox_of(problem)

    def iterates(x):
        while True:
            if problem.subgradient is None:
                v, gn = problem.value(x), None
            else:
                v, g = problem.value_and_grad(x)
                gn = norm(g)
            yield x, v, gn, {}
            x = prox(x, h)

    return record(iterates, x0, N, problem.f_star)


def run_pgd(f, g, h, x0, N, f_star=None):
    """Proximal gradient x_+ = prox_{hg}(x - h grad f(x)); ISTA when g is l1.

    The trace's value column is F = f + g. g=None degrades to plain GD.
    """
    if h <= 0:
        raise InvalidInput("step must be positive")

    def iterates(x):
        while True:
            v, grad = f.value_and_grad(x)
            yield x, plus_reg(v, g, x), norm(grad), {}
            z = x - h * grad
            x = g.prox(z, h) if g is not None else z

    return record(iterates, x0, N, f_star)


def agd_lambda_sequence(N):
    lam = [0.0]
    for _ in range(N + 1):
        lam.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * lam[-1] ** 2)))
    return lam


def _nesterov(f, g, at, x0, N, f_star):
    """Proximal gradient with the AGD momentum schedule, h = 1/beta_f; at(x)
    gives the (value, gradient norm) that x's record holds."""
    h = 1.0 / f.beta
    lam = agd_lambda_sequence(N)

    def iterates(x):
        x_prev = x
        for n in itertools.count():
            yield x, *at(x), {}
            theta = (lam[n] - 1.0) / lam[n + 1]
            y = x + theta * (x - x_prev)
            x_prev = x
            w = y - h * f.subgradient(y)
            x = g.prox(w, h) if g is not None else w

    return record(iterates, x0, N, f_star)


def run_apgd(f, g, x0, N, f_star=None):
    """FISTA: proximal gradient with the AGD momentum schedule, h = 1/beta_f."""
    if not 0 < f.beta < math.inf:
        raise InvalidInput("FISTA needs a finite positive smoothness constant")
    F = composite_value(f, g)
    return _nesterov(f, g, lambda x: (F(x), None), x0, N, f_star)


def moreau_envelope(problem, h, y):
    """(Q_h f)(y) = min_x f(x) + ||y - x||^2 / (2h)."""
    y = as_vector(y)
    xh = _prox_of(problem)(y, h)
    d = xh - y
    return problem.value(xh) + 0.5 * float(d @ d) / h


def numeric_conjugate(x_grid, f_vals, y_grid):
    """f*(y) = max over the sample grid of x*y - f(x)."""
    x_grid = np.asarray(x_grid, dtype=float)
    f_vals = np.asarray(f_vals, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    if x_grid.size == 0 or y_grid.size == 0:
        raise InvalidInput("grids must be non-empty")
    if x_grid.size != f_vals.size:
        raise InvalidInput("need one sample per grid point")
    # one len(y_grid) x len(x_grid) outer product: 32 MB at 2048 x 2048
    return np.max(np.outer(y_grid, x_grid) - f_vals[None, :], axis=1)
