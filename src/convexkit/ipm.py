"""Self-concordant barriers, Newton's method, and two-stage central path following."""

import math
from collections import namedtuple

import numpy as np

from .core import (CenteringFailed, DomainError, InvalidInput, NumericalError,
                   SingularHessian, as_vector)


class Barrier:
    """Self-concordant barrier with parameter nu, given by value(x) and
    evaluate(x) -> (gradient, Hessian); both raise DomainError outside the interior."""

    def __init__(self, dim, value, evaluate, nu):
        self.dim = int(dim)
        self.value = value
        self.evaluate = evaluate
        self.nu = float(nu)

    def gradient(self, x):
        return self.evaluate(x)[0]

    def hessian(self, x):
        return self.evaluate(x)[1]

    def in_domain(self, x):
        try:
            self.value(x)
        except DomainError:
            return False
        return True

    def dual_norm(self, x, v):
        """||v||*_x = sqrt(<v, H(x)^-1 v>)."""
        return _newton(np.asarray(v, dtype=float), self.hessian(x))[2]


def _newton(g, H):
    """(H^-1, H^-1 g, sqrt(<g, H^-1 g>)) from one inversion of H, once a Cholesky
    factorization has shown H positive definite; other dual norms and steps at
    the same point are matrix-vector products with that H^-1."""
    try:
        np.linalg.cholesky(H)
        H_inv = np.linalg.inv(H)
        if not math.isfinite(H_inv.sum()):  # the Cholesky test lets NaN entries through
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise SingularHessian("Hessian not positive definite")
    direction = H_inv.dot(g)
    return H_inv, direction, math.sqrt(max(float(g.dot(direction)), 0.0))


def _norm(H_inv, v):
    """sqrt(<v, H^-1 v>)."""
    return math.sqrt(max(float(v.dot(H_inv.dot(v))), 0.0))


def log_barrier_polytope(A, b):
    """phi(x) = -sum log(b_i - <a_i, x>) over {Ax < b}; nu = m."""
    A = np.asarray(A, dtype=float)
    b = as_vector(b)
    m, d = A.shape
    AT = A.T

    def slacks(x):
        s = b - A @ x
        if not np.minimum.reduce(s) > 0:
            raise DomainError("point outside the polytope interior")
        return s

    def value(x):
        return -float(np.sum(np.log(slacks(x))))

    def evaluate(x):
        w = 1.0 / slacks(x)
        # A^T diag(w^2) A; AT * (w * w) keeps A's memory order, which fixes how the product rounds
        return AT.dot(w), (AT * (w * w)).dot(A)

    return Barrier(d, value, evaluate, m)


def logdet_barrier(d):
    """phi(X) = -log det X over PD matrices, stored as flattened d x d arrays; nu = d."""
    if d > 20:
        raise InvalidInput("log-det barrier supported up to 20 x 20")

    def pd(x):
        """The symmetric part of x as a d x d matrix, once Cholesky has shown it PD."""
        X = np.asarray(x, dtype=float).reshape(d, d)
        X = 0.5 * (X + X.T)
        if not np.isfinite(X).all():  # Cholesky returns a NaN factor for NaN entries
            raise DomainError("matrix has non-finite entries")
        try:
            np.linalg.cholesky(X)
        except np.linalg.LinAlgError:
            raise DomainError("matrix not positive definite")
        return X

    def value(x):
        return -np.linalg.slogdet(pd(x))[1]

    def evaluate(x):
        inv = np.linalg.inv(pd(x))
        return -inv.ravel(), np.kron(inv, inv)

    return Barrier(d * d, value, evaluate, d)


class ShiftedBarrier:
    """f_t = t <a, .> + phi, the path-following objective."""

    def __init__(self, barrier, a, t):
        self.barrier = barrier
        self.a = as_vector(a)
        self.t = float(t)

    def value(self, x):
        return self.t * float(self.a @ x) + self.barrier.value(x)

    def evaluate(self, x):
        g, H = self.barrier.evaluate(x)
        return self.t * self.a + g, H


def newton_decrement(f, x):
    return _newton(*f.evaluate(x))[2]


def newton_step(f, x):
    """Full Newton step; returns (x_plus, lambda_before)."""
    _, direction, lam = _newton(*f.evaluate(x))
    return x - direction, lam


def damped_newton(f, x, target=1e-10, max_iter=500):
    """x+ = x - H^-1 grad / (1 + lambda) until the decrement reaches the target."""
    x = as_vector(x).copy()
    no_decrease = 0
    v = f.value(x)
    for _ in range(max_iter):
        _, direction, lam = _newton(*f.evaluate(x))
        if lam <= target:
            return x
        x = x - direction / (1.0 + lam)
        v_new = f.value(x)
        no_decrease = no_decrease + 1 if v_new >= v else 0
        if no_decrease >= 10:
            raise CenteringFailed("no decrease over 10 damped steps")
        v = v_new
    raise CenteringFailed("damped Newton budget exhausted at decrement target %g" % target)


class PathState(namedtuple("PathState", "t x lam")):
    """A point x on the central path at t, with its Newton decrement lam."""

    def certified_bound(self, nu):
        """Suboptimality certificate (1/t)(nu + (lam + sqrt(nu)) lam / (1 - lam))."""
        return (nu + (self.lam + math.sqrt(nu)) * self.lam / (1.0 - self.lam)) / self.t


C0 = 1.0 / 16.0


def _path_step(barrier, x, grad, H_inv, shift, t, path=""):
    """One Newton step on a path: x - H^-1 (shift + grad), evaluated there.

    grad and H_inv are the barrier's gradient and inverse Hessian at x; shift is
    the linear term's gradient at t. Returns (x, grad, H_inv, lambda) at the new
    point; NumericalError if the step leaves the domain or lambda exceeds 1/4.
    """
    x = x - H_inv.dot(shift + grad)
    try:
        grad, H = barrier.evaluate(x)
    except DomainError:
        raise NumericalError("Newton step left the domain%s at t = %g" % (path, t))
    H_inv, _, lam = _newton(shift + grad, H)
    if lam > 0.25 + 1e-12:
        raise NumericalError("decrement %g > 1/4%s at t = %g" % (lam, path, t))
    return x, grad, H_inv, lam


def path_follow(a, barrier, x_center, t0, eps, c0=C0):
    """Main stage: t grows by (1 + c0/sqrt(nu)) with one Newton step per update.

    Requires the centering precondition lambda_{f_t0}(x_center) <= 1/4; stops
    once t >= 2 nu / eps, where the certificate is below eps. Returns
    (x, list of PathState). H depends on x alone, so one evaluation and one
    inversion of H per point give the decrement at t and the step to the next t.
    """
    a = as_vector(a)
    t = float(t0)
    x = as_vector(x_center).copy()
    grad, H = barrier.evaluate(x)
    H_inv, _, lam = _newton(t * a + grad, H)
    if lam > 0.25 + 1e-12:
        raise InvalidInput("x_center is not centered for t0 (decrement %g)" % lam)
    states = [PathState(t, x, lam)]
    t_stop = 2.0 * barrier.nu / eps
    growth = 1.0 + c0 / math.sqrt(barrier.nu)
    while t < t_stop:
        t *= growth
        x, grad, H_inv, lam = _path_step(barrier, x, grad, H_inv, t * a, t)
        states.append(PathState(t, x, lam))
    return x, states


def preliminary_stage(barrier, xbar0, a, c0=C0):
    """Find (t0, x0) with lambda_{f_t0}(x0) <= 1/4 starting from any interior point.

    Follows the auxiliary path for -t <grad phi(xbar0), .> + phi with t
    shrinking geometrically from 1 (the pair (1, xbar0) is exactly centered),
    then finishes with damped Newton on phi and picks the largest safe t0.
    One inversion of H per point serves the stopping rule's dual norms and the step.
    """
    a = as_vector(a)
    x = as_vector(xbar0).copy()
    g0, H = barrier.evaluate(x)
    H_inv = _newton(g0, H)[0]
    grad = g0
    t = 1.0
    shrink = 1.0 - c0 / math.sqrt(barrier.nu)
    iterations = 0
    while not (t * _norm(H_inv, g0) <= 1.0 / 16.0 and _norm(H_inv, grad) <= 0.5):
        t *= shrink
        x, grad, H_inv, _ = _path_step(barrier, x, grad, H_inv, -t * g0, t, " on the auxiliary path")
        iterations += 1
        if iterations > 10000:
            raise CenteringFailed("preliminary stage did not converge")
    x = damped_newton(barrier, x, target=1.0 / 8.0)
    iterations += 1
    a_norm = barrier.dual_norm(x, a)
    t0 = 1.0 / (8.0 * a_norm) if a_norm > 0 else 1.0
    return t0, x, iterations


def solve_lp(A, b, a, x_interior, eps):
    """Minimize <a, x> over {Ax <= b} by preliminary + main path following.

    Returns (x, value, iterations) with iterations counting Newton steps of
    both stages.
    """
    barrier = log_barrier_polytope(A, b)
    t0, x0, prelim_iters = preliminary_stage(barrier, x_interior, a)
    x, states = path_follow(a, barrier, x0, t0, eps)
    return x, float(as_vector(a) @ x), prelim_iters + len(states)
