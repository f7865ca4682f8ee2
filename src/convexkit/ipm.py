"""Self-concordant barriers, Newton's method, and two-stage central path following."""

import math

import numpy as np

from .core import (CenteringFailed, DomainError, InvalidInput, NumericalError,
                   SingularHessian, as_vector)


class Barrier:
    """Self-concordant barrier: value/gradient/Hessian oracles, parameter nu."""

    def __init__(self, dim, value, gradient, hessian, nu, in_domain, name="barrier",
                 evaluate=None):
        self.dim = int(dim)
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.nu = float(nu)
        self.in_domain = in_domain
        self.name = name
        if evaluate is not None:
            self.evaluate = evaluate  # one pass over x instead of the method below

    def evaluate(self, x):
        """(gradient, Hessian) at x; DomainError outside the interior."""
        if not self.in_domain(x):
            raise DomainError("%s: point outside the domain" % self.name)
        return self.gradient(x), self.hessian(x)

    def dual_norm(self, x, v):
        """||v||*_x = sqrt(<v, H(x)^-1 v>)."""
        return _decrement(_pd(self.hessian(x)), v)


def _pd(H):
    """H, once a Cholesky factorization has shown it positive definite."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise SingularHessian("Hessian not positive definite")
    return H


def _decrement(H, g):
    """sqrt(<g, H^-1 g>) for a positive definite H."""
    return math.sqrt(max(float(g @ np.linalg.solve(H, g)), 0.0))


def log_barrier_polytope(A, b):
    """phi(x) = -sum log(b_i - <a_i, x>) over {Ax < b}; nu = m."""
    A = np.asarray(A, dtype=float)
    b = as_vector(b)
    m, d = A.shape

    def slacks(x):
        s = b - A @ x
        if not s.min() > 0:
            raise DomainError("point outside the polytope interior")
        return s

    def value(x):
        return -float(np.sum(np.log(slacks(x))))

    def gradient(x):
        return A.T @ (1.0 / slacks(x))

    def evaluate(x):
        w = 1.0 / slacks(x)
        return A.T @ w, (A * (w * w)[:, None]).T @ A

    def in_domain(x):
        return bool(np.all(b - A @ x > 0))

    return Barrier(d, value, gradient, lambda x: evaluate(x)[1], m, in_domain,
                   name="log-polytope", evaluate=evaluate)


def logdet_barrier(d):
    """phi(X) = -log det X over PD matrices, stored as flattened d x d arrays; nu = d."""
    if d > 20:
        raise InvalidInput("log-det barrier supported up to 20 x 20")

    def mat(x):
        X = np.asarray(x, dtype=float).reshape(d, d)
        return 0.5 * (X + X.T)

    def value(x):
        sign, logdet = np.linalg.slogdet(mat(x))
        if sign <= 0:
            raise DomainError("matrix not positive definite")
        return -logdet

    def in_domain(x):
        X = mat(x)
        try:
            np.linalg.cholesky(X)
            return True
        except np.linalg.LinAlgError:
            return False

    def evaluate(x):
        if not in_domain(x):
            raise DomainError("matrix not positive definite")
        inv = np.linalg.inv(mat(x))
        return -inv.ravel(), np.kron(inv, inv)

    return Barrier(d * d, value, lambda x: evaluate(x)[0], lambda x: evaluate(x)[1], d,
                   in_domain, name="logdet", evaluate=evaluate)


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


def _newton(f, x):
    """(H^-1 g, lambda) at x from one evaluation of f."""
    g, H = f.evaluate(x)
    direction = np.linalg.solve(_pd(H), g)
    return direction, math.sqrt(max(float(g @ direction), 0.0))


def newton_decrement(f, x):
    return _newton(f, x)[1]


def newton_step(f, x):
    """Full Newton step; returns (x_plus, lambda_before)."""
    direction, lam = _newton(f, x)
    return x - direction, lam


def damped_newton(f, x, target=1e-10, max_iter=500):
    """x+ = x - H^-1 grad / (1 + lambda) until the decrement reaches the target."""
    x = as_vector(x).copy()
    no_decrease = 0
    v = f.value(x)
    for _ in range(max_iter):
        direction, lam = _newton(f, x)
        if lam <= target:
            return x
        x = x - direction / (1.0 + lam)
        v_new = f.value(x)
        no_decrease = no_decrease + 1 if v_new >= v else 0
        if no_decrease >= 10:
            raise CenteringFailed("no decrease over 10 damped steps")
        v = v_new
    raise CenteringFailed("damped Newton budget exhausted at decrement target %g" % target)


class PathState:
    def __init__(self, t, x, lam):
        self.t = float(t)
        self.x = np.asarray(x, dtype=float)
        self.lam = float(lam)

    def certified_bound(self, nu):
        """Suboptimality certificate (1/t)(nu + (lam + sqrt(nu)) lam / (1 - lam))."""
        return (nu + (self.lam + math.sqrt(nu)) * self.lam / (1.0 - self.lam)) / self.t


C0 = 1.0 / 16.0


def path_follow(a, barrier, x_center, t0, eps, c0=C0):
    """Main stage: t grows by (1 + c0/sqrt(nu)) with one Newton step per update.

    Requires the centering precondition lambda_{f_t0}(x_center) <= 1/4; stops
    once t >= 2 nu / eps, where the certificate is below eps. Returns
    (x, list of PathState). H depends on x alone, so one evaluation per point
    serves the decrement at t and the step to the next t.
    """
    a = as_vector(a)
    nu = barrier.nu
    t = float(t0)
    x = as_vector(x_center).copy()
    grad, H = barrier.evaluate(x)
    lam = _decrement(_pd(H), t * a + grad)
    if lam > 0.25 + 1e-12:
        raise InvalidInput("x_center is not centered for t0 (decrement %g)" % lam)
    states = [PathState(t, x, lam)]
    t_stop = 2.0 * nu / eps
    growth = 1.0 + c0 / math.sqrt(nu)
    while t < t_stop:
        t *= growth
        x = x - np.linalg.solve(H, t * a + grad)
        try:
            grad, H = barrier.evaluate(x)
        except DomainError:
            raise NumericalError("Newton step left the domain at t = %g" % t)
        lam = _decrement(_pd(H), t * a + grad)
        if lam > 0.25 + 1e-12:
            raise NumericalError("decrement %g > 1/4 at t = %g" % (lam, t))
        states.append(PathState(t, x, lam))
    return x, states


def preliminary_stage(barrier, xbar0, a, c0=C0):
    """Find (t0, x0) with lambda_{f_t0}(x0) <= 1/4 starting from any interior point.

    Follows the auxiliary path for -t <grad phi(xbar0), .> + phi with t
    shrinking geometrically from 1 (the pair (1, xbar0) is exactly centered),
    then finishes with damped Newton on phi and picks the largest safe t0.
    """
    a = as_vector(a)
    x = as_vector(xbar0).copy()
    g0, H = barrier.evaluate(x)
    _pd(H)
    grad = g0
    t = 1.0
    shrink = 1.0 - c0 / math.sqrt(barrier.nu)
    iterations = 0
    while not (t * _decrement(H, g0) <= 1.0 / 16.0 and _decrement(H, grad) <= 0.5):
        t *= shrink
        x = x - np.linalg.solve(H, grad - t * g0)
        try:
            grad, H = barrier.evaluate(x)
        except DomainError:
            raise NumericalError("auxiliary Newton step left the domain")
        lam = _decrement(_pd(H), grad - t * g0)
        if lam > 0.25 + 1e-12:
            raise NumericalError("auxiliary path decrement %g > 1/4" % lam)
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
