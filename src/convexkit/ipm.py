"""Self-concordant barriers, Newton's method, and two-stage central path following."""

import math

import numpy as np

from .core import (CenteringFailed, DomainError, InvalidInput, NumericalError,
                   SingularHessian, as_vector)


class Barrier:
    """Self-concordant barrier: value/gradient/Hessian oracles, parameter nu."""

    def __init__(self, dim, value, gradient, hessian, nu, in_domain, M=1.0, name="barrier"):
        self.dim = int(dim)
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.nu = float(nu)
        self.M = float(M)
        self.in_domain = in_domain
        self.name = name

    def local_norm(self, x, v):
        """||v||_x = sqrt(<v, H(x) v>)."""
        H = self.hessian(x)
        return math.sqrt(max(float(v @ (H @ v)), 0.0))

    def dual_norm(self, x, v):
        """||v||*_x = sqrt(<v, H(x)^-1 v>)."""
        H = self.hessian(x)
        return math.sqrt(max(float(v @ _pd_solve(H, v)), 0.0))


def _pd_solve(H, g):
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise SingularHessian("Hessian not positive definite")
    return np.linalg.solve(H, g)


def log_barrier_polytope(A, b):
    """phi(x) = -sum log(b_i - <a_i, x>) over {Ax < b}; nu = m."""
    A = np.asarray(A, dtype=float)
    b = as_vector(b)
    m, d = A.shape

    def slacks(x):
        s = b - A @ x
        if np.any(s <= 0):
            raise DomainError("point outside the polytope interior")
        return s

    def value(x):
        return -float(np.sum(np.log(slacks(x))))

    def gradient(x):
        return A.T @ (1.0 / slacks(x))

    def hessian(x):
        w = 1.0 / slacks(x)
        return (A * (w * w)[:, None]).T @ A

    def in_domain(x):
        return bool(np.all(b - A @ x > 0))

    return Barrier(d, value, gradient, hessian, m, in_domain, name="log-polytope")


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

    def gradient(x):
        return -np.linalg.inv(mat(x)).ravel()

    def hessian(x):
        inv = np.linalg.inv(mat(x))
        return np.kron(inv, inv)

    def in_domain(x):
        X = mat(x)
        try:
            np.linalg.cholesky(X)
            return True
        except np.linalg.LinAlgError:
            return False

    return Barrier(d * d, value, gradient, hessian, d, in_domain, name="logdet")


class ShiftedBarrier:
    """f_t = t <a, .> + phi, the path-following objective."""

    def __init__(self, barrier, a, t):
        self.barrier = barrier
        self.a = as_vector(a)
        self.t = float(t)

    def value(self, x):
        return self.t * float(self.a @ x) + self.barrier.value(x)

    def gradient(self, x):
        return self.t * self.a + self.barrier.gradient(x)

    def hessian(self, x):
        return self.barrier.hessian(x)


def newton_decrement(f, x):
    g = f.gradient(x)
    H = f.hessian(x)
    return math.sqrt(max(float(g @ _pd_solve(H, g)), 0.0))


def newton_step(f, x):
    """Full Newton step; returns (x_plus, lambda_before)."""
    g = f.gradient(x)
    H = f.hessian(x)
    direction = _pd_solve(H, g)
    lam = math.sqrt(max(float(g @ direction), 0.0))
    return x - direction, lam


def damped_newton(f, x, target=1e-10, max_iter=500):
    """x+ = x - H^-1 grad / (1 + lambda) until the decrement reaches the target."""
    x = as_vector(x).copy()
    no_decrease = 0
    v = f.value(x)
    for _ in range(max_iter):
        g = f.gradient(x)
        H = f.hessian(x)
        direction = _pd_solve(H, g)
        lam = math.sqrt(max(float(g @ direction), 0.0))
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
    (x, list of PathState).
    """
    a = as_vector(a)
    nu = barrier.nu
    t = float(t0)
    x = as_vector(x_center).copy()
    lam = newton_decrement(ShiftedBarrier(barrier, a, t), x)
    if lam > 0.25 + 1e-12:
        raise InvalidInput("x_center is not centered for t0 (decrement %g)" % lam)
    states = [PathState(t, x, lam)]
    t_stop = 2.0 * nu / eps
    growth = 1.0 + c0 / math.sqrt(nu)
    while t < t_stop:
        t *= growth
        f_t = ShiftedBarrier(barrier, a, t)
        x, _ = newton_step(f_t, x)
        if not barrier.in_domain(x):
            raise NumericalError("Newton step left the domain at t = %g" % t)
        lam = newton_decrement(f_t, x)
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
    nu = barrier.nu
    g0 = barrier.gradient(xbar0)
    x = as_vector(xbar0).copy()
    t = 1.0
    shrink = 1.0 - c0 / math.sqrt(nu)
    iterations = 0
    while True:
        gnorm = barrier.dual_norm(x, barrier.gradient(x))
        if t * barrier.dual_norm(x, g0) <= 1.0 / 16.0 and gnorm <= 0.5:
            break
        t *= shrink
        f_t = ShiftedBarrier(barrier, -g0, t)
        x, _ = newton_step(f_t, x)
        if not barrier.in_domain(x):
            raise NumericalError("auxiliary Newton step left the domain")
        lam = newton_decrement(f_t, x)
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
