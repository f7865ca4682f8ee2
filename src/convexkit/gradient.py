"""Gradient flow simulation, GD, AGD, PL rates, and the weak/strong convexity reductions."""

import itertools
import math

import numpy as np

from .core import InvalidInput, NumericalError, ProblemOracle, as_vector, norm, record
from .proximal import _nesterov, run_pgd


def default_dt(problem):
    if not 0 < problem.beta < math.inf:
        raise InvalidInput("gradient flow needs a positive finite smoothness constant")
    return 1.0 / (100.0 * problem.beta)


def simulate_gf(problem, t_end, dt=None, x0=None):
    """Explicit-Euler gradient flow with the sharp Lyapunov function recorded.

    Records L_t = t^2 ||grad f||^2 + 2t (f - f*) + ||x - x*||^2 (custom column
    "lyapunov") whenever the problem declares f* and x*.
    """
    if dt is None:
        dt = default_dt(problem)
    have_lyap = problem.f_star is not None and problem.x_star is not None

    def iterates(x):
        for k in itertools.count():
            t = k * dt
            v, g = problem.value_and_grad(x)
            custom = {"t": t}
            if have_lyap:
                custom["lyapunov"] = (t * t * float(g.dot(g)) + 2 * t * (v - problem.f_star)
                                      + norm(x - problem.x_star) ** 2)
            yield x, v, norm(g), custom
            x = x - dt * g

    x0 = np.zeros(problem.dim) if x0 is None else x0
    return record(iterates, x0, int(round(t_end / dt)), problem.f_star)


def simulate_agf(problem, t_end, dt=None, x0=None, mode="convex"):
    """Accelerated gradient flow x' = p, p' = -gamma_t p - grad f(x) by Euler steps.

    mode "convex" uses gamma_t = 3/t and the Lyapunov function
    (t^2/2)(f - f*) + ||z - x*||^2 with z = x + (t/2) p; mode "strong" uses
    gamma = 2 sqrt(alpha) and f - f* + (alpha/2)||z - x*||^2 with z = x + (2/gamma) p.
    Integration starts at t0 = dt with p exactly 0 (gamma_t = 3/t is singular at 0).
    """
    if dt is None:
        dt = default_dt(problem)
    if mode == "strong":
        alpha = problem.alpha
        if alpha <= 0:
            raise InvalidInput("strong mode needs alpha > 0")
        gamma_const = 2.0 * math.sqrt(alpha)
    elif mode != "convex":
        raise InvalidInput("mode must be 'convex' or 'strong'")
    have_star = problem.f_star is not None and problem.x_star is not None

    def iterates(x):
        p = np.zeros_like(x)
        for k in itertools.count():
            t = dt * (k + 1)
            v, g = problem.value_and_grad(x)
            custom = {"t": t}
            if have_star:
                if mode == "convex":
                    z = x + (t / 2.0) * p
                    custom["lyapunov"] = ((t * t / 2.0) * (v - problem.f_star)
                                          + norm(z - problem.x_star) ** 2)
                else:
                    z = x + (2.0 / gamma_const) * p
                    custom["lyapunov"] = (v - problem.f_star
                                          + 0.5 * alpha * norm(z - problem.x_star) ** 2)
            yield x, v, norm(g), custom
            gamma = 3.0 / t if mode == "convex" else gamma_const
            x = x + dt * p
            p = p - dt * (gamma * p + g)

    x0 = np.zeros(problem.dim) if x0 is None else x0
    return record(iterates, x0, int(round(t_end / dt)), problem.f_star)


def run_gd(problem, h, x0, N):
    """x_{n+1} = x_n - h grad f(x_n): proximal gradient with no regularizer."""
    return run_pgd(problem, None, h, x0, N, problem.f_star)


def gd_sharp_contraction_factor(alpha, beta):
    """Best one-step GD contraction: factor (kappa-1)/(kappa+1) at step 2/(alpha+beta)."""
    if not 0 < alpha <= beta:
        raise InvalidInput("need 0 < alpha <= beta")
    kappa = beta / alpha
    return (kappa - 1.0) / (kappa + 1.0), 2.0 / (alpha + beta)


def run_agd(problem, x0, N):
    """Nesterov momentum: y_n = x_n + theta_n (x_n - x_{n-1}), gradient step
    from y_n: FISTA with no regularizer."""
    if not 0 < problem.beta < math.inf:
        raise InvalidInput("AGD needs a finite positive smoothness constant")

    def at(x):
        v, g = problem.value_and_grad(x)
        return v, norm(g)

    return _nesterov(problem, None, at, x0, N, problem.f_star)


def reduce_to_strongly_convex(base_solver, problem, x0, R, eps):
    """Restart scheme turning a convex-rate solver into a strongly convex one.

    base_solver(problem, x_start, eps_target) must return a point with gap at
    most eps_target. Round k targets eps_k = alpha R_k^2 / 8 with R_k = R / 2^k,
    which halves the quadratic-growth radius bound each round.
    """
    if problem.alpha <= 0:
        raise InvalidInput("problem must be strongly convex")
    x = as_vector(x0).copy()
    R_k = float(R)
    for _ in range(200):
        eps_k = problem.alpha * R_k * R_k / 8.0
        x = base_solver(problem, x, eps_k)
        if problem.f_star is not None:
            gap = problem.value(x) - problem.f_star
            if gap > eps_k * (1 + 1e-6) + 1e-12:
                raise NumericalError("round missed its target: gap %g > %g" % (gap, eps_k))
        R_k /= 2.0
        if eps_k <= eps:
            return x
    raise NumericalError("too many restart rounds")


def reduce_to_convex(strong_solver, problem, eps, R, x0):
    """Solve a merely convex problem by regularizing with (delta/2)||. - x0||^2, delta = eps/R^2."""
    x0 = as_vector(x0)
    delta = eps / (R * R)
    base_value, base_grad = problem.value, problem.subgradient

    def value(x):
        d = x - x0
        return base_value(x) + 0.5 * delta * float(d.dot(d))

    def grad(x):
        return base_grad(x) + delta * (x - x0)

    reg = ProblemOracle(problem.dim, value, grad, alpha=problem.alpha + delta,
                        beta=problem.beta + delta if math.isfinite(problem.beta) else math.inf,
                        name=problem.name + "-regularized")
    return strong_solver(reg, x0, eps / 2.0)
