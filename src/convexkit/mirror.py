"""Bregman geometry, mirror (proximal) descent, online mirror descent, zero-sum games."""

import itertools
import math
from collections import namedtuple

import numpy as np

from .core import DomainError, InvalidInput, as_vector, composite_value, norm, plus_reg, record

ENTROPIC_FLOOR = 1e-300  # guard before logs; no effect at test scales


class BregmanGeometry(namedtuple("BregmanGeometry", "phi grad grad_star in_domain")):
    """Mirror map phi with gradient, inverse gradient, domain test and divergence."""

    def divergence(self, x, y):
        x = as_vector(x)
        y = as_vector(y)
        return self.phi(x) - self.phi(y) - float(self.grad(y) @ (x - y))


def euclidean_geometry(dim):
    return BregmanGeometry(
        phi=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.asarray(x, dtype=float),
        grad_star=lambda y: np.asarray(y, dtype=float),
        in_domain=lambda x: True)


def entropic_geometry(dim):
    """phi(x) = sum x log x - x on the positive orthant; 1-strongly convex
    w.r.t. l1 on the simplex (Pinsker)."""

    def phi(x):
        x = np.maximum(np.asarray(x, dtype=float), ENTROPIC_FLOOR)
        return float(np.add.reduce(x * np.log(x) - x, axis=None))

    return BregmanGeometry(
        phi=phi,
        grad=lambda x: np.log(np.maximum(np.asarray(x, dtype=float), ENTROPIC_FLOOR)),
        grad_star=np.exp,
        in_domain=lambda x: bool((np.asarray(x) > 0).all()))


def kl_divergence(x, y):
    """sum x log(x/y) - x + y with 0 log 0 = 0; +inf when y vanishes where x > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise InvalidInput("need x >= 0, y >= 0")
    if np.any((y == 0) & (x > 0)):
        return math.inf
    pos = x > 0
    return float(np.sum(x[pos] * np.log(x[pos] / y[pos])) - np.sum(x) + np.sum(y))


def bregman_project_simplex(x):
    """Entropic Bregman projection onto the simplex is plain normalization."""
    x = as_vector(x)
    if np.any(x <= 0):
        raise DomainError("entries must be positive")
    return x / float(np.sum(x))


def run_mpgd(f, g, geometry, h, x0, N, constraint=None):
    """Mirror proximal gradient: x+ = prox_{hg} of grad_star(grad(x) - h grad f(x)).

    constraint="simplex" applies the entropic Bregman projection (normalization)
    after the mirror step; g, when given, must carry a prox compatible with the
    geometry (Euclidean geometry makes this ordinary proximal gradient).
    The dual point is carried from step to step (and taken afresh after a
    prox), so a weight of x that underflows to 0 keeps its log-weight.
    Custom column "avg_value" tracks f at the uniform average of the iterates.
    """
    if h <= 0:
        raise InvalidInput("step must be positive")
    total = composite_value(f, g)

    def iterates(x):
        if not geometry.in_domain(x):
            raise DomainError("x0 outside the mirror-map domain")
        avg, dual = x, geometry.grad(x)
        for n in itertools.count():
            v, grad = f.value_and_grad(x)
            yield x, plus_reg(v, g, x), norm(grad), {"avg_value": total(avg)}
            dual = dual - h * grad
            if g is None and constraint == "simplex":
                dual -= np.maximum.reduce(dual)  # the normalization cancels it; exp cannot overflow
            x = geometry.grad_star(dual)
            if g is not None:
                x = g.prox(x, h)
            if constraint == "simplex":
                x = x / float(np.add.reduce(x))
            if g is not None:
                dual = geometry.grad(x)
            avg = avg + (x - avg) / (n + 2.0)

    return record(iterates, x0, N, f.f_star)


def run_omd(geometry, losses, h, x0):
    """Online mirror descent against a fixed loss stream.

    The state lives in the dual (as grad phi of the iterate); returns
    (actions, regret) with regret measured against the best fixed point of the
    simplex (best single expert).
    """
    losses = np.asarray(losses, dtype=float)
    x = as_vector(x0).copy()
    dual = geometry.grad(x)
    actions = []
    incurred = 0.0
    for ell in losses:
        actions.append(x.copy())
        incurred += float(ell.dot(x))
        dual = dual - h * ell
        x = geometry.grad_star(dual)
        x = x / float(np.sum(x))
        dual = geometry.grad(x)
    return np.array(actions), incurred - float(np.min(losses.sum(axis=0)))


def omd_step_size(R_phi, alpha_phi, L, T):
    return R_phi * math.sqrt(2.0 * alpha_phi) / (L * math.sqrt(T))


def solve_zero_sum(A, eps):
    """Approximate value of the zero-sum game min_x max_y <x, A y> by
    multiplicative weights for the row player against best-response columns.

    Returns (x_hat, value_estimate, rounds) with
    max_y <x_hat, A y> <= value + eps after O(||A||_max^2 log m / eps^2) rounds.
    """
    A = np.asarray(A, dtype=float)
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    m = A.shape[0]
    amax = float(np.max(np.abs(A)))
    if amax == 0.0:
        return np.full(m, 1.0 / m), 0.0, 1
    rounds = int(math.ceil(8.0 * amax * amax * max(math.log(m), 1.0) / (eps * eps)))
    h = math.sqrt(2.0 * max(math.log(m), 1.0) / rounds) / amax
    x = np.full(m, 1.0 / m)
    x_sum = np.zeros(m)
    for _ in range(rounds):
        payoff = x @ A
        j = int(np.argmax(payoff))
        x_sum += x
        x = x * np.exp(-h * A[:, j])
        x = x / float(np.sum(x))
    x_hat = x_sum / rounds
    value_estimate = float(np.max(x_hat @ A))
    return x_hat, value_estimate, rounds
