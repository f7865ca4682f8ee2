"""Alternating minimization (cyclic and randomized), alternating Bregman
projections, and Sinkhorn's algorithm for entropic optimal transport."""

from collections import namedtuple

import numpy as np

from .core import InvalidInput, InvalidProblem, as_vector, make_rng, record
from .mirror import kl_divergence


def run_am(problem, x0, sweeps):
    """Cyclic alternating minimization; one record per sweep.

    problem.block_argmin(i, x) must return x with block i exactly minimized.
    The objective is checked to be non-increasing across every block update.
    """
    argmin = problem.require("block_argmin")
    D = problem.n_blocks
    if not D:
        raise InvalidProblem("problem must declare n_blocks")

    def iterates(x):
        v = problem.value(x)
        while True:
            yield x, v, None, {}
            for i in range(D):
                x = argmin(i, x)
                v_new = problem.value(x)
                if v_new > v + 1e-9 * (1.0 + abs(v)):
                    raise InvalidProblem("block argmin increased the objective")
                v = v_new

    return record(iterates, x0, sweeps, problem.f_star)


def run_ram(problem, x0, N, seed=0):
    """Randomized alternating minimization: one uniform random block per step.

    A sequence of seeds runs them all as one batch (see core.record):
    block_argmin then takes an (S, d) point and an S-vector of block indices.
    """
    argmin = problem.require("block_argmin")
    D = problem.n_blocks

    def iterates(x, rng):
        while True:
            yield x, problem.value(x), None, {}
            i = rng.integers(D)
            x = argmin(i if x.ndim == 2 else int(i), x)

    return record(iterates, x0, N, problem.f_star, seed)


def run_gauss_southwell(problem, h, x0, N):
    """Coordinate descent on the coordinate with the largest gradient entry."""
    def iterates(x):
        while True:
            v, g = problem.value_and_grad(x)
            a = np.abs(g)
            yield x, v, float(np.maximum.reduce(a)), {}
            i = int(np.argmax(a))
            x = x.copy()
            x[i] -= h * g[i]

    return record(iterates, x0, N, problem.f_star)


def alternating_projections(proj1, proj2, x0, N):
    """Alternating projections x_n = P1(y_{n-1}), y_n = P2(x_n); returns the pair list."""
    y = as_vector(x0).copy()
    pairs = []
    for _ in range(N):
        x = proj1(y)
        y = proj2(x)
        pairs.append((x.copy(), y.copy()))
    return pairs


class EotInstance:
    """Entropic OT instance: cost C over X x Y and probability marginals mu, nu.

    The regularization strength is absorbed into C (divide C by eps_reg first).
    """

    def __init__(self, C, mu, nu):
        self.C = np.asarray(C, dtype=float)
        self.mu = as_vector(mu)
        self.nu = as_vector(nu)
        if self.C.shape != (self.mu.size, self.nu.size):
            raise InvalidProblem("cost shape must match the marginals")
        if not np.all(np.isfinite(self.C)):
            raise InvalidProblem("cost must be finite")
        for w in (self.mu, self.nu):
            if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
                raise InvalidProblem("marginals must be probability vectors")

    @staticmethod
    def random(nx, ny, seed=0, cost_scale=1.0):
        rng = make_rng(seed)
        C = rng.uniform(0.0, cost_scale, size=(nx, ny))
        mu = rng.uniform(0.5, 1.5, size=nx)
        nu = rng.uniform(0.5, 1.5, size=ny)
        return EotInstance(C, mu / mu.sum(), nu / nu.sum())


def _logsumexp_rows(M):
    mx = np.max(M, axis=1)
    return mx + np.log(np.sum(np.exp(M - mx[:, None]), axis=1))


class SinkhornResult(namedtuple("SinkhornResult", "f g plan mu_err nu_err kl_mu")):
    """Final potentials and plan; per-iteration marginal errors and KL as arrays."""


def _plan(inst, f, g):
    log_plan = (f[:, None] + g[None, :] - inst.C
                + np.log(inst.mu)[:, None] + np.log(inst.nu)[None, :])
    return np.exp(log_plan)


def sinkhorn(instance, N, tol=None):
    """Log-domain Sinkhorn from the normalized plan exp(-C) mu x nu / Z.

    One iteration is an f-update (making the row marginal exactly mu) followed
    by a g-update (making the column marginal exactly nu). Records the l1
    marginal errors and KL(mu_n || mu) of the post-iteration plan. Stops early
    when both marginal errors fall below tol, repeating the converged state.
    """
    inst = instance
    log_mu = np.log(inst.mu)
    log_nu = np.log(inst.nu)
    # split of the initial normalizer: f const, g = 0 gives the gamma^0 plan
    Z = _logsumexp_rows((-inst.C + log_mu[:, None] + log_nu[None, :]).reshape(1, -1))[0]
    f = np.full(inst.mu.size, -Z)
    g = np.zeros(inst.nu.size)
    mu_err, nu_err, kl_mu = [], [], []
    for _ in range(N):
        f = -_logsumexp_rows(g[None, :] + log_nu[None, :] - inst.C)
        g = -_logsumexp_rows((f[:, None] + log_mu[:, None] - inst.C).T)
        plan = _plan(inst, f, g)
        mu_hat = plan.sum(axis=1)
        nu_hat = plan.sum(axis=0)
        mu_err.append(float(np.sum(np.abs(mu_hat - inst.mu))))
        nu_err.append(float(np.sum(np.abs(nu_hat - inst.nu))))
        kl_mu.append(kl_divergence(mu_hat, inst.mu))
        if tol is not None and mu_err[-1] <= tol and nu_err[-1] <= tol:
            break
    plan = _plan(inst, f, g)
    return SinkhornResult(f, g, plan, np.asarray(mu_err), np.asarray(nu_err), np.asarray(kl_mu))


def sinkhorn_half_step_marginal(instance, N):
    """Row marginal of the plan right after the N-th f-update (exactly mu)."""
    res = sinkhorn(instance, N)
    g = res.g
    log_nu = np.log(instance.nu)
    f = -_logsumexp_rows(g[None, :] + log_nu[None, :] - instance.C)
    return _plan(instance, f, g).sum(axis=1)


def initial_plan(instance):
    M = np.exp(-instance.C) * np.outer(instance.mu, instance.nu)
    return M / M.sum()


def sinkhorn_reference(instance):
    """High-accuracy plan gamma* plus KL(gamma* || gamma^0) for the bound checks:
    Sinkhorn to marginal errors of 1e-12, within 10^5 iterations."""
    tol = 1e-12
    res = sinkhorn(instance, 10 ** 5, tol=tol)
    if res.mu_err[-1] > tol or res.nu_err[-1] > tol:
        raise InvalidInput("reference run did not converge to %g" % tol)
    kl0 = kl_divergence(res.plan.ravel(), initial_plan(instance).ravel())
    return res.plan, kl0


def eot_primal_value(instance, plan):
    """<C, plan> + KL(plan || mu x nu) (regularization strength 1)."""
    return float(np.sum(plan * instance.C)) + kl_divergence(
        plan.ravel(), np.outer(instance.mu, instance.nu).ravel())


def eot_dual_value(instance, f, g):
    """sum f mu + sum g nu - (sum exp(f + g - c) mu nu - 1)."""
    f = as_vector(f)
    g = as_vector(g)
    mass = float(np.sum(np.exp(f[:, None] + g[None, :] - instance.C)
                        * np.outer(instance.mu, instance.nu)))
    return float(f @ instance.mu) + float(g @ instance.nu) - (mass - 1.0)
