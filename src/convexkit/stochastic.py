"""Stochastic gradient methods: SGD/SMPGD, Polyak-Ruppert averaging with an
empirical CLT check, and SVRG."""

import itertools
import math

import numpy as np

from .core import (DivergenceError, InvalidInput, as_vector, composite_value, make_rng,
                   record, row_norm)


def run_sgd(problem, h, x0, N, seed=0):
    """Plain SGD with a constant step; the trace records the exact objective.

    A sequence of seeds runs them all as one batch and returns their S-seed
    trace (see core.record); the oracles must then be row-wise.
    """
    grad = problem.require("stochastic_gradient")

    def iterates(x, rng):
        while True:
            yield x, problem.value(x), None, {}
            x = x - h * grad(x, rng)

    return record(iterates, x0, N, problem.f_star, seed)


def smpgd_lambda(alpha_f, alpha_g, h):
    return (1.0 - alpha_f * h) / (1.0 + alpha_g * h)


def run_smpgd(f, g, geometry, h, x0, N, seed=0):
    """Stochastic mirror proximal gradient descent with the proof's weighting.

    The returned trace's final_point is the lambda_h-geometrically weighted
    average of the iterates (weights lambda_h^(N-n)), the uniform average when
    alpha_f = alpha_g = 0, and its last_iterate is the last iterate. A
    sequence of seeds runs as one batch, as in run_sgd.
    """
    grad = f.require("stochastic_gradient")
    lam = smpgd_lambda(f.alpha, 0.0 if g is None else g.alpha, h)
    total = composite_value(f, g)
    last = {}

    def iterates(x, rng):
        avg = x
        W = 1.0
        while True:
            last["x"] = x
            yield avg, total(x), None, {"avg_value": total(avg)}
            w = geometry.grad_star(geometry.grad(x) - h * grad(x, rng))
            if g is not None:
                w = g.prox(w, h)
            x = w
            # running lambda-weighted average: older weights decay by lambda
            W = lam * W + 1.0
            avg = avg + (x - avg) / W

    trace = record(iterates, x0, N, f.f_star, seed)
    trace.last_iterate = last["x"]
    return trace


def run_asgd(problem, gamma, x0, n, seed=0):
    """SGD with steps h_k = k^-gamma plus Polyak-Ruppert (uniform) averaging
    of iterates 0..n-1. Returns (theta_bar, trace of squared distances).

    A sequence of seeds runs as one batch, as in run_sgd: theta_bar is then
    (S, d) and the trace an S-seed one.
    """
    if not 0.5 < gamma < 1.0:
        raise InvalidInput("gamma must lie in (1/2, 1)")
    if n < 1:
        raise InvalidInput("n must be >= 1")
    grad = problem.require("stochastic_gradient")
    x_star = problem.x_star
    sums = {}

    def dist2(x):  # 0 (one per row) when x* is unknown
        return row_norm(x - x_star) ** 2 if x_star is not None else 0.0 * row_norm(x)

    def iterates(x, rng):
        total = sums["total"] = np.zeros_like(x)
        for k in itertools.count():
            total += x
            yield x, dist2(x), None, {}
            x = x - (k + 1.0) ** (-gamma) * grad(x, rng)

    trace = record(iterates, x0, n - 1, None, seed)
    trace.final_point = theta_bar = sums["total"] / n
    return theta_bar, trace


def clt_check(A, theta_star, gamma, n, trials, seed=0):
    """Empirical CLT for averaged SGD on Gaussian mean estimation.

    theta_{k+1} = theta_k - h_{k+1} A (theta_k - X_{k+1}) with samples
    X ~ N(theta*, A^-1) and h_k = k^-gamma, run over many trials
    (vectorized). The gradient noise A (theta* - X) then has covariance A,
    so the averaged iterate matches the sample mean's efficiency. Returns
    (empirical covariance of sqrt(n)(theta_bar - theta*), target A^-1,
    relative Frobenius error).

    Each step is theta -= (h (theta - X)) A^T, computed in place in
    preallocated buffers: the scaling by h comes before the product, as the
    expression reads, because for a non-diagonal A the other order rounds
    differently. The products take contiguous copies of C^T and A^T, and
    theta* is added from a (trials, d) copy: added as a broadcast d-vector,
    numpy runs its inner loop once per row.

    InvalidInput unless n >= 1, trials >= 1, 1/2 < gamma < 1, and A is a
    finite, symmetric, positive definite d x d matrix, d the size of theta*.
    """
    A = np.asarray(A, dtype=float)
    theta_star = as_vector(theta_star)
    d = theta_star.size
    if n < 1 or trials < 1:
        raise InvalidInput("need n >= 1 and trials >= 1, not %r and %r" % (n, trials))
    if not 0.5 < gamma < 1.0:
        raise InvalidInput("need 1/2 < gamma < 1, not %r" % (gamma,))
    if A.shape != (d, d) or not np.isfinite(A).all() or not np.array_equal(A, A.T):
        raise InvalidInput("A must be a finite symmetric %d x %d matrix, as theta* has %d "
                           "entries" % (d, d, d))
    try:
        C = np.linalg.cholesky(np.linalg.inv(A))
    except np.linalg.LinAlgError as exc:
        raise InvalidInput("A must be positive definite") from exc
    rng = make_rng(seed)
    CT, AT = np.ascontiguousarray(C.T), np.ascontiguousarray(A.T)
    shift = np.tile(theta_star, (trials, 1))
    theta = np.zeros((trials, d))
    total = np.zeros((trials, d))
    Z = np.empty((trials, d))  # the step's normals
    X = np.empty((trials, d))  # the step's samples, then the step itself
    D = np.empty((trials, d))  # h (theta - X)
    for k in range(n):
        total += theta
        rng.standard_normal(out=Z)
        np.matmul(Z, CT, out=X)
        X += shift
        np.subtract(theta, X, out=D)
        D *= (k + 1.0) ** (-gamma)
        np.matmul(D, AT, out=X)
        theta -= X
    theta_bar = total / n
    err = math.sqrt(n) * (theta_bar - theta_star[None, :])
    cov = err.T @ err / trials
    target = np.linalg.inv(A)
    rel = float(np.linalg.norm(cov - target) / np.linalg.norm(target))
    return cov, target, rel


def svrg_estimator(problem, i, x, anchor, anchor_grad):
    """SVRG gradient estimator: grad f_i(x) - grad f_i(anchor) + grad f(anchor)."""
    f_i = problem.require("components")[i]
    return f_i.subgradient(x) - f_i.subgradient(anchor) + anchor_grad


def svrg_epoch_length(problem, h):
    """Constant epoch length for the strongly convex regime: lambda_h^N <= 1/2."""
    lam = smpgd_lambda(problem.alpha, 0.0, h)
    if lam >= 1.0:
        raise InvalidInput("needs a strongly convex problem")
    if lam <= 0.0:
        raise InvalidInput("needs a step h below 1/alpha")
    return int(math.ceil(math.log(2.0) / -math.log(lam)))


def run_svrg(problem, x0, epochs, seed=0, target_gap=None):
    """SVRG over a finite-sum problem; returns (trace, gradient evaluation count).

    The step is h = 1/(8 max_i beta_i). One epoch: compute the anchor's full
    gradient (one evaluation per component), run svrg_epoch_length inner
    steps with the variance-reduced estimator (counted as one fresh component
    evaluation each; the anchor's component gradients are treated as cached
    from the full-gradient pass), then move the anchor to the
    lambda_h-weighted average of the epoch's iterates. Given target_gap and a
    declared f*, the trace ends after the first epoch whose anchor is within
    target_gap of f*; at least one epoch runs. The running count is the
    custom column "evals".
    """
    components = problem.require("components")
    n_comp = len(components)
    h = 1.0 / (8.0 * max(c.beta for c in components))
    lam = smpgd_lambda(problem.alpha, 0.0, h)
    N = svrg_epoch_length(problem, h)

    def iterates(anchor, rng):
        evals = 0
        yield anchor, problem.value(anchor), None, {}
        while True:
            full = problem.subgradient(anchor)
            evals += n_comp
            x = avg = anchor
            W = 1.0
            for _ in range(N):
                i = int(rng.integers(n_comp))
                v = svrg_estimator(problem, i, x, anchor, full)
                evals += 1
                x = x - h * v
                if not np.isfinite(x).all():
                    raise DivergenceError("SVRG iterate diverged")
                W = lam * W + 1.0
                avg = avg + (x - avg) / W
            anchor = avg
            value = problem.value(anchor)
            yield anchor, value, None, {"evals": float(evals)}
            if target_gap is not None and problem.f_star is not None:
                if value - problem.f_star <= target_gap:
                    return

    trace = record(iterates, x0, epochs, problem.f_star, seed)
    evals = trace.custom("evals")[-1]  # NaN when no epoch ran
    return trace, 0 if math.isnan(evals) else int(evals)
