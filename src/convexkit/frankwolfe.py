"""Frank-Wolfe over linear optimization oracles, plus constructive approximate Caratheodory."""

import itertools
import math

import numpy as np

from .core import NumericalError, as_vector, record


def loo_box(p, lo, hi):
    """Vertex of the box [lo, hi] minimizing <p, .>; ties toward lo (smallest index rule)."""
    p = as_vector(p)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), p.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), p.shape)
    return np.where(p >= 0, lo, hi).astype(float).copy()


def loo_l1ball(p, r):
    """Vertex +-r e_i of the l1 ball minimizing <p, .>, smallest index on ties."""
    p = as_vector(p)
    i = int(np.argmax(np.abs(p)))
    v = np.zeros_like(p)
    v[i] = -r * (1.0 if p[i] > 0 else -1.0) if p[i] != 0 else r
    return v


def loo_simplex(p):
    """e_i with i the smallest minimizing coordinate of p."""
    p = as_vector(p)
    v = np.zeros_like(p)
    v[int(np.argmin(p))] = 1.0
    return v


def _add_vertex(vertices, weights, s, h):
    """Scale the weights by 1 - h, then give vertex s weight h: added to an
    exact duplicate already in the list, else appended."""
    weights[:] = [w * (1.0 - h) for w in weights]
    for i, v in enumerate(vertices):
        if np.array_equal(v, s):
            weights[i] += h
            return
    vertices.append(s.copy())
    weights.append(h)


def run_fw(problem, loo, x0, N):
    """Frank-Wolfe with h_n = 2/(n+2); returns (trace, vertex list with weights).

    The trace records the duality-gap certificate <grad, x - s> as custom
    column "fw_gap"; the iterate after n steps is a convex combination of at
    most n+1 vertices.
    """
    vertices, weights = [], []

    def iterates(x):
        vertices.append(x.copy())
        weights.append(1.0)
        for n in itertools.count():
            v, g = problem.value_and_grad(x)
            s = loo(g)
            fw_gap = float(g @ (x - s))
            yield x, v, float(np.linalg.norm(g)), {"fw_gap": fw_gap}
            h = 2.0 / (n + 2.0)
            x = (1.0 - h) * x + h * s
            _add_vertex(vertices, weights, s, h)

    trace = record(iterates, x0, N, problem.f_star)
    return trace, list(zip(vertices, weights))


def approx_caratheodory(x, loo, eps, diameter, max_iter=None):
    """Express x (a point of C) as a sparse convex combination of vertices.

    Runs FW on z -> ||x - z||^2 from a vertex; the error after N steps obeys
    ||z_N - x||^2 <= 4 D^2 / (N + 1), so N <= 4/eps^2 suffices for error eps*D.
    Returns (vertices, weights, error).
    """
    x = as_vector(x)
    if max_iter is None:
        max_iter = int(math.ceil(4.0 / (eps * eps))) + 1
    z = loo(-x)  # any vertex works as the start
    vertices = [z.copy()]
    weights = [1.0]
    for n in range(max_iter):
        err = float(np.linalg.norm(z - x))
        if err <= eps * diameter:
            return vertices, weights, err
        g = 2.0 * (z - x)
        s = loo(g)
        h = 2.0 / (n + 2.0)
        z = (1.0 - h) * z + h * s
        _add_vertex(vertices, weights, s, h)
    raise NumericalError("no eps-approximation within the budget; is x in C?")
