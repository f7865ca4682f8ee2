"""Problem zoo: statistical objectives, worst-case constructions, resisting oracles."""

import math
from itertools import combinations

import numpy as np

from .core import Ball, Design, InvalidProblem, ProblemOracle, as_vector, make_rng
from .proximal import prox_l1


SYMMETRY_BLOCK = 1 << 16  # numbers per block of rows in make_quadratic's symmetry test


def make_quadratic(A, b):
    """f(x) = 1/2 <x, Ax> - <b, x> with A symmetric PSD.

    value and gradient are row-wise: given an (S, d) row matrix they return
    S values and an (S, d) matrix of gradients.
    """
    A = np.asarray(A, dtype=float)
    b = as_vector(b)
    if A.shape != (b.size, b.size):
        raise InvalidProblem("A must be square and match b")
    # a block of rows at a time, so that no temporary is near A's size
    rows = SYMMETRY_BLOCK // b.size + 1
    blocks = [slice(i, i + rows) for i in range(0, b.size, rows)]
    asym = np.max([np.max(np.abs(A[r] - A[:, r].T)) for r in blocks])
    if asym > 1e-12 * (1 + np.max([np.max(np.abs(A[r])) for r in blocks])):
        raise InvalidProblem("A must be symmetric")
    evals = np.linalg.eigvalsh(A)
    if evals[0] < -1e-10 * max(1.0, evals[-1]):
        raise InvalidProblem("A must be PSD")
    alpha = max(evals[0], 0.0)
    beta = float(evals[-1])
    f_star = x_star = None
    if evals[0] > 1e-12 * max(1.0, evals[-1]):
        x_star = np.linalg.solve(A, b)
        f_star = -0.5 * float(b @ x_star)
    value, grad, value_and_grad = _quadratic_oracles(A, b)

    last = [None, None]  # the last step h and (I + hA)^-1, inverted when h first comes

    def prox(y, h):  # argmin of f + ||.-y||^2/(2h) solves (I + hA)x = y + hb
        if last[0] != h:
            last[:] = h, np.linalg.inv(np.eye(b.size) + h * A)
        return last[1].dot(y + h * b)

    return ProblemOracle(b.size, value, grad, value_and_grad=value_and_grad, prox=prox,
                         quadratic=(A, b), alpha=alpha, beta=beta, f_star=f_star, x_star=x_star,
                         name="quadratic")


def _quadratic_oracles(A, b):
    """make_quadratic's value, gradient and value_and_grad, shared with the chain
    quadratic, from the one product A x (x A^T for an (S, d) row matrix)."""
    def product(x):
        return x @ A.T if getattr(x, "ndim", 1) == 2 else A.dot(x)

    def value(z, x):
        if z.ndim == 2:  # z = x A^T of an (S, d) row matrix x
            return 0.5 * np.einsum("ij,ij->i", x, z) - x @ b
        return 0.5 * float(z.dot(x)) - float(b.dot(x))

    return _fit_oracles(product, value, lambda z, x: z - b)


def _fit_data(X, Y):
    """X and Y as float arrays, checked: X is n x d with n, d >= 1, Y holds one
    entry per row, and both are finite."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or min(X.shape) < 1 or Y.shape != X.shape[:1]:
        raise InvalidProblem("X must be n x d with n, d >= 1 and Y one entry per row")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise InvalidProblem("X and Y must be finite")
    return X, Y


def _fit_oracles(product, value, grad):
    """value, subgradient and value_and_grad of a function of z = product(x),
    its one pass over the data, stated once as value(z, x) and grad(z, x);
    value_and_grad shares one z."""
    def value_and_grad(x):
        z = product(x)
        return value(z, x), grad(z, x)

    return lambda x: value(product(x), x), lambda x: grad(product(x), x), value_and_grad


def make_logistic(X, Y):
    """Average logistic negative log-likelihood over rows of X with 0/1 labels."""
    X, Y = _fit_data(X, Y)
    if not np.all((Y == 0) | (Y == 1)):
        raise InvalidProblem("labels must be 0/1")
    n = X.shape[0]
    beta = float(np.linalg.eigvalsh(X.T @ X / (4.0 * n))[-1])

    def loss_grad(z, theta):
        s = 1.0 / (1.0 + np.exp(-z))
        return X.T.dot(s - Y) / n

    value, grad, value_and_grad = _fit_oracles(
        X.dot, lambda z, theta: float(np.mean(np.logaddexp(0.0, z) - Y * z)), loss_grad)
    return ProblemOracle(X.shape[1], value, grad, value_and_grad=value_and_grad,
                         design=Design("logistic", X, Y), beta=beta, name="logistic")


def make_least_squares(X, Y, name="least-squares"):
    """f(theta) = (1/2n) ||Y - X theta||^2."""
    X, Y = _fit_data(X, Y)
    n = X.shape[0]
    H = X.T @ X / n
    evals = np.linalg.eigvalsh(H)

    def loss(z, theta):
        r = z - Y
        return 0.5 * float(r.dot(r)) / n

    value, grad, value_and_grad = _fit_oracles(X.dot, loss, lambda z, theta: X.T.dot(z - Y) / n)
    x_star = f_star = None
    if evals[0] > 1e-12 * max(1.0, evals[-1]):
        x_star = np.linalg.solve(H, X.T @ Y / n)
        f_star = value(x_star)
    return ProblemOracle(X.shape[1], value, grad, value_and_grad=value_and_grad,
                         design=Design("least-squares", X, Y), alpha=max(evals[0], 0.0),
                         beta=float(evals[-1]), f_star=f_star, x_star=x_star, name=name)


def make_lasso(X, Y, lam):
    """Least squares plus lam*||theta||_1; composite with a prox-friendly part. Its three
    oracles share f's one pass, so a value alone also computes f's gradient."""
    if not 0 <= lam < math.inf:
        raise InvalidProblem("lam must be finite and >= 0")
    f = make_least_squares(X, Y, name="lasso-smooth")
    g = ProblemOracle(f.dim, lambda x: lam * float(np.add.reduce(np.abs(x), axis=None)),
                      prox=lambda y, h: prox_l1(y, lam * h))
    value, subgrad, value_and_grad = _fit_oracles(
        f.value_and_grad, lambda vg, x: vg[0] + g.value(x), lambda vg, x: vg[1] + lam * np.sign(x))
    # f + g is not smooth: beta stays inf, and f's is extra["smooth"].beta
    return ProblemOracle(f.dim, value, subgrad, value_and_grad=value_and_grad,
                         alpha=f.alpha, name="lasso", extra={"smooth": f, "reg": g})


def make_softmax_smoothed(a_rows, b, lam, beta_smooth):
    """Softmax smoothing of max_i (<a_i, x> - b_i) plus a quadratic regularizer."""
    A = np.asarray(a_rows, dtype=float)
    b = as_vector(b)
    if A.ndim != 2 or A.shape[0] != b.size or A.shape[0] == 0:
        raise InvalidProblem("need m >= 1 rows with one offset each")
    if beta_smooth <= 0 or lam < 0:
        raise InvalidProblem("need beta_smooth > 0, lam >= 0")
    smooth_const = beta_smooth * float(np.linalg.eigvalsh(A.T @ A)[-1]) + lam

    def value(z, x):  # log-sum-exp, shifted by the max
        m = float(np.max(z))
        return (m + math.log(np.sum(np.exp(z - m)))) / beta_smooth + 0.5 * lam * float(x @ x)

    def grad(z, x):
        w = np.exp(z - np.max(z))
        w /= np.sum(w)
        return A.T @ w + lam * x

    value, grad, value_and_grad = _fit_oracles(lambda x: beta_smooth * (A @ x - b), value, grad)
    return ProblemOracle(A.shape[1], value, grad, value_and_grad=value_and_grad, alpha=lam,
                         beta=smooth_const, name="softmax")


def make_worst_case_smooth(beta, d):
    """Chain quadratic that resists every gradient-span method for fewer than d steps.

    f(x) = (beta/4) * (1/2 (x_1^2 + sum (x_k - x_{k+1})^2 + x_d^2) - x_1), with
    minimizer x*_k = 1 - k/(d+1). Gradients queried from the origin only reach
    one new coordinate per step, which caps the achievable gap for N < d.
    """
    if d < 1:
        raise InvalidProblem("d must be >= 1")
    if beta <= 0:
        raise InvalidProblem("beta must be > 0")
    A = (2 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)) * (beta / 4.0)
    b = np.zeros(d)
    b[0] = beta / 4.0
    x_star = 1.0 - np.arange(1, d + 1) / (d + 1.0)
    f_star = -(beta / 8.0) * (1.0 - 1.0 / (d + 1.0))
    value, grad, value_and_grad = _quadratic_oracles(A, b)
    return ProblemOracle(d, value, grad, value_and_grad=value_and_grad, quadratic=(A, b),
                         alpha=0.0, beta=float(beta), f_star=f_star, x_star=x_star,
                         name="worst-case-smooth")


def make_worst_case_nonsmooth(N, L, R):
    """gamma*max_i x_i + (alpha/2)||x||^2 in dimension N+1; resists subgradient span methods.

    Posed on the ball of radius R, which holds x*. The subgradient oracle
    breaks argmax ties toward the smallest index, which is what keeps span
    iterates out of the last coordinate.
    """
    if L <= 0 or R <= 0:
        raise InvalidProblem("need L, R > 0")
    d = N + 1
    gamma = L / 4.0
    alpha = gamma / (R * math.sqrt(d))
    f_star = -gamma * gamma / (2 * alpha * d)
    x_star = np.full(d, -gamma / (alpha * d))

    def value(i, x):  # x[i] is the max (nan, if x holds one)
        return gamma * float(x[i]) + 0.5 * alpha * float(x.dot(x))

    def subgrad(i, x):
        e = np.zeros(d)
        e[i] = gamma
        return alpha * x + e

    # np.argmax returns the smallest maximizer
    value, subgrad, value_and_grad = _fit_oracles(lambda x: int(np.argmax(x)), value, subgrad)
    return ProblemOracle(d, value, subgrad, value_and_grad=value_and_grad, alpha=alpha,
                         L=float(L), f_star=f_star, x_star=x_star, domain=Ball(R),
                         name="worst-case-nonsmooth")


class ResistingFeasibilityOracle:
    """Adversarial separation oracle: no query is ever declared feasible.

    Maintains a box, initially [-R, R]^d; query n bisects coordinate n mod d at
    the current box midpoint and answers with the separator +-e_coord pointing
    away from the queried point. The surviving box always contains a ball of
    radius ball_radius(), so no solver can certify an eps-ball faster than the
    box shrinks.
    """

    def __init__(self, R, d):
        if R <= 0 or d < 1:
            raise InvalidProblem("need R > 0, d >= 1")
        self.R = float(R)
        self.d = int(d)
        self.lo = np.full(d, -float(R))
        self.hi = np.full(d, float(R))
        self.n = 0

    def query(self, x):
        x = as_vector(x)
        coord = self.n % self.d
        mid = 0.5 * (self.lo[coord] + self.hi[coord])
        sep = np.zeros(self.d)
        if x[coord] <= mid:
            sep[coord] = -1.0  # feasible set kept on the right half
            self.lo[coord] = mid
        else:
            sep[coord] = 1.0
            self.hi[coord] = mid
        self.n += 1
        return sep

    def ball_radius(self):
        return (self.R / 2.0) * 0.5 ** (self.n / self.d)


def make_finite_sum(components):
    """Average of smooth component oracles, kept as its components, with sampling.

    When every component has a least-squares design (make_least_squares
    gives one) with the same row count k and a C-contiguous X, the sum
    copies their (X, Y) into one stack when it is built. value, subgradient
    and value_and_grad at a contiguous 1-D point then take one batched pass
    over the stack, bitwise equal to averaging the components' own results,
    and call no component: a component's value or subgradient replaced on
    its oracle is not seen there, nor its arrays changed after the sum is
    built. Row i of the batched matmul (n, k, d) @ (d,) is X_i.dot(x) bit
    for bit, and the batched (1, k) @ (k, 1) products are r.dot(r), when x
    is contiguous; a plain (n k, d) dot, einsum or np.add.reduce rounds
    differently. Values and gradients are summed one after another, in the
    components' order, as the per-component sums are. Other components, and
    other points such as (S, d) rows, call each component in turn, value
    before subgradient in value_and_grad; stochastic_gradient, like SVRG,
    calls one component at a time.
    """
    if not components:
        raise InvalidProblem("need at least one component")
    dim = components[0].dim
    if any(c.dim != dim for c in components):
        raise InvalidProblem("components must share a dimension")
    n = len(components)
    alpha = float(np.mean([c.alpha for c in components]))
    beta = float(np.mean([c.beta for c in components]))
    Xs, Ys = _stack_designs(components)

    def residuals(x):  # the (n, k) residuals of the stack, or None off it
        if Xs is not None and getattr(x, "ndim", None) == 1 and x.flags.c_contiguous:
            return np.matmul(Xs, x) - Ys
        return None

    def value(R, x):
        if R is None:
            return sum([c.value(x) for c in components]) / n
        rr = np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0]
        return sum((0.5 * rr / R.shape[1]).tolist()) / n

    def grad(R, x):
        if R is None:
            return sum(c.subgradient(x) for c in components) / n
        return sum(np.matmul(R[:, None, :], Xs)[:, 0, :] / R.shape[1]) / n

    def stochastic_gradient(x, rng):
        return components[int(rng.integers(n))].subgradient(x)

    value, grad, value_and_grad = _fit_oracles(residuals, value, grad)
    return ProblemOracle(dim, value, grad, value_and_grad=value_and_grad,
                         stochastic_gradient=stochastic_gradient, components=components,
                         alpha=alpha, beta=beta, name="finite-sum")


def _stack_designs(components):
    """(Xs, Ys) of shapes (n, k, d) and (n, k) from least-squares components
    that share k and have C-contiguous X, else (None, None)."""
    data = [c.design for c in components]
    if not all(xy is not None and xy.loss == "least-squares" and xy.X.flags.c_contiguous
               and xy.X.shape == data[0].X.shape for xy in data):
        return None, None
    return np.stack([xy.X for xy in data]), np.stack([xy.Y for xy in data])


def make_svm_hinge(X, Y, lam):
    """Soft-margin SVM: mean hinge loss plus (lam/2)||theta||^2 with labels in {-1, 1}, on
    the ball of radius max_i ||X_i|| / lam that holds every minimizer (10 if lam = 0)."""
    X, Y = _fit_data(X, Y)
    if not np.all(np.abs(Y) == 1):
        raise InvalidProblem("labels must be -1 or +1")
    if not 0 <= lam < math.inf:
        raise InvalidProblem("lam must be finite and >= 0")
    n = X.shape[0]
    row_norm = float(np.max(np.linalg.norm(X, axis=1)))
    # any minimizer satisfies ||theta*|| <= max_i ||X_i|| / lam (gradient balance)
    ball_radius = row_norm / lam if lam > 0 else 10.0
    L = row_norm + lam * ball_radius

    def loss(z, theta):
        hinge = float(np.add.reduce(np.maximum(0.0, 1.0 - Y * z)) / n)
        return hinge + 0.5 * lam * float(theta.dot(theta))

    def loss_grad(z, theta):
        # at the kink (margin Y z = 1) 0 is a valid subgradient; the minus stays
        # outside the product, as X.T.dot(-v) gives some zeros the other sign
        return -X.T.dot(Y * (Y * z < 1.0)) / n + lam * theta

    value, subgrad, value_and_grad = _fit_oracles(X.dot, loss, loss_grad)
    return ProblemOracle(X.shape[1], value, subgrad, value_and_grad=value_and_grad,
                         design=Design("hinge", X, Y), alpha=lam, L=L, domain=Ball(ball_radius),
                         name="svm-hinge")


def make_experts_instance(T, d, seed=0):
    """Adversarial-looking loss stream for the experts problem, entries in [-1, 1]."""
    rng = make_rng(seed)
    losses = rng.uniform(-1.0, 1.0, size=(T, d))
    # make one expert clearly best so the regret comparison is non-degenerate
    losses[:, 0] -= 0.2
    return np.clip(losses, -1.0, 1.0)


class LpInstance:
    """Polytope {x : Ax <= b} with objective <c, x> and a known interior point."""

    def __init__(self, A, b, c, x_interior):
        self.A = np.asarray(A, dtype=float)
        self.b = as_vector(b)
        self.c = as_vector(c)
        self.x_interior = as_vector(x_interior)

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]


def make_random_lp(m, d, seed=0):
    """Random bounded LP: unit-sphere constraint rows (including the +-e_i box
    rows, which guarantee boundedness), b = A x_int + positive slacks."""
    if m < 2 * d:
        raise InvalidProblem("need m >= 2d so the box rows fit")
    rng = make_rng(seed)
    rows = [np.eye(d)[i] * s for i in range(d) for s in (1.0, -1.0)]
    while len(rows) < m:
        v = rng.normal(size=d)
        rows.append(v / np.linalg.norm(v))
    A = np.stack(rows)
    x_int = np.zeros(d)
    b = A @ x_int + rng.uniform(0.5, 1.5, size=m)
    c = rng.normal(size=d)
    c /= np.linalg.norm(c)
    return LpInstance(A, b, c, x_int)


def lp_vertex_optimum(lp):
    """Brute-force LP optimum by enumerating basic feasible points."""
    A, b, c = lp.A, lp.b, lp.c
    best_val, best_x = math.inf, None
    for idx in combinations(range(lp.m), lp.d):
        sub = A[list(idx)]
        try:
            v = np.linalg.solve(sub, b[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(A @ v <= b + 1e-9):
            val = float(c @ v)
            if val < best_val:
                best_val, best_x = val, v
    if best_x is None:
        raise InvalidProblem("no feasible vertex found")
    return best_x, best_val
