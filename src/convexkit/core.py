"""Shared numeric types: oracles, traces, the recording driver, rate fitting, solver dispatch."""

import collections
import functools
import itertools
import math
import numbers
from collections import namedtuple

import numpy as np


class ConvexkitError(Exception):
    pass


class NumericalError(ConvexkitError):
    pass


class InvalidProblem(ConvexkitError):
    pass


class InvalidInput(ConvexkitError):
    pass


class DivergenceError(ConvexkitError):
    pass


class CapabilityError(ConvexkitError):
    pass


class InsufficientData(ConvexkitError):
    pass


class NotPositiveDefinite(ConvexkitError):
    pass


class InvalidSeparator(ConvexkitError):
    pass


class NoFeasiblePoint(ConvexkitError):
    pass


class InfeasibleOrBudget(ConvexkitError):
    pass


class DomainError(ConvexkitError):
    pass


class SingularHessian(ConvexkitError):
    pass


class CenteringFailed(ConvexkitError):
    pass


DIVERGENCE_FACTOR = 1e12


def as_vector(x):
    """Validate and return a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInput("expected a vector of dimension >= 1")
    # v.v is finite only if every entry is, in one pass (np.vdot gives inf, not a
    # warning, on overflow); np.isfinite decides when it is not, as in check_divergence
    if not (math.isfinite(np.vdot(v, v)) or np.isfinite(v).all()):
        raise NumericalError("vector has non-finite entries")
    return v


class Ball(namedtuple("Ball", "radius")):
    """The domain {x : ||x|| <= radius}, a ball about the origin."""
    what = "a ball"


class Simplex(namedtuple("Simplex", "")):
    """The domain {x >= 0 : sum(x) = 1}."""
    what = "the simplex"


class Design(namedtuple("Design", "loss X Y")):
    """The data of a data-fit problem: f(theta) is the named loss of z = X theta and Y."""


class ProblemOracle:
    """Bundle of value/subgradient oracles, optional capabilities, and declared constants.

    value_and_grad(x) returns (value(x), subgradient(x)); a problem that can
    share one pass over its data passes a fused function that returns
    bitwise the same pair. Without one it calls subgradient, then value.
    Capabilities (all optional): prox(y, h), loo(p), block_argmin(i, x),
    stochastic_gradient(x, rng).
    Data (all optional, None when not given): quadratic, the (A, b) of
    f(x) = 1/2 <x, Ax> - <b, x>, which cg solves; design, the Design(loss,
    X, Y) of a data-fit problem; components, the oracles f is the average
    of, which SVRG samples one at a time.
    Constants: alpha (strong convexity, >= 0), beta (smoothness, may be inf),
    L (Lipschitz, may be inf), f_star / x_star when known.
    domain: the set the problem is posed on, and f_star and x_star are
    optimal over: None for all of R^d, a Ball(radius) or a Simplex(). Each
    run_solver method runs on the domain kinds its registry row lists.
    """

    def __init__(self, dim, value, subgradient=None, *, value_and_grad=None, prox=None,
                 loo=None, block_argmin=None, stochastic_gradient=None, n_blocks=None,
                 quadratic=None, design=None, components=None,
                 alpha=0.0, beta=math.inf, L=math.inf, f_star=None, x_star=None,
                 domain=None, name="problem", extra=None):
        if dim < 1:
            raise InvalidProblem("dim must be >= 1")
        if math.isfinite(alpha) and math.isfinite(beta) and alpha > beta + 1e-12:
            raise InvalidProblem("need alpha <= beta")
        if not (domain is None or isinstance(domain, Simplex)
                or isinstance(domain, Ball) and domain.radius >= 0):
            raise InvalidProblem("domain must be None, a Ball of radius >= 0 or a Simplex")
        self.dim = int(dim)
        self.value = value
        self.subgradient = subgradient
        if value_and_grad is not None:
            self.value_and_grad = value_and_grad
        self.prox = prox
        self.loo = loo
        self.block_argmin = block_argmin
        self.stochastic_gradient = stochastic_gradient
        self.n_blocks = n_blocks
        self.quadratic = quadratic
        self.design = design
        self.components = components
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.L = float(L)
        self.f_star = f_star
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.domain = domain
        self.name = name
        self.extra = dict(extra) if extra else {}

    def value_and_grad(self, x):
        g = self.subgradient(x)
        return self.value(x), g

    def scale_at(self, x0):
        return 1.0 + abs(float(self.value(np.asarray(x0, dtype=float))))

    def require(self, capability):
        if getattr(self, capability, None) is None:
            raise CapabilityError("problem %r lacks the %s oracle" % (self.name, capability))
        return getattr(self, capability)


class IterateTrace:
    """The rows record writes, kept as columns, plus the final point.

    Row n is iteration n. Columns: value, grad_norm and one per custom key,
    each float and NaN where a row gives no cell; gaps() is value - f_star
    when f_star is declared. S seeds that record steps as one batch have
    S-vector cells, and trace(s) views seed s. The columns hold the given
    number of rows: add has no room beyond them.
    """

    def __init__(self, f_star=None, *, rows, seeds=None):
        self.f_star = f_star
        self.final_point = None
        self._seeds = () if seeds is None else (seeds,)
        self._n = 0
        self._value = self._column(rows)
        # "grad_norm" or a custom key -> its column, made all NaN in value's shape when
        # a row first gives it; the factory holds no self, so the trace has no cycle
        self._opt = collections.defaultdict(functools.partial(np.full_like, self._value, math.nan))

    def _column(self, rows):
        return np.full((rows,) + self._seeds, math.nan)

    def add(self, value, grad_norm, custom):
        """Write the next row: its value, its grad_norm (None: no cell) and the
        cells of the dict custom, which is read, not kept or changed."""
        n = self._n
        self._value[n] = value
        if grad_norm is not None:
            self._opt["grad_norm"][n] = grad_norm
        for key, v in custom.items():
            self._opt[key][n] = v
        self._n = n + 1

    def __len__(self):
        return self._n

    def iters(self):
        return np.arange(self._n)

    def values(self):
        return self._value[:self._n]

    def gaps(self):
        return None if self.f_star is None else self.values() - self.f_star

    def grad_norms(self):
        return self.custom("grad_norm")

    def custom(self, key):
        """Column key, NaN where a row lacks it."""
        return self._opt[key][:self._n] if key in self._opt else self._column(self._n)

    def custom_keys(self):
        return sorted(self._opt.keys() - {"grad_norm"})

    def final_value(self):
        return self.values()[-1]

    def final_gap(self):
        return None if self.f_star is None else self.final_value() - self.f_star

    def trace(self, s):
        """Seed s of a batch as a single-run trace that views its columns."""
        view = IterateTrace(self.f_star, rows=0)
        n = view._n = self._n
        view._value = self._value[:n, s]
        view._opt = {k: col[:n, s] for k, col in self._opt.items()}
        view.final_point = self.final_point[s].copy()
        return view

    @property
    def records(self):
        """The rows as a sequence: trace.records[n] is trace[n]."""
        return self

    def __getitem__(self, n):
        """Row n as a dict of one-cell views: += on "value" or a custom cell
        writes its column; "gap" is a copy of value - f_star, None without f_star."""
        self._single_run()
        n = range(self._n)[n]
        value = self._value[n:n + 1]
        return {"value": value, "gap": None if self.f_star is None else value - self.f_star,
                "custom": {k: col[n:n + 1] for k, col in self._opt.items() if k != "grad_norm"}}

    def _single_run(self):
        if self._seeds:
            raise CapabilityError("a batch has rows per seed: use trace(s)")

    def to_csv(self):
        """The trace as CSV; the time_s column is always 0, so equal runs give equal bytes."""
        self._single_run()
        n = self._n
        # one "%" over a row template; a column that no row has (the gap
        # without f_star, a grad_norm that no row gives) is left out of it
        cols = (self._value, self.gaps(), self._opt.get("grad_norm"))
        fields = ["%d"] + ["" if col is None else "%.17g" for col in cols]
        columns = [range(n)] + [col[:n].tolist() for col in cols if col is not None]
        flat = [None] * (n * len(columns))
        for i, cells in enumerate(columns):
            flat[i::len(columns)] = cells
        return ("iter,value,gap,grad_norm,time_s\n"
                + (",".join(fields) + ",0\n") * n % tuple(flat))


def check_divergence(value, x, scale):
    # x.x is finite only if every entry of the point x is; np.isfinite decides
    # when it is not (a nan or inf entry, or huge finite entries overflowing)
    if not (math.isfinite(value) and abs(value) <= DIVERGENCE_FACTOR * scale
            and (math.isfinite(x.dot(x)) or np.isfinite(x).all())):
        raise DivergenceError("iterate diverged (value %r)" % (value,))


def record(iterates, x0, N, f_star, seed=None, keep="all"):
    """Trace the first N+1 items of the generator iterates(x0 copy).

    Each item is (point, value, grad_norm, custom). No step is taken after
    record N. A generator that returns after k >= 1 items ends the trace
    early, with k records; one that yields nothing raises NumericalError. A
    value beyond 1e12 (1 + max(|value at n = 0|, |f_star|)), with |f_star|
    read as 0 when f_star is None, or a non-finite point raises
    DivergenceError. The last point becomes the trace's final_point.
    Given a seed, iterates takes (x, rng) with rng = make_rng(seed). A
    sequence of S seeds is stepped as one batch (see _rows) into an S-seed
    trace, each row with its own divergence guard and scale.

    keep="last" runs points only: iterates(x0 copy, points_only=True) may skip
    the calls that only its records need and yield None for them. The trace
    then holds no rows, only final_point, and only that point is guarded: a
    non-finite one raises DivergenceError. It takes no seed.
    """
    if N < 0:
        raise InvalidInput("budget must be >= 0")
    x0 = as_vector(x0)
    if keep == "last" and seed is None:
        x = None
        for x, _, _, _ in itertools.islice(iterates(x0.copy(), points_only=True), N + 1):
            pass
        if x is None:
            raise NumericalError("the solver yielded no iterate")
        if not np.isfinite(x).all():
            raise DivergenceError("the final iterate is not finite")
        trace = IterateTrace(f_star, rows=0)
        trace.final_point = x
        return trace
    if keep != "all":
        raise InvalidInput("keep must be \"all\", or \"last\" without a seed, not %r" % (keep,))
    if seed is None or np.ndim(seed) == 0:
        items = iterates(x0.copy()) if seed is None else iterates(x0.copy(), make_rng(seed))
        trace = IterateTrace(f_star, rows=N + 1)
        maximum, check = max, check_divergence
    else:
        seeds = list(seed)
        if not seeds:
            raise InvalidInput("need at least one seed")
        items = _rows(iterates, x0, N, seeds)
        trace = IterateTrace(f_star, rows=N + 1, seeds=len(seeds))
        maximum = np.maximum

        def check(value, X, scale):  # check_divergence on every row
            ok = (np.isfinite(value) & (np.abs(value) <= DIVERGENCE_FACTOR * scale)
                  & np.isfinite(X).all(axis=1))
            if not ok.all():
                s = int(np.argmin(ok))
                raise DivergenceError("iterate of seed %r diverged (value %r)"
                                      % (seeds[s], float(value[s])))
    add = trace.add  # bound once: each row is one call of it and one of check
    with np.errstate(over="ignore", invalid="ignore"):  # the divergence guard reports these
        for n, (x, value, grad_norm, custom) in zip(range(N + 1), items):
            if n == 0:
                scale = 1.0 + maximum(abs(value), 0.0 if f_star is None else abs(f_star))
            check(value, x, scale)
            add(value, grad_norm, custom)
    if not len(trace):
        raise NumericalError("the solver yielded no iterate")
    trace.final_point = x
    return trace


def _rows(iterates, x0, N, seeds):
    """The items of iterates(X, make_rng(seeds)), X holding S rows of x0.

    Each holds an (S, d) point, S values and S-vectors for grad_norm and the
    custom columns, so the generator's oracles must be row-wise. Row 0 of
    items 0 and 1 (the first stochastic-oracle call) is checked against the
    single-seed run of seeds[0]; an oracle that fails on, or mixes, the rows
    raises CapabilityError.
    """
    S = len(seeds)
    probe = [item for _, item in zip(range(min(N, 1) + 1),
                                      iterates(x0.copy(), make_rng(seeds[0])))]
    rows = iterates(np.tile(x0, (S, 1)), make_rng(seeds))
    for ref in probe:
        try:
            item = next(rows, None)
            if item is not None:
                _match_row0(ref, item, S)
        except (TypeError, ValueError, IndexError, AttributeError) as exc:
            raise CapabilityError("oracle is not row-wise: %s" % exc) from exc
        if item is None:
            return
        yield item
    yield from rows


def _match_row0(ref, item, S):
    """CapabilityError unless item holds S rows whose row 0 is the single-seed item ref."""
    X, value, grad_norm, extra = item
    x_ref, v_ref, g_ref, c_ref = ref
    pairs = [(X, x_ref), (value, v_ref)] + [(extra.get(k), c) for k, c in c_ref.items()]
    if g_ref is not None:
        pairs.append((grad_norm, g_ref))
    for rows, single in pairs:
        if np.shape(rows) != (S,) + np.shape(single):
            raise CapabilityError("oracle is not row-wise: a batch of %d rows gave "
                                  "the wrong shapes" % S)
        # a loose tolerance: this catches other rows, not rounding
        if not np.all(np.abs(rows[0] - single) <= 1e-9 * (1.0 + np.abs(single))):
            raise CapabilityError("oracle is not row-wise: row 0 of the batch "
                                  "differs from the single-seed run")


def composite_value(f, g):
    """The value function of F = f + g; g = None reads as 0."""
    def F(z):
        return plus_reg(f.value(z), g, z)
    return F


def plus_reg(v, g, z):
    """F(z) from v = f(z): the float composite_value(f, g)(z) gives."""
    return v if g is None else v + g.value(z)


def finite_diff_gradient(f, x):
    """Central-difference gradient of a value oracle, at step h = 1e-6."""
    h = 1e-6
    x = as_vector(x)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp, fm = f(x + e), f(x - e)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericalError("non-finite evaluation in finite differences")
        g[i] = (fp - fm) / (2 * h)
    return g


def make_rng(seed):
    """Counter-based generator so split streams are reproducible.

    A sequence of seeds gives a RowGenerator with one such stream per seed.
    """
    if np.ndim(seed) == 0:
        return np.random.Generator(np.random.Philox(seed))
    return RowGenerator(seed)


ROW_BLOCK = 1 << 18  # numbers held at once by a RowGenerator, over all rows


class RowGenerator:
    """One make_rng stream per seed, drawn a row per seed at a time.

    standard_normal(size) returns an (S, *size) array and integers(n) an
    (S,) array; row s is what make_rng(seeds[s]) returns for the same call.
    Rows are refilled from per-seed blocks of about ROW_BLOCK / S numbers: on
    numpy's Philox one block draw equals the same number of single draws,
    for either method. A stream serves one kind of draw (normals, or
    integers below one n), since mixing kinds would reorder the blocks
    against the single-seed streams.
    """

    def __init__(self, seeds):
        self._gens = [make_rng(s) for s in seeds]
        if not self._gens:
            raise InvalidInput("need at least one seed")
        self._kind = None
        self._buf = None
        self._pos = 0

    def __len__(self):
        return len(self._gens)

    def _take(self, kind, k, draw):
        if self._kind is None:
            self._kind = kind
        elif kind != self._kind:
            raise CapabilityError("a row generator serves one kind of draw: "
                                  "%r after %r" % (kind, self._kind))
        if self._buf is None or self._pos + k > self._buf.shape[1]:
            m = max(k, ROW_BLOCK // len(self._gens))
            fresh = np.stack([draw(g, m) for g in self._gens])
            self._buf = fresh if self._buf is None else np.concatenate(
                [self._buf[:, self._pos:], fresh], axis=1)
            self._pos = 0
        out = self._buf[:, self._pos:self._pos + k]
        self._pos += k
        return out

    def standard_normal(self, size=None):
        shape = () if size is None else (size,) if np.ndim(size) == 0 else tuple(size)
        k = math.prod(shape)
        return self._take("normal", k, lambda g, m: g.standard_normal(m)).reshape(
            (len(self),) + shape)

    def integers(self, n):
        return self._take(("integers", n), 1, lambda g, m: g.integers(n, size=m))[:, 0]


_FLOAT64 = np.dtype(np.float64)


def norm(v):
    """float(np.linalg.norm(v)), bitwise; for a float64 array without its overhead,
    by the sqrt(x.dot(x)) over x = v.ravel("K") that numpy computes too."""
    if type(v) is np.ndarray and v.dtype == _FLOAT64:
        x = v.ravel("K")
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(v))


def row_norm(v):
    """||v|| of a vector, or the norm of each row of a row matrix."""
    return norm(v) if v.ndim == 1 else np.linalg.norm(v, axis=1)


def fit_rate(iters, gaps, skip=0):
    """Least-squares fit of gaps[k] at iteration iters[k]: power law C*n^e vs geometric C*rho^n.

    Returns (exponent, r2, kind) where kind is "polynomial" or "exponential";
    exponent is the power e or log(rho) respectively. Fits the pairs with
    iteration >= max(1, skip) and a positive gap; gaps = None (a trace without
    f_star) raises InsufficientData.
    """
    if gaps is None:
        raise InsufficientData("no gaps (f_star unknown)")
    iters, gaps = np.asarray(iters), np.asarray(gaps, dtype=float)
    keep = (iters >= max(1, skip)) & (gaps > 0)
    if np.count_nonzero(keep) < 10:
        raise InsufficientData("need >= 10 records with positive gap")
    n = iters[keep].astype(float)
    lg = np.log(gaps[keep])

    def lsq(xs):
        A = np.stack([xs, np.ones_like(xs)], axis=1)
        coef, *_ = np.linalg.lstsq(A, lg, rcond=None)
        resid = lg - A @ coef
        tot = lg - lg.mean()
        denom = float(tot @ tot)
        r2 = 1.0 if denom == 0 else 1.0 - float(resid @ resid) / denom
        return coef[0], r2

    e_poly, r2_poly = lsq(np.log(n))
    e_geo, r2_geo = lsq(n)
    if r2_poly >= r2_geo:
        return float(e_poly), float(r2_poly), "polynomial"
    return float(e_geo), float(r2_geo), "exponential"


# --- uniform solver dispatch -------------------------------------------------

# A registry row: the method's names, the oracles it needs, the domain kinds it runs on
# (classes, NoneType for R^d; None: any), its default step(problem, N) from the declared
# constants or None if it takes none, run(problem, x0, N, h, seed), rate(problem, N, R).
Solver = namedtuple("Solver", "names oracles domain step run rate")


@functools.lru_cache(maxsize=None)
def _solver_registry():
    # imported lazily so core stays at the bottom of the dependency order
    from . import frankwolfe, gradient, krylov, mirror, nonsmooth, proximal, stochastic
    in_rd = (type(None), Ball)  # a ball only where it holds the unprojected minimizer

    inverse = lambda c, numerator=1.0: numerator / c if c > 0 else math.inf  # inf: no default
    smooth = lambda p: p.extra.get("smooth", p)  # the smooth part of f + g, else the problem
    part = lambda p: smooth(p).beta  # the smoothness of f in f + g
    own = lambda p: p.beta  # inf for f + g with g nonsmooth, as make_lasso declares
    gd_rate = lambda beta: lambda p, N, R: beta(p) * R ** 2 / (2.0 * N)  # at step 1/beta
    agd_rate = lambda beta: lambda p, N, R: 2.0 * beta(p) * R ** 2 / (N * N)

    table = [
        Solver(("gd",), ("subgradient",), in_rd, lambda p, N: inverse(p.beta),
               lambda p, x0, N, h, seed: gradient.run_gd(p, h, x0, N), gd_rate(own)),
        Solver(("agd",), ("subgradient",), in_rd, None,
               lambda p, x0, N, h, seed: gradient.run_agd(p, x0, N), agd_rate(own)),
        Solver(("psd",), ("subgradient",), (Ball,),
               lambda p, N: p.domain.radius / math.sqrt(max(N, 1)),
               lambda p, x0, N, h, seed: nonsmooth.run_psd(
                   p, functools.partial(nonsmooth.project_ball, c=np.zeros(p.dim),
                                        r=p.domain.radius), h, x0, N),
               lambda p, N, R: p.L * R / math.sqrt(N)),  # R: its step's R / sqrt(N)
        Solver(("fw",), ("loo",), None, None,
               lambda p, x0, N, h, seed: frankwolfe.run_fw(p, p.loo, x0, N)[0], None),
        Solver(("ista", "pgd"), (), in_rd, lambda p, N: inverse(part(p)),
               lambda p, x0, N, h, seed: proximal.run_pgd(
                   smooth(p), p.extra.get("reg"), h, x0, N, p.f_star), gd_rate(part)),
        Solver(("fista", "apgd"), (), in_rd, None,
               lambda p, x0, N, h, seed: proximal.run_apgd(
                   smooth(p), p.extra.get("reg"), x0, N, p.f_star), agd_rate(part)),
        Solver(("ppm",), ("prox",), in_rd, lambda p, N: 1.0,
               lambda p, x0, N, h, seed: proximal.run_ppm(p, h, x0, N),
               lambda p, N, R: R ** 2 / (2.0 * N)),  # R^2 / (2hN) at h = 1
        Solver(("md",), ("subgradient",), (Simplex,),
               lambda p, N: inverse(p.L, math.sqrt(2 * math.log(p.dim) / max(N, 1))),
               lambda p, x0, N, h, seed: mirror.run_mpgd(  # from the centre: 0 is not positive
                   p, None, mirror.entropic_geometry(p.dim), h, np.full(p.dim, 1.0 / p.dim),
                   N, constraint="simplex"),
               lambda p, N, R: p.L * math.sqrt(2.0 * math.log(p.dim) / N)),  # on the average
        Solver(("sgd",), ("stochastic_gradient",), in_rd, lambda p, N: inverse(2 * p.beta),
               lambda p, x0, N, h, seed: stochastic.run_sgd(p, h, x0, N, seed), None),
        # AGD's iterate is in the Krylov space that CG minimizes over
        Solver(("cg",), ("quadratic",), in_rd, None,
               lambda p, x0, N, h, seed: krylov.cg_solve(*p.quadratic, x0, N, f_star=p.f_star)[0],
               agd_rate(own)),
    ]
    return {name: row for row in table for name in row.names}


def solver_names():
    return sorted(_solver_registry())


def _solver(name):
    """The registry row of a run_solver name; InvalidInput for any other name."""
    solvers = _solver_registry()
    if not isinstance(name, str) or name not in solvers:
        raise InvalidInput("unknown algorithm %r (have: %s)" % (name, ", ".join(sorted(solvers))))
    return solvers[name]


def guarantee(name, problem, N, R=None):
    """The paper's bound on the final gap of run_solver(problem, name, N), or None.

    R >= ||x0 - x*|| with x0 = 0; for psd, R is the radius its step R / sqrt(N)
    is tuned for, the declared ball's by default. md's bound is on the average,
    from the simplex's centre, with L bounding the gradients' sup norm, and needs
    no R. None where the paper proves none, the method refuses the domain, or
    the bound is not finite (beta = inf for gd, say, or R = None where the bound
    needs R).
    """
    solver = _solver(name)
    if (N < 1 or solver.rate is None  # at N = 0 the bound is inf
            or solver.domain and not isinstance(problem.domain, solver.domain)):
        return None
    bound = solver.rate(problem, N, math.nan if R is None else R)
    return bound if math.isfinite(bound) else None


def run_solver(problem, name, budget, *, step=None, seed=0):
    """Run a named algorithm from the origin; returns a trace with budget+1 records.

    A step is used only when 0 < step < inf: a given one outside raises InvalidInput,
    a default one (from the problem's declared constants) CapabilityError. The domain
    must be of a kind the row lists: psd needs a ball, md the simplex and fw any; the
    rest step in R^d and refuse the simplex. guarantee() bounds a default run's gap.
    """
    solver = _solver(name)
    if step is not None and solver.step is None:  # agd, apgd, cg, fista and fw choose their own
        raise InvalidInput("algorithm %s takes no step" % name)
    if step is not None and not 0 < step < math.inf:  # a usage error, whatever the problem
        raise InvalidInput("step must be positive and finite, not %r" % (step,))
    if not isinstance(budget, numbers.Integral) or budget < 0:
        raise InvalidInput("budget must be an integer >= 0, not %r" % (budget,))
    N = int(budget)
    for cap in solver.oracles:
        problem.require(cap)
    if solver.domain and not isinstance(problem.domain, solver.domain):
        kinds = " or ".join(getattr(kind, "what", "no domain") for kind in solver.domain)
        raise CapabilityError("%s needs a problem declared on %s; problem %r declares %s"
                              % (name, kinds, problem.name,
                                 "no domain" if problem.domain is None else problem.domain))
    if step is None and solver.step is not None:
        step = solver.step(problem, N)
        if not 0 < step < math.inf:
            raise CapabilityError("%r has no positive finite default step here; give one" % name)
    trace = solver.run(problem, np.zeros(problem.dim), N, step, seed)
    if len(trace) != N + 1:
        raise NumericalError("solver %s produced %d records, expected %d"
                             % (name, len(trace), N + 1))
    return trace
