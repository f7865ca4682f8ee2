"""Shared numeric types: oracles, traces, the recording driver, rate fitting, solver dispatch."""

import functools
import math
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
    if not np.isfinite(v).all():
        raise NumericalError("vector has non-finite entries")
    return v


class Ball(namedtuple("Ball", "radius")):
    """The domain {x : ||x|| <= radius}, a ball about the origin."""
    what = "a ball"


class Simplex(namedtuple("Simplex", "")):
    """The domain {x >= 0 : sum(x) = 1}."""
    what = "the simplex"


class ProblemOracle:
    """Bundle of value/subgradient oracles, optional capabilities, and declared constants.

    value_and_grad(x) returns (value(x), subgradient(x)); a problem that can
    share one pass over its data passes a fused function that returns
    bitwise the same pair. Without one it calls subgradient, then value.
    Capabilities (all optional): prox(y, h), loo(p), block_argmin(i, x),
    stochastic_gradient(x, rng), component_gradient(i, x).
    Constants: alpha (strong convexity, >= 0), beta (smoothness, may be inf),
    L (Lipschitz, may be inf), f_star / x_star when known.
    domain: the set the problem is posed on, and f_star and x_star are
    optimal over: None for all of R^d, a Ball(radius) or a Simplex().
    run_solver's psd projects onto the ball and md needs the simplex.
    """

    def __init__(self, dim, value, subgradient=None, *, value_and_grad=None, prox=None,
                 loo=None, block_argmin=None, stochastic_gradient=None,
                 component_gradient=None, n_components=None, n_blocks=None,
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
        self.component_gradient = component_gradient
        self.n_components = n_components
        self.n_blocks = n_blocks
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.L = float(L)
        self.f_star = f_star
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.domain = domain
        self.name = name
        self.extra = dict(extra) if extra else {}

    # the gradient, where f is differentiable
    def gradient(self, x):
        return self.subgradient(x)

    def value_and_grad(self, x):
        g = self.subgradient(x)
        return self.value(x), g

    def kappa(self):
        if self.alpha > 0 and math.isfinite(self.beta):
            return self.beta / self.alpha
        return math.inf

    def scale_at(self, x0):
        return 1.0 + abs(float(self.value(np.asarray(x0, dtype=float))))

    def require(self, capability):
        if getattr(self, capability, None) is None:
            raise CapabilityError("problem %r lacks the %s oracle" % (self.name, capability))
        return getattr(self, capability)


class IterateTrace:
    """Per-iteration rows kept as columns, plus the final point.

    Columns: iter, value, grad_norm and one per custom key; gaps() is value -
    f_star when f_star is declared. S seeds that record steps as one batch
    have S-vector cells, and trace(s) views seed s. grad_norm and custom
    cells may be absent from a row: a per-row flag says so, and the cell
    reads NaN. The columns hold the given number of rows: add has no
    room beyond them.
    """

    def __init__(self, f_star=None, *, rows, seeds=None):
        self.f_star = f_star
        self.final_point = None
        self._seeds = () if seeds is None else (seeds,)
        self._n = 0
        self._last = None  # the last row's iteration, as stored in _iter
        self._iter = np.zeros(rows, dtype=np.int64)
        self._value = self._column(rows)
        self._opt = {}  # "grad_norm" or a custom key -> (column, presence flags)

    def _column(self, rows):
        return np.full((rows,) + self._seeds, math.nan)

    def add(self, it, value, grad_norm=None, **custom):
        n = self._n
        if n and it <= self._last:
            raise InvalidInput("trace iterations must be strictly increasing")
        self._iter[n] = self._last = int(it)
        self._value[n] = value
        if grad_norm is not None:
            custom["grad_norm"] = grad_norm
        for key, v in custom.items():
            cell = self._opt.get(key)
            if cell is None:
                rows = len(self._iter)
                cell = self._opt[key] = (self._column(rows), np.zeros(rows, bool))
            cell[0][n] = v
            cell[1][n] = True
        self._n = n + 1

    def __len__(self):
        return self._n

    def iters(self):
        return self._iter[:self._n]

    def values(self):
        return self._value[:self._n]

    def gaps(self):
        return None if self.f_star is None else self.values() - self.f_star

    def grad_norms(self):
        return self.custom("grad_norm")

    def custom(self, key):
        """Column key, NaN where a row lacks it."""
        return self._opt[key][0][:self._n] if key in self._opt else self._column(self._n)

    def custom_keys(self):
        return sorted(self._opt.keys() - {"grad_norm"})

    def final_value(self):
        return self.values()[-1]

    def final_gap(self):
        return None if self.f_star is None else self.final_value() - self.f_star

    def trace(self, s):
        """Seed s of a batch as a single-run trace that views its columns."""
        view = IterateTrace(self.f_star, rows=0)
        n, view._n, view._last = self._n, self._n, self._last
        view._iter, view._value = self._iter[:n], self._value[:n, s]
        view._opt = {k: (col[:n, s], has[:n]) for k, (col, has) in self._opt.items()}
        view.final_point = self.final_point[s].copy()
        return view

    @property
    def records(self):
        """The rows as a sequence: trace.records[n] is trace[n]."""
        return self

    def __getitem__(self, n):
        """Row n as a _Row dict: iter, value, gap, grad_norm and a custom dict."""
        self._single_run()
        n = range(self._n)[n]
        custom = {k: cell for k, cell in self._opt.items() if k != "grad_norm" and cell[1][n]}
        return _Row(n, {"iter": (self._iter, None), "value": (self._value, None),
                        "gap": (None if self.f_star is None else _Gap(self), None),
                        "grad_norm": self._opt.get("grad_norm", (None, None)),
                        "custom": _Row(n, custom)})

    def _single_run(self):
        if self._seeds:
            raise CapabilityError("a batch has rows per seed: use trace(s)")

    def to_csv(self, path=None):
        """The trace as CSV; the time_s column is always 0, so equal runs give equal bytes."""
        self._single_run()
        n = self._n
        grad_norm, has = self._opt.get("grad_norm", (None, None))
        # one "%" over a row template; a column with absent cells goes in as strings
        fields, columns = [], []
        for fmt, col, present in (("%d", self._iter, None), ("%.17g", self._value, None),
                                  ("%.17g", self.gaps(), None), ("%.17g", grad_norm, has)):
            if col is None:
                fields.append("")
                continue
            cells = col[:n].tolist()
            if present is not None and not present[:n].all():
                cells = [fmt % v if h else "" for v, h in zip(cells, present[:n].tolist())]
                fmt = "%s"
            fields.append(fmt)
            columns.append(cells)
        flat = [None] * (n * len(columns))
        for i, cells in enumerate(columns):
            flat[i::len(columns)] = cells
        text = ("iter,value,gap,grad_norm,time_s\n"
                + (",".join(fields) + ",0\n") * n % tuple(flat))
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


class _Row(dict):
    """Row n's cells as read when the dict is made, None where absent.

    Writing a cell writes its column (None makes it absent); writing gap sets
    value to f_star + gap.
    """

    def __init__(self, n, cells):
        self._n, self._cells = n, cells
        super().__init__((k, c if isinstance(c, _Row) else _read(c, n)) for k, c in cells.items())

    def __setitem__(self, key, v):
        col, has = self._cells[key]
        col[self._n] = math.nan if v is None else v
        if has is not None:
            has[self._n] = v is not None
        super().__setitem__(key, v)


def _read(cell, n):
    col, has = cell
    return None if col is None or (has is not None and not has[n]) else col[n].item()


class _Gap:
    """A trace's gap as a column, value - f_star: writing gap n sets value n."""

    def __init__(self, trace):
        self._trace = trace

    def __getitem__(self, n):
        return self._trace._value[n] - self._trace.f_star

    def __setitem__(self, n, gap):
        self._trace._value[n] = gap + self._trace.f_star


def check_divergence(value, x, scale):
    # x.x is finite only if every entry of the point x is; np.isfinite decides
    # when it is not (a nan or inf entry, or huge finite entries overflowing)
    if not (math.isfinite(value) and abs(value) <= DIVERGENCE_FACTOR * scale
            and (math.isfinite(x.dot(x)) or np.isfinite(x).all())):
        raise DivergenceError("iterate diverged (value %r)" % (value,))


def record(iterates, x0, N, f_star, seed=None):
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
    """
    if N < 0:
        raise InvalidInput("budget must be >= 0")
    x0 = as_vector(x0)
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
    for n, (x, value, grad_norm, custom) in zip(range(N + 1), items):
        if n == 0:
            scale = 1.0 + maximum(abs(value), 0.0 if f_star is None else abs(f_star))
        check(value, x, scale)
        trace.add(n, value, grad_norm, **custom)
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


def finite_diff_gradient(f, x, h=1e-6):
    """Central-difference gradient of a value oracle."""
    if h <= 0:
        raise InvalidInput("h must be positive")
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


def fit_rate(trace, skip=0):
    """Least-squares fit of the gap sequence: power law C*n^e vs geometric C*rho^n.

    Returns (exponent, r2, kind) where kind is "polynomial" or "exponential";
    exponent is the power e or log(rho) respectively.
    """
    if trace.f_star is None:
        raise InsufficientData("no gap column (f_star unknown)")
    gaps = trace.gaps()
    keep = (trace.iters() >= max(1, skip)) & (gaps > 0)
    if np.count_nonzero(keep) < 10:
        raise InsufficientData("need >= 10 records with positive gap")
    n = trace.iters()[keep].astype(float)
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

# A registry row: the method's names, the oracles and the domain class it needs,
# its default step as step(problem, N), or None if it chooses its own and takes
# none, and run(problem, x0, N, h, seed), which returns its trace.
Solver = namedtuple("Solver", "names oracles domain step run")


@functools.lru_cache(maxsize=None)
def _solver_registry():
    # imported lazily so core stays at the bottom of the dependency order
    from . import frankwolfe, gradient, krylov, mirror, nonsmooth, proximal, stochastic

    def inverse(c, numerator=1.0):  # numerator / c, or inf (no valid default) for c <= 0
        return numerator / c if c > 0 else math.inf

    def smooth(p):  # the smooth part of a composite problem, else the problem
        return p.extra.get("smooth", p)

    def run_cg(p, x0, N, h, seed):
        if "A" not in p.extra or "b" not in p.extra:
            raise CapabilityError("problem %r lacks the quadratic (A,b) data needed by cg" % p.name)
        return krylov.cg_solve(p.extra["A"], p.extra["b"], x0, N, f_star=p.f_star)[0]

    table = [
        Solver(("gd",), ("subgradient",), None,
               lambda p, N: inverse(p.beta) if math.isfinite(p.beta) else 1.0,
               lambda p, x0, N, h, seed: gradient.run_gd(p, h, x0, N)),
        Solver(("agd",), ("subgradient",), None, None,
               lambda p, x0, N, h, seed: gradient.run_agd(p, x0, N)),
        Solver(("psd",), ("subgradient",), Ball,
               lambda p, N: p.domain.radius / math.sqrt(max(N, 1)),
               lambda p, x0, N, h, seed: nonsmooth.run_psd(
                   p, lambda z: nonsmooth.project_ball(z, np.zeros(p.dim), p.domain.radius),
                   h, x0, N)),
        Solver(("fw",), ("loo",), None, None,
               lambda p, x0, N, h, seed: frankwolfe.run_fw(p, p.loo, x0, N)[0]),
        Solver(("ista", "pgd"), (), None, lambda p, N: inverse(smooth(p).beta),
               lambda p, x0, N, h, seed: proximal.run_pgd(
                   smooth(p), p.extra.get("reg"), h, x0, N, p.f_star)),
        Solver(("fista", "apgd"), (), None, None,
               lambda p, x0, N, h, seed: proximal.run_apgd(
                   smooth(p), p.extra.get("reg"), x0, N, p.f_star)),
        Solver(("ppm",), ("prox",), None, lambda p, N: 1.0,
               lambda p, x0, N, h, seed: proximal.run_ppm(p, h, x0, N)),
        Solver(("md",), ("subgradient",), Simplex,
               lambda p, N: inverse(p.L if math.isfinite(p.L) else 1.0,
                                    math.sqrt(2 * math.log(p.dim) / max(N, 1))),
               lambda p, x0, N, h, seed: mirror.run_mpgd(  # from the centre: 0 is not positive
                   p, None, mirror.entropic_geometry(p.dim), h, np.full(p.dim, 1.0 / p.dim),
                   N, constraint="simplex")),
        Solver(("sgd",), ("stochastic_gradient",), None,
               lambda p, N: inverse(2 * p.beta) if math.isfinite(p.beta) else 0.1,
               lambda p, x0, N, h, seed: stochastic.run_sgd(p, h, x0, N, seed)),
        Solver(("cg",), (), None, None, run_cg),
    ]
    return {name: row for row in table for name in row.names}


def solver_names():
    return sorted(_solver_registry())


def run_solver(problem, algo, budget, seed=0):
    """Run a named algorithm from the origin; returns a trace with budget+1 records.

    algo is a name or {"name": ..., "step": ...}. A method that needs a
    domain runs only on a problem that declares one of that kind.
    """
    if isinstance(algo, str):
        algo = {"name": algo}
    unknown = set(algo) - {"name", "step"}
    if unknown:
        raise InvalidInput("unknown algorithm settings: %s" % ", ".join(sorted(map(str, unknown))))
    name = algo.get("name")
    solvers = _solver_registry()
    if name not in solvers:
        raise InvalidInput("unknown algorithm %r (have: %s)" % (name, ", ".join(sorted(solvers))))
    solver = solvers[name]
    if "step" in algo and solver.step is None:  # agd, apgd, cg, fista and fw choose their own
        raise InvalidInput("algorithm %s takes no step" % name)
    if budget < 0:
        raise InvalidInput("budget must be >= 0")
    N = int(budget)
    for cap in solver.oracles:
        problem.require(cap)
    h = algo.get("step")
    if "step" in algo and h <= 0:  # a usage error, whatever the problem's domain
        raise InvalidInput("step must be positive")
    if solver.domain is not None and not isinstance(problem.domain, solver.domain):
        raise CapabilityError("%s needs a problem declared on %s; problem %r declares %s"
                              % (name, solver.domain.what, problem.name,
                                 "no domain" if problem.domain is None else problem.domain))
    if "step" not in algo and solver.step is not None:
        h = solver.step(problem, N)
        if not 0 < h < math.inf:
            raise CapabilityError("%r has no positive finite default step here; give one" % name)
    trace = solver.run(problem, np.zeros(problem.dim), N, h, seed)
    if len(trace) != budget + 1:
        raise NumericalError("solver %s produced %d records, expected %d"
                             % (name, len(trace), budget + 1))
    return trace
