"""Shared numeric types: oracles, traces, the recording driver, rate fitting, solver dispatch."""

import math

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


class ProblemOracle:
    """Bundle of value/subgradient oracles, optional capabilities, and declared constants.

    value_and_grad(x) returns (value(x), subgradient(x)); a problem that can
    share one pass over its data passes a fused function that returns
    bitwise the same pair. Without one it calls subgradient, then value.
    Capabilities (all optional): prox(y, h), loo(p), block_argmin(i, x),
    stochastic_gradient(x, rng), component_gradient(i, x).
    Constants: alpha (strong convexity, >= 0), beta (smoothness, may be inf),
    L (Lipschitz, may be inf), f_star / x_star when known.
    """

    def __init__(self, dim, value, subgradient=None, *, value_and_grad=None, prox=None,
                 loo=None, block_argmin=None, stochastic_gradient=None,
                 component_gradient=None, n_components=None, n_blocks=None,
                 alpha=0.0, beta=math.inf, L=math.inf, f_star=None, x_star=None,
                 name="problem", extra=None):
        if dim < 1:
            raise InvalidProblem("dim must be >= 1")
        if math.isfinite(alpha) and math.isfinite(beta) and alpha > beta + 1e-12:
            raise InvalidProblem("need alpha <= beta")
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
    f_star when f_star is declared. S seeds stepped as one batch
    (record_rows) have S-vector cells, and trace(s) views seed s. grad_norm
    and custom cells may be absent from a row: a per-row flag says so, and
    the cell reads NaN. The columns hold the given number of rows: add has
    no room beyond them.
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
    record N. A generator that returns after k >= 1 items ends a single-seed
    trace early, with k records; one that yields nothing raises
    NumericalError. A value beyond 1e12 (1 + max(|value at
    n = 0|, |f_star|)), with |f_star| read as 0 when f_star is None, or a
    non-finite point raises DivergenceError. The last point becomes the
    trace's final_point.
    Given a seed, iterates takes (x, rng) with rng = make_rng(seed); a
    sequence of seeds steps them all as one batch (see record_rows).
    """
    if N < 0:
        raise InvalidInput("budget must be >= 0")
    x0 = as_vector(x0)
    if seed is None:
        items = iterates(x0.copy())
    elif np.ndim(seed) == 0:
        items = iterates(x0.copy(), make_rng(seed))
    else:
        return record_rows(iterates, x0, N, f_star, seed)
    trace = IterateTrace(f_star, rows=N + 1)
    for n, (x, value, grad_norm, custom) in zip(range(N + 1), items):
        if n == 0:
            scale = 1.0 + max(abs(value), 0.0 if f_star is None else abs(f_star))
        check_divergence(value, x, scale)
        trace.add(n, value, grad_norm, **custom)
    if not len(trace):
        raise NumericalError("the solver yielded no iterate")
    trace.final_point = x
    return trace


def record_rows(iterates, x0, N, f_star, seeds):
    """Step S seeds as one (S, d) matrix through iterates(X, make_rng(seeds)).

    Every item holds an (S, d) point, S values and S-vectors for grad_norm
    and the custom columns, so the oracles the generator calls must be
    row-wise. Row 0 of records 0 and 1 (the first stochastic-oracle call) is
    checked against the single-seed run of seeds[0]; an oracle that fails
    on, or mixes, the rows raises CapabilityError. Each row has its own
    divergence guard, scaled as in record, and a generator that returns
    early ends the trace early, as in record. Returns an S-seed IterateTrace.
    """
    seeds = list(seeds)
    S = len(seeds)
    if S < 1:
        raise InvalidInput("need at least one seed")
    probe = [item for _, item in zip(range(min(N, 1) + 1),
                                      iterates(x0.copy(), make_rng(seeds[0])))]
    rows = iterates(np.tile(x0, (S, 1)), make_rng(seeds))
    trace = IterateTrace(f_star, rows=N + 1, seeds=S)
    for n in range(N + 1):
        if n < len(probe):
            try:
                item = next(rows, None)
                if item is not None:
                    _match_row0(probe[n], item, S)
            except (TypeError, ValueError, IndexError, AttributeError) as exc:
                raise CapabilityError("oracle is not row-wise: %s" % exc) from exc
        else:
            item = next(rows, None)
        if item is None:  # the generator returned: n records, as in record
            break
        X, value, grad_norm, extra = item
        if n == 0:
            scale = 1.0 + np.maximum(np.abs(value), 0.0 if f_star is None else abs(f_star))
        ok = (np.isfinite(value) & (np.abs(value) <= DIVERGENCE_FACTOR * scale)
              & np.isfinite(X).all(axis=1))
        if not ok.all():
            s = int(np.argmin(ok))
            raise DivergenceError("iterate of seed %r diverged (value %r)"
                                  % (seeds[s], float(value[s])))
        trace.add(n, value, grad_norm, **extra)
    if not len(trace):
        raise NumericalError("the solver yielded no iterate")
    trace.final_point = X
    return trace


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
    return v + (g.value(z) if g is not None else 0.0)


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

def _solver_registry():
    # imported lazily so core stays at the bottom of the dependency order
    from . import gradient, krylov, nonsmooth, proximal, frankwolfe, mirror

    def step(p, default):
        """The given step, else default(), which must be positive and finite."""
        if "step" in p:
            return p["step"]
        h = default()
        if not 0 < h < math.inf:
            raise CapabilityError("%r has no positive finite default step here; give one"
                                  % p["name"])
        return h

    def inverse(c, numerator=1.0):  # numerator / c, or inf (no valid default) for c <= 0
        return numerator / c if c > 0 else math.inf

    def run_gd(problem, x0, N, seed, p):
        h = step(p, lambda: inverse(problem.beta) if math.isfinite(problem.beta) else 1.0)
        return gradient.run_gd(problem, h, x0, N)

    def run_agd(problem, x0, N, seed, p):
        return gradient.run_agd(problem, x0, N)

    def run_psd(problem, x0, N, seed, p):
        R = 1.0  # max(1, 2 ||x0||) from x0 = 0
        h = step(p, lambda: R / math.sqrt(max(N, 1)))
        proj = lambda z: nonsmooth.project_ball(z, np.zeros(problem.dim), R)
        return nonsmooth.run_psd(problem, proj, h, x0, N)

    def run_fw(problem, x0, N, seed, p):
        tr, _ = frankwolfe.run_fw(problem, problem.loo, x0, N)
        return tr

    def run_pgd(problem, x0, N, seed, p):
        f = problem.extra.get("smooth", problem)
        h = step(p, lambda: inverse(f.beta))
        return proximal.run_pgd(f, problem.extra.get("reg"), h, x0, N, problem.f_star)

    def run_apgd(problem, x0, N, seed, p):
        f = problem.extra.get("smooth", problem)
        return proximal.run_apgd(f, problem.extra.get("reg"), x0, N, problem.f_star)

    def run_ppm(problem, x0, N, seed, p):
        h = step(p, lambda: 1.0)
        return proximal.run_ppm(problem, h, x0, N)

    def run_md(problem, x0, N, seed, p):
        geom = mirror.entropic_geometry(problem.dim)
        h = step(p, lambda: inverse(problem.L if math.isfinite(problem.L) else 1.0,
                                    math.sqrt(2 * math.log(problem.dim) / max(N, 1))))
        x0 = np.full(problem.dim, 1.0 / problem.dim)  # x0 = 0 is not positive
        return mirror.run_mpgd(problem, None, geom, h, x0, N, constraint="simplex")

    def run_sgd(problem, x0, N, seed, p):
        from . import stochastic
        h = step(p, lambda: inverse(2 * problem.beta) if math.isfinite(problem.beta) else 0.1)
        return stochastic.run_sgd(problem, h, x0, N, seed)

    def run_cg(problem, x0, N, seed, p):
        A = problem.extra.get("A")
        b = problem.extra.get("b")
        if A is None or b is None:
            raise CapabilityError("problem %r lacks the quadratic (A,b) data needed by cg" % problem.name)
        return krylov.cg_solve(A, b, x0, N, f_star=problem.f_star)[0]

    return {  # name: (capabilities, runner, whether it takes a step)
        "gd": (("subgradient",), run_gd, True),
        "agd": (("subgradient",), run_agd, False),
        "psd": (("subgradient",), run_psd, True),
        "fw": (("loo",), run_fw, False),
        "ista": ((), run_pgd, True),
        "pgd": ((), run_pgd, True),
        "fista": ((), run_apgd, False),
        "apgd": ((), run_apgd, False),
        "ppm": (("prox",), run_ppm, True),
        "md": (("subgradient",), run_md, True),
        "sgd": (("stochastic_gradient",), run_sgd, True),
        "cg": ((), run_cg, False),
    }


SOLVERS = None


def _solvers():
    global SOLVERS
    if SOLVERS is None:
        SOLVERS = _solver_registry()
    return SOLVERS


def solver_names():
    return sorted(_solvers())


def _solver(name):
    solvers = _solvers()
    if name not in solvers:
        raise InvalidInput("unknown algorithm %r (have: %s)" % (name, ", ".join(sorted(solvers))))
    return solvers[name]


def run_solver(problem, algo, budget, seed=0):
    """Dispatch a named algorithm; returns a trace with budget+1 records."""
    if isinstance(algo, str):
        algo = {"name": algo}
    unknown = set(algo) - {"name", "step"}
    if unknown:
        raise InvalidInput("unknown algorithm settings: %s" % ", ".join(sorted(map(str, unknown))))
    name = algo.get("name")
    caps, runner, takes_step = _solver(name)
    if "step" in algo and not takes_step:  # agd, apgd, cg, fista and fw choose their own
        raise InvalidInput("algorithm %s takes no step" % name)
    if budget < 0:
        raise InvalidInput("budget must be >= 0")
    for cap in caps:
        problem.require(cap)
    trace = runner(problem, np.zeros(problem.dim), int(budget), seed, algo)
    if len(trace) != budget + 1:
        raise NumericalError("solver %s produced %d records, expected %d"
                             % (name, len(trace), budget + 1))
    return trace
