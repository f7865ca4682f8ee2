"""Shared numeric types: oracles, traces, the recording driver, rate fitting, solver dispatch."""

import io
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
    Capabilities (all optional): prox(y, h), loo(p), separate(x),
    block_argmin(i, x), stochastic_gradient(x, rng), component_gradient(i, x).
    Constants: alpha (strong convexity, >= 0), beta (smoothness, may be inf),
    L (Lipschitz, may be inf), f_star / x_star when known, noise constants
    sigma2d, c0, c1 for stochastic oracles.
    """

    def __init__(self, dim, value, subgradient=None, *, value_and_grad=None, prox=None,
                 loo=None, separate=None, block_argmin=None, stochastic_gradient=None,
                 component_gradient=None, n_components=None, n_blocks=None,
                 alpha=0.0, beta=math.inf, L=math.inf, f_star=None, x_star=None,
                 sigma2d=None, c0=None, c1=None, diameter=None, name="problem",
                 extra=None):
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
        self.separate = separate
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
        self.sigma2d = sigma2d
        self.c0 = c0
        self.c1 = c1
        self.diameter = diameter
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
    """Per-iteration records plus the final point.

    Gap is recorded iff the problem declares f_star.
    """

    def __init__(self, f_star=None):
        self.f_star = f_star
        self.records = []
        self.final_point = None

    def add(self, it, value, grad_norm=None, time_s=0.0, **custom):
        if self.records and it <= self.records[-1]["iter"]:
            raise InvalidInput("trace iterations must be strictly increasing")
        gap = None if self.f_star is None else value - self.f_star
        self.records.append({"iter": int(it), "value": float(value), "gap": gap,
                             "grad_norm": None if grad_norm is None else float(grad_norm),
                             "time_s": float(time_s), "custom": custom})

    def __len__(self):
        return len(self.records)

    def iters(self):
        return np.array([r["iter"] for r in self.records])

    def values(self):
        return np.array([r["value"] for r in self.records])

    def gaps(self):
        if self.f_star is None:
            return None
        return np.array([r["gap"] for r in self.records])

    def grad_norms(self):
        return np.array([math.nan if r["grad_norm"] is None else r["grad_norm"]
                         for r in self.records])

    def custom(self, key):
        return np.array([r["custom"].get(key, math.nan) for r in self.records])

    def final_value(self):
        return self.records[-1]["value"]

    def final_gap(self):
        return self.records[-1]["gap"]

    def to_csv(self, path=None):
        def fmt(v):
            return "" if v is None else format(v, ".17g")

        buf = io.StringIO()
        buf.write("iter,value,gap,grad_norm,time_s\n")
        for r in self.records:
            buf.write("%d,%s,%s,%s,%s\n" % (r["iter"], fmt(r["value"]), fmt(r["gap"]),
                                            fmt(r["grad_norm"]), fmt(r["time_s"])))
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def check_divergence(value, x, scale):
    if not (math.isfinite(value) and abs(value) <= DIVERGENCE_FACTOR * scale
            and np.isfinite(x).all()):
        raise DivergenceError("iterate diverged (value %r)" % (value,))


def record(iterates, x0, N, f_star, seed=None):
    """Trace the first N+1 items of the generator iterates(x0 copy).

    Each item is (point, value, grad_norm, custom). No step is taken after
    record N; a value beyond 1e12 (1 + |value at n = 0|) or a non-finite point
    raises DivergenceError. The last point becomes the trace's final_point.
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
    trace = IterateTrace(f_star)
    for n, (x, value, grad_norm, custom) in zip(range(N + 1), items):
        if n == 0:
            scale = 1.0 + abs(value)
        check_divergence(value, x, scale)
        trace.add(n, value, grad_norm, **custom)
    trace.final_point = x
    return trace


class BatchTrace:
    """The records of S seeds stepped as one batch.

    values()[n, s] is seed s's value at record n (likewise gaps and custom
    columns), final_point[s] its final point. trace(s) builds
    seed s's IterateTrace only when asked for.
    """

    def __init__(self, f_star, values, grad_norms, custom, final_point):
        self.f_star = f_star
        self._values = values
        self._grad_norms = grad_norms
        self._custom = custom
        self.final_point = final_point

    def __len__(self):
        return self._values.shape[0]

    def values(self):
        return self._values

    def gaps(self):
        return None if self.f_star is None else self._values - self.f_star

    def custom(self, key):
        return self._custom.get(key, np.full(self._values.shape, math.nan))

    def final_gap(self):
        return None if self.f_star is None else self._values[-1] - self.f_star

    def trace(self, s):
        trace = IterateTrace(self.f_star)
        for n in range(len(self)):
            trace.add(n, self._values[n, s],
                      None if self._grad_norms is None else self._grad_norms[n, s],
                      **{key: float(col[n, s]) for key, col in self._custom.items()})
        trace.final_point = self.final_point[s].copy()
        return trace


def record_rows(iterates, x0, N, f_star, seeds):
    """Step S seeds as one (S, d) matrix through iterates(X, make_rng(seeds)).

    Every item holds an (S, d) point, S values and S-vectors for grad_norm
    and the custom columns, so the oracles the generator calls must be
    row-wise. Row 0 of records 0 and 1 (the first stochastic-oracle call) is
    checked against the single-seed run of seeds[0]; an oracle that fails
    on, or mixes, the rows raises CapabilityError. Each row has its own
    divergence guard. Returns a BatchTrace.
    """
    seeds = list(seeds)
    S = len(seeds)
    if S < 1:
        raise InvalidInput("need at least one seed")
    probe = [item for _, item in zip(range(min(N, 1) + 1),
                                      iterates(x0.copy(), make_rng(seeds[0])))]
    rows = iterates(np.tile(x0, (S, 1)), make_rng(seeds))
    values = np.empty((N + 1, S))
    grad_norms = None
    custom = {}
    for n in range(N + 1):
        if n < len(probe):
            try:
                X, value, grad_norm, extra = item = next(rows)
                _match_row0(probe[n], item, S)
            except (TypeError, ValueError, IndexError, AttributeError) as exc:
                raise CapabilityError("oracle is not row-wise: %s" % exc) from exc
        else:
            X, value, grad_norm, extra = next(rows)
        if n == 0:
            scale = 1.0 + np.abs(value)
        ok = (np.isfinite(value) & (np.abs(value) <= DIVERGENCE_FACTOR * scale)
              & np.isfinite(X).all(axis=1))
        if not ok.all():
            s = int(np.argmin(ok))
            raise DivergenceError("iterate of seed %r diverged (value %r)"
                                  % (seeds[s], float(value[s])))
        values[n] = value
        if grad_norm is not None:
            if grad_norms is None:
                grad_norms = np.empty((N + 1, S))
            grad_norms[n] = grad_norm
        for key, col in extra.items():
            if key not in custom:
                custom[key] = np.empty((N + 1, S))
            custom[key][n] = col
    return BatchTrace(f_star, values, grad_norms, custom, X)


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


def row_norm(v):
    """||v|| of a vector, or the norm of each row of a row matrix."""
    return float(np.linalg.norm(v)) if v.ndim == 1 else np.linalg.norm(v, axis=1)


def fit_rate(trace, skip=0):
    """Least-squares fit of the gap sequence: power law C*n^e vs geometric C*rho^n.

    Returns (exponent, r2, kind) where kind is "polynomial" or "exponential";
    exponent is the power e or log(rho) respectively.
    """
    if trace.f_star is None:
        raise InsufficientData("no gap column (f_star unknown)")
    pts = [(r["iter"], r["gap"]) for r in trace.records
           if r["iter"] >= max(1, skip) and r["gap"] is not None and r["gap"] > 0]
    if len(pts) < 10:
        raise InsufficientData("need >= 10 records with positive gap")
    n = np.array([p[0] for p in pts], dtype=float)
    lg = np.log([p[1] for p in pts])

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

    def needs(*caps):
        return caps

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
        R = p.get("radius", max(1.0, float(np.linalg.norm(x0)) * 2))
        h = step(p, lambda: R / math.sqrt(max(N, 1)))
        proj = lambda z: nonsmooth.project_ball(z, np.zeros(problem.dim), R)
        return nonsmooth.run_psd(problem, proj, h, x0, N)

    def run_fw(problem, x0, N, seed, p):
        problem.require("loo")
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
        problem.require("prox")
        h = step(p, lambda: 1.0)
        return proximal.run_ppm(problem, h, x0, N)

    def run_md(problem, x0, N, seed, p):
        geom = mirror.entropic_geometry(problem.dim)
        h = step(p, lambda: inverse(problem.L if math.isfinite(problem.L) else 1.0,
                                    math.sqrt(2 * math.log(problem.dim) / max(N, 1))))
        if x0 is None or not np.all(np.asarray(x0) > 0):
            x0 = np.full(problem.dim, 1.0 / problem.dim)
        return mirror.run_mpgd(problem, None, geom, h, x0, N, constraint="simplex")

    def run_sgd(problem, x0, N, seed, p):
        from . import stochastic
        problem.require("stochastic_gradient")
        h = step(p, lambda: inverse(2 * problem.beta) if math.isfinite(problem.beta) else 0.1)
        return stochastic.run_sgd(problem, h, x0, N, seed)

    def run_cg(problem, x0, N, seed, p):
        A = problem.extra.get("A")
        b = problem.extra.get("b")
        if A is None or b is None:
            raise CapabilityError("problem %r lacks the quadratic (A,b) data needed by cg" % problem.name)
        tr, _ = krylov.cg_solve(A, b, x0, N, tol=p.get("tol", 0.0), f_star=problem.f_star)
        while len(tr) < N + 1:  # converged early; pad to the budget+1 contract
            last = tr.records[-1]
            tr.add(last["iter"] + 1, last["value"], grad_norm=last["grad_norm"])
        return tr

    return {  # name: (capabilities, runner, whether it takes a step)
        "gd": (needs("subgradient"), run_gd, True),
        "agd": (needs("subgradient"), run_agd, False),
        "psd": (needs("subgradient"), run_psd, True),
        "fw": (needs("loo"), run_fw, False),
        "ista": (needs(), run_pgd, True),
        "pgd": (needs(), run_pgd, True),
        "fista": (needs(), run_apgd, False),
        "apgd": (needs(), run_apgd, False),
        "ppm": (needs("prox"), run_ppm, True),
        "md": (needs("subgradient"), run_md, True),
        "sgd": (needs("stochastic_gradient"), run_sgd, True),
        "cg": (needs(), run_cg, False),
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


def takes_step(name):
    """False for the solvers that choose their own steps: agd, apgd, cg, fista, fw."""
    return _solver(name)[2]


def run_solver(problem, algo, budget, seed=0):
    """Dispatch a named algorithm; returns a trace with budget+1 records."""
    if isinstance(algo, str):
        algo = {"name": algo}
    name = algo.get("name")
    caps, runner, _ = _solver(name)
    if budget < 0:
        raise InvalidInput("budget must be >= 0")
    for cap in caps:
        problem.require(cap)
    x0 = algo.get("x0")
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    trace = runner(problem, x0, int(budget), seed, algo)
    if len(trace) != budget + 1:
        raise NumericalError("solver %s produced %d records, expected %d"
                             % (name, len(trace), budget + 1))
    return trace
