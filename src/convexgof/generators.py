"""Generator functions that drive the divergence functionals.

Two families are supported: strictly convex generators h on [0,1] with
h(0) = 0, and positive log-strictly-convex generators xi on [0,1].  A
generator is a name, an ``eval``, one centering constant (the integral of
h, or of xi^2, over [0,1]) and a ``validated`` flag.  The statistics need
a generator only on the grid i/n of a sample size n: h(i/n), and the
antiderivative Xi of xi as the quadrature grid ``antiderivative_grid(n)``
and its jumps, all kept in one memo keyed by ``eval`` and n.
The two types check themselves: unless ``validated=False``, construction
runs ``validate_generator``, which checks what the statistics consume (the
defining strict inequality on a finite grid and the centering constant), and
an omitted constant is integrated once.  Builders cover the concrete families
(powers, non-negative polynomials, Bernstein smoothing, exp(alpha*u^2)).

Strictness is only checkable at finite resolution: at every k/256 the
validator demands the midpoint (log-)convexity gap mean - mid of the pair
(u, v) = ((k-1)/256, (k+1)/256) to exceed 1e-12 (|mean| + |mid|), where mean
is (h(u) + h(v))/2 or xi(u) xi(v) and mid is h or xi^2 at k/256 (both divided
by xi^2 where a product overflows); the gap of a wider pair of that grid is a
positive sum of these.  The relative bound
accepts high powers, whose gaps near 0 are tiny, and rejects linear/log-linear
generators, which would break the equality characterization of the tests.

Integrals use ``adaptive_quad``, a wrapper of ``_tanh_sinh``: one vectorised tanh-sinh loop with a QUADPACK fallback.
Importing this module loads numpy only, and scipy loads only in the QUADPACK fallback.
Bernstein generators take their log-space basis from ``math.lgamma`` and numpy's ``log``,
``log1p`` and ``exp``, whose last bits follow numpy's SIMD level, so their values are
bit-identical on one host.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GeneratorSpecError,
    InvalidParameterError,
    NotStrictlyConvexError,
    NumericalError,
    QuadratureError,
)

MEMO_SIZE = 64  # specs kept by parse_generator_spec
CHUNK_ELEMENTS = 2**18  # most pooled draws per work unit (nulldist), and most floats the grid memo keeps
QUAD_TOL = 1e-10
CONVEXITY_EPS = 1e-12
DEFAULT_GRID = 128
TS_TMAX = 4.0  # tanh-sinh nodes at |t| = 4 lie within 1e-37 of the panel ends


def _tanh_sinh_level(h, first):
    """Step h, node offsets (fractions of the panel) and weights at t = every multiple of h
    in [-TS_TMAX, TS_TMAX] if ``first``, else at the odd multiples only."""
    t = np.arange(-TS_TMAX, TS_TMAX + h / 2, h) if first else np.arange(h - TS_TMAX, TS_TMAX, 2 * h)
    z = np.pi * np.sinh(t)
    # scipy.special.expit's 1 / (1 + exp(-z)) with libm's exp, node by node: its bits, without scipy
    e, f = (np.array([1.0 / (1.0 + math.exp(-v)) for v in s.tolist()]) for s in (z, -z))
    return h, e, np.pi * np.cosh(t) * e * f


_TANH_SINH = [_tanh_sinh_level(2.0 ** -k, k == 1) for k in range(1, 9)]  # steps 1/2 .. 1/256


def adaptive_quad(fn, a, b, tol: float = QUAD_TOL):
    """Integral of ``fn`` over [a, b] by :func:`_tanh_sinh`, which calls it through :func:`eval_on_array`
    on float arrays only; arrays of panel ends ``a`` and ``b`` give the result their shape."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    value = _tanh_sinh(lambda x, rows: eval_on_array(fn, x), a.ravel(), b.ravel(), tol)
    return float(value[0]) if a.ndim == 0 else value.reshape(a.shape)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite panel falls back, then raises
def _tanh_sinh(evaluate, lo, hi, tol):
    """Integrals over the panels [lo[i], hi[i]] by the tanh-sinh rule; raises instead of degrading.

    ``evaluate(x, rows)`` gives the integrands at a level's new nodes ``x``, one row per open panel, whose
    indices are ``rows``.  A panel is done when two levels differ by at most max(tol, 1e-12 |value|) and its
    outermost nodes add no more, which rejects divergent end singularities.  A panel open at the finest level
    (an interior kink, say) goes alone to ``scipy.integrate.quad``, which calls the same ``evaluate`` on one
    node at a time, as a 1 x 1 array; ``QuadratureError`` is raised if that fails too or gives a non-finite value.
    """
    first, last = np.nextafter(lo, hi), np.nextafter(hi, lo)
    value = np.full(lo.size, np.nan)
    # one row per quantity, one column per open panel; nodes never sit on an end
    state = np.stack([lo, hi, np.minimum(first, last), np.maximum(first, last),
                      np.zeros(lo.size), value, value, np.arange(lo.size)])
    for level, (h, offset, w) in enumerate(_TANH_SINH):
        lo, hi, inner_lo, inner_hi, sums, ends, prev, index = state
        width = (hi - lo)[:, None]
        x = lo[:, None] + width * offset
        rows = index.astype(int)
        terms = evaluate(np.minimum(np.maximum(x, inner_lo[:, None]), inner_hi[:, None]), rows) * w
        sums += terms.sum(axis=1)
        if level == 0:
            ends[:] = np.maximum(np.abs(terms[:, 0]), np.abs(terms[:, -1]))
        scale = width[:, 0] * h
        est = sums * scale
        bound = np.maximum(tol, 1e-12 * np.abs(est))
        done = np.isfinite(est) & (np.abs(est - prev) <= bound) & (ends * np.abs(scale) <= bound)
        prev[:] = est
        value[rows[done]] = est[done]
        state = state[:, ~done]
        if not state.size:
            break
    for lo, hi, *_, index in state.T:
        from scipy import integrate  # only here: the fallback is rare and scipy is slow to import
        row = np.array([int(index)])
        out = integrate.quad(lambda u: evaluate(np.full((1, 1), u), row)[0, 0], lo, hi,
                             epsabs=tol, epsrel=1e-12, full_output=1)
        value[int(index)], abserr = out[0], out[1]
        if len(out) > 3 or not np.isfinite(out[0]) or abserr > 10.0 * max(tol, abs(out[0]) * 1e-12):
            raise QuadratureError(f"quadrature failed on [{lo:g}, {hi:g}]: estimated error "
                                  f"{abserr:.3e} exceeds tolerance {tol:.1e}")
    return value


def eval_on_array(fn, x, *more):
    """Evaluate ``fn`` on arrays of ``x``'s shape, falling back to scalar calls if needed."""
    x = np.asarray(x, dtype=float)
    try:
        out = np.asarray(fn(x, *more), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    flat = np.array([float(fn(*t)) for t in zip(x.ravel(), *(np.ravel(m) for m in more))])
    return flat.reshape(x.shape)


_GRIDS: dict = {}  # (id(fn), n, kind) -> (fn, grid), oldest first; an entry keeps fn, so its id is not reused


def _memo_grids(fn, builds) -> list:
    """``build()`` for each ``(n, kind, build)`` of ``builds``: read-only grids memoised under the callable ``fn``
    itself, never a generator's name or object.  A call that builds one keeps all of its grids and drops the
    others, oldest first, while the memo holds over ``CHUNK_ELEMENTS`` floats; a call of kept grids only reads."""
    keys = [(id(fn), n, kind) for n, kind, _ in builds]
    mine = dict(zip(keys, map(_GRIDS.get, keys)))
    if None in mine.values():
        for key, (_, _, build) in zip(keys, builds):
            mine[key] = mine[key] or (fn, build())
            mine[key][1].setflags(write=False)
        _GRIDS.update(mine)  # a grid that a nested call dropped is kept again
        total = sum(grid.size for _, grid in list(_GRIDS.values()))
        for key, (_, grid) in list(_GRIDS.items()):  # oldest first
            if total > CHUNK_ELEMENTS and key not in mine and _GRIDS.pop(key, None):
                total -= grid.size
    return [mine[key][1] for key in keys]


def _check_int(value, what, lo=1, hi=math.inf) -> int:
    """``value`` as an int in [lo, hi); anything else, a bool included, raises ``InvalidParameterError``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or not lo <= int(value) < hi:
        raise InvalidParameterError(f"{what}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ConvexGenerator:
    """Strictly convex generator h on [0,1] with h(0) = 0.

    ``integral_0_1`` centres the tests; builders give it in closed form where
    possible, and an omitted one is integrated from ``eval`` once.  With
    ``validated=True`` construction raises ``InvalidParameterError`` unless
    :func:`validate_generator` passes; ``validated=False`` skips that, and
    reports then warn that the equality characterization is not guaranteed.
    A non-finite constant is always rejected.
    """

    name: str
    eval: Callable
    integral_0_1: float | None = None
    validated: bool = True
    _constant_key = "integral_0_1"  # a class attribute, not a field

    def __post_init__(self):
        _check_on_construction(self)


@dataclass(frozen=True)
class LogConvexGenerator:
    """Positive, log-strictly-convex generator xi on [0,1].

    ``integral_sq_0_1``, the integral of xi^2 over [0,1], centres the tau
    statistic; it is omitted, integrated and checked as ``integral_0_1`` is
    for :class:`ConvexGenerator`.  The antiderivative Xi is the memoised grid
    of :meth:`antiderivative_grid`, integrated from ``eval``.
    """

    name: str
    eval: Callable
    integral_sq_0_1: float | None = None
    validated: bool = True
    _constant_key = "integral_sq_0_1"

    def __post_init__(self):
        _check_on_construction(self)

    def antiderivative_grid(self, n: int) -> np.ndarray:
        """Xi evaluated at i/n for i = 0..n, read-only, kept by :func:`_memo_grids` under ``eval``.

        Computed by one quadrature call over the n panels and a cumulative sum
        so the jump weights Xi(i/n) - Xi((i-1)/n) used by the statistics are cheap.
        """
        return _memo_grids(self.eval, [(n, "antiderivative", lambda: np.concatenate(
            [[0.0], np.cumsum(adaptive_quad(self.eval, np.arange(n) / n, np.arange(1, n + 1) / n, tol=1e-13))]))])[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of probing a generator's defining inequalities on a grid."""

    generator_name: str
    passed: bool
    first_violation: str | None = None


def _name_token(v: float) -> str:
    """``v`` for a generator name: ``:g`` when that reads back exactly, else ``repr``."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def power_generator(m: int) -> ConvexGenerator:
    """h(u) = u^m for integer m >= 2; integral over [0,1] is 1/(m+1)."""
    m = _check_int(m, "power generator needs an integer m >= 2", 2)

    def _eval(u, _m=m):
        return np.asarray(u, dtype=float) ** _m

    return ConvexGenerator(name=f"power:{m}", eval=_eval, integral_0_1=1.0 / (m + 1))


def polynomial_generator(coeffs) -> ConvexGenerator:
    """h(u) = sum_k c_k u^k from coefficients c_1..c_m (no constant term).

    All coefficients must be non-negative and at least one c_k with k >= 2
    must be positive, otherwise h is not strictly convex.
    """
    c = np.asarray(list(coeffs), dtype=float)
    if c.size == 0:
        raise InvalidParameterError("polynomial generator needs at least one coefficient")
    if not np.all(np.isfinite(c)):
        raise InvalidParameterError("polynomial coefficients must be finite")
    if np.any(c < 0):
        bad = int(np.argmax(c < 0))
        raise InvalidParameterError(
            f"polynomial coefficient c_{bad + 1} = {c[bad]:g} is negative"
        )
    if c.size < 2 or not np.any(c[1:] > 0):
        raise NotStrictlyConvexError(
            "polynomial generator needs a positive coefficient for some power >= 2"
        )
    full = np.concatenate([[0.0], c])  # constant term is zero: h(0) = 0

    def _eval(u, _coef=full):
        return np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), _coef)

    integral = float(np.sum(c / (np.arange(1, c.size + 1) + 1.0)))
    name = "poly:" + ",".join(_name_token(v) for v in c)
    return ConvexGenerator(name=name, eval=_eval, integral_0_1=integral)


def bernstein_generator(h: ConvexGenerator, m: int) -> ConvexGenerator:
    """Degree-m Bernstein polynomial of a non-negative convex generator.

    B_m(u) = sum_{k=1..m} h(k/m) C(m,k) u^k (1-u)^(m-k); the k = 0 term is
    dropped, which pins B_m(0) = 0.  The integral over [0,1] is
    sum_k h(k/m) / (m+1) by the Beta integral.  The basis is computed in log
    space, so C(m,k) never overflows: log C(m,k) from ``math.lgamma``, and
    k log u and (m-k) log(1-u) from numpy, each 0 where its count is 0.
    """
    m = _check_int(m, "Bernstein degree must be an integer >= 2", 2)
    u = np.linspace(0.0, 1.0, DEFAULT_GRID + 1)
    probes = eval_on_array(h.eval, u)
    if np.any(probes < -CONVEXITY_EPS):
        raise InvalidParameterError(f"Bernstein smoothing needs h >= 0 on [0,1]; "
                                    f"h({u[np.argmin(probes)]:g}) = {probes.min():g}")
    k = np.arange(m + 1)
    weights = eval_on_array(h.eval, k / m) * (k > 0)
    log_factorial = np.array([math.lgamma(i + 1) for i in range(m + 1)])
    log_comb = log_factorial[m] - log_factorial[k] - log_factorial[m - k]

    def _eval(u, _k=k, _j=m - k, _w=weights, _c=log_comb):
        x = np.asarray(u, dtype=float)[..., None]
        # a term with count 0 is 0, also where its log is -inf; u outside [0, 1] or NaN gives NaN
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.where(_k == 0, 0.0, _k * np.log(x))
            b = np.where(_j == 0, 0.0, _j * np.log1p(-x))
            basis = np.exp(_c + a + b)
            # the basis sums to 1; dividing by its sum cancels the rounding log m! shares
            return np.sum(basis * _w, axis=-1) / np.sum(basis, axis=-1)

    with np.errstate(over="ignore"):
        integral = float(np.sum(weights[1:]) / (m + 1))
    if not np.isfinite(integral):
        raise NumericalError(f"Bernstein knot values of '{h.name}' at degree {m} sum to {integral}")
    return ConvexGenerator(name=f"bernstein:{h.name}:{m}", eval=_eval, integral_0_1=integral)


def exp_sq_generator(alpha: float) -> LogConvexGenerator:
    """xi(u) = exp(alpha * u^2), strictly log-convex for alpha > 0.

    alpha must be finite and positive.  The log-convexity gap of xi between
    neighbouring probe points is about alpha/32768 of their values, so
    :func:`validate_generator` rejects alpha below about 7e-8, where xi is
    log-linear to within rounding.  Construction integrates xi^2 once.  That
    quadrature overflows from alpha = 354.95, and past 709.8 xi itself
    overflows on the validator's grid, which would read as an invalid
    generator, so the overflow is raised here from 357.7 on.
    """
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0):
        raise InvalidParameterError(f"expsq generator needs a finite alpha > 0, got {alpha!r}")
    if alpha * (1.0 + (1.0 - 1.0 / DEFAULT_GRID) ** 2) > math.log(np.finfo(float).max):
        raise QuadratureError(f"quadrature of xi^2 over [0, 1] overflows at alpha = {alpha:g}")

    def _eval(u, _a=alpha):
        arr = np.asarray(u, dtype=float)
        return np.exp(_a * arr * arr)

    return LogConvexGenerator(name=f"expsq:{_name_token(alpha)}", eval=_eval)


def validate_generator(g) -> ValidationReport:
    """Probe what the statistics consume of a generator, on the grid k/256 of [0,1].

    Finite values; h(0) = 0 for a convex h, or xi > 0 for a log-convex xi; a
    strict midpoint gap at every k/256 (see the module docstring), arithmetic
    for h and geometric for xi; and the centering constant (``integral_0_1``,
    or ``integral_sq_0_1``) within 1e-10 of quadrature (relative to the
    integral once it exceeds 1, since quadrature resolves 1e-12 of it).
    Violations are reported, not raised: the smallest gap, or the first other
    failed probe.
    """
    if not isinstance(g, (ConvexGenerator, LogConvexGenerator)):
        raise InvalidParameterError(f"cannot validate object of type {type(g).__name__}")
    violation = _probe(g) or _constant_violation(g)
    return ValidationReport(g.name, violation is None, violation)


def _check_on_construction(g):
    """Reject a non-finite centering constant, then run :func:`validate_generator`'s checks
    if ``g.validated``; an omitted constant is integrated once, not compared with itself."""
    key = g._constant_key
    constant = getattr(g, key)
    if constant is not None and not np.isfinite(constant):
        raise InvalidParameterError(f"generator '{g.name}': {key} = {constant!r} is not finite")
    if g.validated:
        violation = _probe(g) or (constant is not None and _constant_violation(g))
        if violation:
            raise InvalidParameterError(f"generator '{g.name}' failed validation: {violation}")
    if constant is None:
        object.__setattr__(g, key, _centering_quad(g))


def _centering_quad(g) -> float:
    """Quadrature of h, or of xi^2, over [0,1]: the value the centering constant must have."""
    integrand = g.eval if isinstance(g, ConvexGenerator) else (lambda v: eval_on_array(g.eval, v) ** 2)
    return adaptive_quad(integrand, 0.0, 1.0)


def _constant_violation(g) -> str | None:
    """The centering constant's mismatch with its quadrature (a NaN is one), or None."""
    quad, constant = _centering_quad(g), getattr(g, g._constant_key)
    if not abs(quad - constant) <= 1e-10 * max(1.0, abs(quad)):
        return f"{g._constant_key} = {constant!r} but quadrature gives {quad!r}"
    return None


@np.errstate(over="ignore", invalid="ignore")  # an overflowing convex gap is a NaN slack: a violation
def _probe(g) -> str | None:
    """The first violation of the grid probe of :func:`validate_generator`, or None."""
    convex = isinstance(g, ConvexGenerator)
    u = np.arange(2 * DEFAULT_GRID + 1) / (2 * DEFAULT_GRID)
    values = eval_on_array(g.eval, u)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        return f"{'h' if convex else 'xi'}({u[bad]:g}) = {values[bad]} is not finite"
    if convex and abs(values[0]) > CONVEXITY_EPS:
        return f"h(0) = {values[0]:.3e}, expected 0"
    if not convex and np.any(values <= 0):
        bad = int(np.argmax(values <= 0))
        return f"xi({u[bad]:g}) = {values[bad]:.3e} is not positive"
    # the pair (u[k], u[k + 2]) around u[k + 1]
    lo, centre, hi = values[:-2], values[1:-1], values[2:]
    mean, mid = (0.5 * lo + 0.5 * hi, centre) if convex else (lo * hi, centre * centre)
    if not convex:  # where a product overflows, compare (lo/mid)(hi/mid) with 1 instead
        big = ~(np.isfinite(mean) & np.isfinite(mid))
        mean[big], mid[big] = (lo[big] / centre[big]) * (hi[big] / centre[big]), 1.0
    slack = mean - mid - CONVEXITY_EPS * np.abs(mean) - CONVEXITY_EPS * np.abs(mid)
    worst = int(np.argmin(np.where(np.isnan(slack), -np.inf, slack)))
    if not slack[worst] > 0:
        return (f"{'midpoint convexity' if convex else 'log-convexity'} not strict at (u, v) = "
                f"({u[worst]:g}, {u[worst + 2]:g}): gap = {mean[worst] - mid[worst]:.3e}")
    return None


def parse_generator_spec(spec: str):
    """The generator of a spec, parsed, validated and integrated once per process.

    Accepted forms: ``power:m``, ``poly:c1,c2,...,cm``, ``bernstein:<inner-spec>:m``, ``expsq:alpha``.
    The same object is returned for up to ``MEMO_SIZE`` specs, keyed by ``str(spec)``, a Bernstein
    spec's inner one included; a spec that raises is not kept.
    """
    return _parse_spec(str(spec))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _parse_spec(spec):
    s = spec.strip()
    if s.startswith("bernstein:"):
        inner, sep, degree = s[len("bernstein:"):].rpartition(":")
        if not sep or not inner:
            raise GeneratorSpecError(f"bernstein spec needs 'bernstein:<inner-spec>:m', got '{spec}'")
        base = parse_generator_spec(inner)
        if not isinstance(base, ConvexGenerator):
            raise GeneratorSpecError(f"bernstein inner spec '{inner}' is not a convex generator")
        return bernstein_generator(base, _parse_number(degree, spec, int))
    head, sep, arg = s.partition(":")
    if not sep:
        raise GeneratorSpecError(f"generator spec '{spec}' is missing a ':<args>' part")
    if head == "power":
        return power_generator(_parse_number(arg, spec, int))
    if head == "poly":
        return polynomial_generator([_parse_number(t, spec) for t in arg.split(",")])
    if head == "expsq":
        return exp_sq_generator(_parse_number(arg, spec))
    raise GeneratorSpecError(f"unknown generator family '{head}' in spec '{spec}'")


parse_generator_spec.cache_info, parse_generator_spec.cache_clear = _parse_spec.cache_info, _parse_spec.cache_clear


def _parse_number(token, spec, convert=float):
    try:
        return convert(token)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise GeneratorSpecError(f"offending token '{token}' in generator spec '{spec}': not {kind}") from None
