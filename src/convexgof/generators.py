"""Generator functions that drive the divergence functionals.

Two families are supported: strictly convex generators h on [0,1] with
h(0) = 0, and positive log-strictly-convex generators xi on [0,1] carrying
their antiderivative Xi(u) = integral of xi from 0 to u.  Builders cover the
concrete families (powers, non-negative polynomials, Bernstein smoothing of
a convex generator, exp(alpha*u^2)); ``validate_generator`` probes the
defining strict inequalities on a finite grid.

Strictness is only checkable at finite resolution: the validator demands the
midpoint (log-)convexity gap to exceed 1e-12 on every grid pair, which
rejects linear/log-linear generators that would break the equality
characterization of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import comb

from .errors import (
    GeneratorSpecError,
    InvalidParameterError,
    NotStrictlyConvexError,
    QuadratureError,
)

QUAD_TOL = 1e-10
QUAD_LIMIT = 95_000  # subinterval cap, ~2e6 integrand evaluations
CONVEXITY_EPS = 1e-12
DEFAULT_GRID = 128


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises below
def adaptive_quad(fn, a: float, b: float, tol: float = QUAD_TOL) -> float:
    """Adaptive quadrature of ``fn`` over [a, b]; raises instead of degrading."""
    out = integrate.quad(fn, a, b, epsabs=tol, epsrel=1e-12, limit=QUAD_LIMIT, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or not np.isfinite(value) or abserr > 10.0 * max(tol, abs(value) * 1e-12):
        raise QuadratureError(
            f"quadrature failed on [{a:g}, {b:g}]: estimated error {abserr:.3e} "
            f"exceeds tolerance {tol:.1e}"
        )
    return value


def eval_on_array(fn, x):
    """Evaluate ``fn`` on an array, falling back to scalar calls if needed."""
    x = np.asarray(x, dtype=float)
    try:
        out = np.asarray(fn(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    flat = np.array([float(fn(t)) for t in x.ravel()])
    return flat.reshape(x.shape)


@dataclass(frozen=True)
class ConvexGenerator:
    """Strictly convex generator h on [0,1] with h(0) = 0.

    ``integral_0_1`` is the centering constant of the tests; builders fill it
    in closed form where possible.  ``validated`` is False for generators
    force-constructed with validation disabled; reports then warn that the
    equality characterization is not guaranteed.
    """

    name: str
    eval: Callable
    integral_0_1: float
    validated: bool = True

    def __call__(self, u):
        return self.eval(u)


@dataclass(frozen=True)
class LogConvexGenerator:
    """Positive, log-strictly-convex generator xi on [0,1].

    Carries the antiderivative Xi(u) and the constant integral of xi^2 over
    [0,1] used to center the tau statistic.
    """

    name: str
    eval: Callable
    antiderivative: Callable
    integral_sq_0_1: float
    validated: bool = True
    _grid_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, u):
        return self.eval(u)

    def antiderivative_grid(self, n: int) -> np.ndarray:
        """Xi evaluated at i/n for i = 0..n, cached per sample size.

        Computed by per-panel quadrature and a cumulative sum so the jump
        weights Xi(i/n) - Xi((i-1)/n) used by the statistics are cheap.
        """
        grid = self._grid_cache.get(n)
        if grid is None:
            edges = np.arange(n + 1) / n
            panels = [adaptive_quad(self.eval, a, b, tol=1e-13) for a, b in zip(edges[:-1], edges[1:])]
            grid = np.concatenate([[0.0], np.cumsum(panels)])
            grid.setflags(write=False)
            self._grid_cache[n] = grid
        return grid


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of probing a generator's defining inequalities on a grid."""

    generator_name: str
    grid_size: int
    passed: bool
    first_violation: str | None = None


def _name_token(v: float) -> str:
    """``v`` for a generator name: ``:g`` when that reads back exactly, else ``repr``."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def power_generator(m: int) -> ConvexGenerator:
    """h(u) = u^m for integer m >= 2; integral over [0,1] is 1/(m+1)."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 2:
        raise InvalidParameterError(f"power generator needs an integer m >= 2, got {m!r}")
    m = int(m)

    def _eval(u, _m=m):
        return np.asarray(u, dtype=float) ** _m if np.ndim(u) else float(u) ** _m

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
        out = np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), _coef)
        return out if np.ndim(u) else float(out)

    integral = float(np.sum(c / (np.arange(1, c.size + 1) + 1.0)))
    name = "poly:" + ",".join(_name_token(v) for v in c)
    return ConvexGenerator(name=name, eval=_eval, integral_0_1=integral)


def bernstein_generator(h: ConvexGenerator, m: int) -> ConvexGenerator:
    """Degree-m Bernstein polynomial of a non-negative convex generator.

    B_m(u) = sum_{k=1..m} h(k/m) C(m,k) u^k (1-u)^(m-k); the k = 0 term is
    dropped, which pins B_m(0) = 0.  The integral over [0,1] is
    sum_k h(k/m) / (m+1) by the Beta integral.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 2:
        raise InvalidParameterError(f"Bernstein degree must be an integer >= 2, got {m!r}")
    m = int(m)
    probes = eval_on_array(h.eval, np.linspace(0.0, 1.0, DEFAULT_GRID + 1))
    if np.any(probes < -CONVEXITY_EPS):
        u_bad = np.linspace(0.0, 1.0, DEFAULT_GRID + 1)[int(np.argmin(probes))]
        raise InvalidParameterError(
            f"Bernstein smoothing needs h >= 0 on [0,1]; h({u_bad:g}) = {probes.min():g}"
        )
    k = np.arange(1, m + 1)
    weights = eval_on_array(h.eval, k / m) * comb(m, k)

    def _eval(u, _k=k, _w=weights, _m=m):
        arr = np.asarray(u, dtype=float)
        basis = np.power(arr[..., None], _k) * np.power(1.0 - arr[..., None], _m - _k)
        out = basis @ _w
        return out if np.ndim(u) else float(out)

    integral = float(np.sum(eval_on_array(h.eval, k / m)) / (m + 1))
    return ConvexGenerator(name=f"bernstein:{h.name}:{m}", eval=_eval, integral_0_1=integral)


def exp_sq_generator(alpha: float) -> LogConvexGenerator:
    """xi(u) = exp(alpha * u^2) for alpha > 0.

    log xi = alpha u^2 is strictly convex; alpha = 0 would give a constant
    xi, which is rejected.  Antiderivative and the integral of xi^2 are
    computed by adaptive quadrature.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise InvalidParameterError(f"expsq generator needs alpha > 0, got {alpha!r}")

    def _eval(u, _a=alpha):
        arr = np.asarray(u, dtype=float)
        out = np.exp(_a * arr * arr)
        return out if np.ndim(u) else float(out)

    def _anti(u, _fn=_eval):
        u = float(u)
        if u == 0.0:
            return 0.0
        return adaptive_quad(_fn, 0.0, u)

    integral_sq = adaptive_quad(lambda v: np.exp(2.0 * alpha * v * v), 0.0, 1.0)
    return LogConvexGenerator(
        name=f"expsq:{_name_token(alpha)}",
        eval=_eval,
        antiderivative=_anti,
        integral_sq_0_1=integral_sq,
    )


def convex_generator_from_callable(name, fn, integral=None, validate=True,
                                   grid_size=DEFAULT_GRID) -> ConvexGenerator:
    """Wrap an arbitrary function as a ConvexGenerator.

    With ``validate=False`` the generator is constructed as-is and flagged
    unvalidated; downstream reports warn that the equality characterization
    is not guaranteed.
    """
    if integral is None:
        integral = adaptive_quad(fn, 0.0, 1.0)
    g = ConvexGenerator(name=name, eval=fn, integral_0_1=float(integral), validated=validate)
    if validate:
        report = validate_generator(g, grid_size)
        if not report.passed:
            raise InvalidParameterError(f"generator '{name}' failed validation: {report.first_violation}")
    return g


def log_convex_generator_from_callable(name, fn, antiderivative=None, integral_sq=None,
                                       validate=True, grid_size=DEFAULT_GRID) -> LogConvexGenerator:
    """Wrap an arbitrary positive function as a LogConvexGenerator."""
    if antiderivative is None:
        def antiderivative(u, _fn=fn):
            u = float(u)
            return 0.0 if u == 0.0 else adaptive_quad(_fn, 0.0, u)
    if integral_sq is None:
        integral_sq = adaptive_quad(lambda v: float(fn(v)) ** 2, 0.0, 1.0)
    g = LogConvexGenerator(
        name=name,
        eval=fn,
        antiderivative=antiderivative,
        integral_sq_0_1=float(integral_sq),
        validated=validate,
    )
    if validate:
        report = validate_generator(g, grid_size)
        if not report.passed:
            raise InvalidParameterError(f"generator '{name}' failed validation: {report.first_violation}")
    return g


def _validate_convex(g: ConvexGenerator, grid_size: int) -> ValidationReport:
    u = np.linspace(0.0, 1.0, grid_size + 1)
    vals = eval_on_array(g.eval, u)
    if abs(vals[0]) > CONVEXITY_EPS:
        return ValidationReport(g.name, grid_size, False, f"h(0) = {vals[0]:.3e}, expected 0")
    iu, iv = np.triu_indices(u.size, k=1)
    mids = 0.5 * (u[iu] + u[iv])
    gap = 0.5 * (vals[iu] + vals[iv]) - eval_on_array(g.eval, mids)
    worst = int(np.argmin(gap))
    if gap[worst] <= CONVEXITY_EPS:
        return ValidationReport(
            g.name, grid_size, False,
            f"midpoint convexity not strict at (u, v) = ({u[iu[worst]]:g}, {u[iv[worst]]:g}): "
            f"gap = {gap[worst]:.3e}",
        )
    quad = adaptive_quad(g.eval, 0.0, 1.0)
    if abs(quad - g.integral_0_1) > 1e-10:
        return ValidationReport(
            g.name, grid_size, False,
            f"integral_0_1 = {g.integral_0_1!r} but quadrature gives {quad!r}",
        )
    return ValidationReport(g.name, grid_size, True)


def _validate_log_convex(g: LogConvexGenerator, grid_size: int) -> ValidationReport:
    u = np.linspace(0.0, 1.0, grid_size + 1)
    vals = eval_on_array(g.eval, u)
    if np.any(vals <= 0):
        bad = int(np.argmax(vals <= 0))
        return ValidationReport(g.name, grid_size, False, f"xi({u[bad]:g}) = {vals[bad]:.3e} is not positive")
    iu, iv = np.triu_indices(u.size, k=1)
    mids = 0.5 * (u[iu] + u[iv])
    gap = vals[iu] * vals[iv] - eval_on_array(g.eval, mids) ** 2
    worst = int(np.argmin(gap))
    if gap[worst] <= CONVEXITY_EPS:
        return ValidationReport(
            g.name, grid_size, False,
            f"log-convexity not strict at (u, v) = ({u[iu[worst]]:g}, {u[iv[worst]]:g}): "
            f"gap = {gap[worst]:.3e}",
        )
    if abs(float(g.antiderivative(0.0))) > CONVEXITY_EPS:
        return ValidationReport(g.name, grid_size, False, "antiderivative(0) != 0")
    # antiderivative: monotone on the grid, consistent with quadrature at probes
    probes = u[:: max(1, grid_size // 8)]
    anti = np.array([float(g.antiderivative(t)) for t in probes])
    if np.any(np.diff(anti) < -CONVEXITY_EPS):
        return ValidationReport(g.name, grid_size, False, "antiderivative is not nondecreasing")
    for t, a in zip(probes, anti):
        if t == 0.0:
            continue
        q = adaptive_quad(g.eval, 0.0, float(t))
        if abs(a - q) > 1e-10:
            return ValidationReport(
                g.name, grid_size, False,
                f"antiderivative({t:g}) = {a!r} but quadrature gives {q!r}",
            )
    return ValidationReport(g.name, grid_size, True)


def validate_generator(g, grid_size: int = DEFAULT_GRID) -> ValidationReport:
    """Probe a generator's invariants on a uniform grid of [0,1].

    Violations are reported, not raised; the report carries the first
    violated probe.
    """
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 3:
        raise InvalidParameterError(f"grid_size must be an integer >= 3, got {grid_size!r}")
    if isinstance(g, ConvexGenerator):
        return _validate_convex(g, int(grid_size))
    if isinstance(g, LogConvexGenerator):
        return _validate_log_convex(g, int(grid_size))
    raise InvalidParameterError(f"cannot validate object of type {type(g).__name__}")


def parse_generator_spec(spec: str):
    """Parse the generator grammar used by the CLI and config files.

    Accepted forms: ``power:m``, ``poly:c1,c2,...,cm``,
    ``bernstein:<inner-spec>:m``, ``expsq:alpha``.
    """
    s = str(spec).strip()
    if s.startswith("bernstein:"):
        rest = s[len("bernstein:"):]
        inner, sep, degree = rest.rpartition(":")
        if not sep or not inner:
            raise GeneratorSpecError(f"bernstein spec needs 'bernstein:<inner-spec>:m', got '{spec}'")
        base = parse_generator_spec(inner)
        if not isinstance(base, ConvexGenerator):
            raise GeneratorSpecError(f"bernstein inner spec '{inner}' is not a convex generator")
        return bernstein_generator(base, _parse_int(degree, spec))
    head, sep, arg = s.partition(":")
    if not sep:
        raise GeneratorSpecError(f"generator spec '{spec}' is missing a ':<args>' part")
    if head == "power":
        return power_generator(_parse_int(arg, spec))
    if head == "poly":
        return polynomial_generator([_parse_float(t, spec) for t in arg.split(",")])
    if head == "expsq":
        return exp_sq_generator(_parse_float(arg, spec))
    raise GeneratorSpecError(f"unknown generator family '{head}' in spec '{spec}'")


def _parse_int(token, spec):
    try:
        return int(token)
    except ValueError:
        raise GeneratorSpecError(f"offending token '{token}' in generator spec '{spec}': not an integer") from None


def _parse_float(token, spec):
    try:
        return float(token)
    except ValueError:
        raise GeneratorSpecError(f"offending token '{token}' in generator spec '{spec}': not a number") from None
