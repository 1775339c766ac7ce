"""Independent oracles used by the test suite.

Deliberately naive implementations: fixed-panel Simpson sums, closed forms
via scipy.special, and O(n*m) double-loop statistics.  They share no code
with the package paths they verify.
"""

import math

import numpy as np
from scipy import special


def simpson(fn, a, b, panels=200_000):
    """Composite Simpson quadrature with a fixed panel count."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = fn(x)
    h = (b - a) / (2 * panels)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def expsq_antiderivative(alpha, u):
    """Closed form of the integral of exp(alpha v^2) from 0 to u."""
    r = math.sqrt(alpha)
    return math.sqrt(math.pi) / (2.0 * r) * special.erfi(r * u)


def expsq_square_integral(alpha):
    """Closed form of the integral of exp(2 alpha v^2) over [0, 1]."""
    r = math.sqrt(2.0 * alpha)
    return math.sqrt(math.pi) / (2.0 * r) * special.erfi(r)


def brute_ecdf(sample, x):
    """Right-continuous ECDF by direct counting."""
    return sum(1 for v in sample if v <= x) / len(sample)


def brute_two_sample(h_fn, h_integral, xs, ys):
    """Two-sample statistic by double loops over raw observations."""
    n, m = len(xs), len(ys)
    t1 = sum(h_fn(brute_ecdf(xs, y)) for y in ys) / m
    t2 = sum(h_fn(brute_ecdf(ys, x)) for x in xs) / n
    return t1 + t2 - 2.0 * h_integral


def brute_k_sample(h_fn, h_integral, groups, weights):
    """Weighted k-sample statistic by double loops."""
    k = len(groups)
    total = 0.0
    for j in range(k):
        for l in range(k):
            if j == l:
                continue
            term = sum(h_fn(brute_ecdf(groups[j], v)) for v in groups[l]) / len(groups[l])
            total += weights[j] * weights[l] * term
    return total - (1.0 - sum(w * w for w in weights)) * h_integral


def brute_tau(xi_fn, anti_fn, sq_integral, xs, ys):
    """Tau statistic assembled from explicit order statistics and jumps."""
    def one_side(from_vals, against_vals):
        srt = sorted(from_vals)
        n = len(srt)
        total = 0.0
        i = 0
        while i < n:
            r = 1
            while i + r < n and srt[i + r] == srt[i]:
                r += 1
            weight = anti_fn((i + r) / n) - anti_fn(i / n)
            total += xi_fn(brute_ecdf(against_vals, srt[i])) * weight
            i += r
        return total

    raw = one_side(xs, ys) + one_side(ys, xs)
    return raw - 2.0 * sq_integral


def reference_ecdf(sorted_sample, points, convention):
    """ECDF of a sorted sample at points, by binary search (both conventions)."""
    n = len(sorted_sample)
    right = np.searchsorted(sorted_sample, points, side="right")
    if convention == "right-continuous":
        return right / n
    left = np.searchsorted(sorted_sample, points, side="left")
    return (left + right) / (2.0 * n)


def reference_statistic(kind, gen, groups, weights, convention):
    """Statistic of observed groups by per-group searchsorted and array evaluation.

    The summation order is the kernel's: each integral sums one term per
    member of the evaluated group, in sorted order, with ``np.sum``; a tau
    term is xi at the other group's ECDF times the member's own jump
    Xi((i+1)/n) - Xi(i/n), so a tie block's jump is split among its members.
    ``gen.eval`` is called on whole arrays, so generators must evaluate
    elementwise.
    """
    groups = [np.sort(np.asarray(g, dtype=float)) for g in groups]

    def h_integral(f_sample, at_sample):
        vals = reference_ecdf(f_sample, at_sample, convention)
        return float(np.sum(np.asarray(gen.eval(vals), dtype=float)) / len(at_sample))

    def xi_integral(g_sample, f_sample):
        jumps = np.diff(gen.antiderivative_grid(len(f_sample)))
        gvals = np.asarray(gen.eval(reference_ecdf(g_sample, f_sample, convention)), dtype=float)
        return float(np.sum(gvals * jumps))

    if kind == "two_sample":
        x, y = groups
        return h_integral(x, y) + h_integral(y, x) - 2.0 * gen.integral_0_1
    if kind == "tau":
        x, y = groups
        return xi_integral(y, x) + xi_integral(x, y) - 2.0 * gen.integral_sq_0_1
    raw = 0.0
    for j in range(len(groups)):
        for l in range(len(groups)):
            if j != l:
                raw += weights[j] * weights[l] * h_integral(groups[j], groups[l])
    return raw - (1.0 - sum(w * w for w in weights)) * gen.integral_0_1
