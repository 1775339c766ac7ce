"""Independent oracles used by the test suite.

Deliberately naive implementations: fixed-panel Simpson sums, closed forms
via scipy.special, and O(n*m) double-loop statistics.  They share no code
with the package paths they verify.
"""

import math
from itertools import combinations, islice

import numpy as np
from scipy import special

# Pins of values that pass through numpy's exp, log, log1p, power, sinh or cosh hold per kernel set:
# numpy's AVX-512 kernels differ from libm's in the last bit at a few percent of points, and below
# AVX-512 numpy 2.4.6 calls libm's (x86-64, glibc).  Such pins are recorded under both, and this
# probe picks the set in use: on the AVX-512 kernels 51 of these 1001 points differ, on libm's none.
_PROBE = np.linspace(-50.0, 50.0, 1001)
LIBM_KERNELS = np.exp(_PROBE).tolist() == [math.exp(v) for v in _PROBE.tolist()]


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


def all_pairs_strict(fn, convex, grid=128, eps=1e-12):
    """Strictness verdict from every pair of the grid i/grid, not just neighbours.

    A reference for ``validate_generator``, which probes only the pairs of
    neighbours of each point of the half-step grid: finite values at the grid
    and every pair midpoint, h(0) = 0 (or xi > 0), and a midpoint gap
    mean - mid above eps (|mean| + |mid|) on all (grid + 1) grid / 2 pairs.
    A NaN gap counts as a violation.
    """
    u = np.linspace(0.0, 1.0, grid + 1)
    iu, iv = np.triu_indices(u.size, k=1)
    points = np.concatenate([u, 0.5 * (u[iu] + u[iv])])
    values = np.array([float(fn(t)) for t in points])
    if not np.all(np.isfinite(values)):
        return False
    vals, mids = values[:u.size], values[u.size:]
    if (abs(vals[0]) > eps) if convex else np.any(vals <= 0):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        mean, mid = (0.5 * (vals[iu] + vals[iv]), mids) if convex else (vals[iu] * vals[iv], mids ** 2)
        slack = mean - mid - eps * (np.abs(mean) + np.abs(mid))
    return bool(np.min(slack) > 0)


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


def hand_keys(sizes, seed, chunk, rows):
    """Untagged label keys of table chunk ``chunk`` under ``seed``, drawn by hand.

    Returns the final ``rows`` x N keys and their bit count.  The stream is
    SFC64 seeded by SeedSequence([seed, chunk]); keys are taken in row-major
    order, each raw word giving its low 32 bits and then its high 32 bits, or
    the whole word once N**2 > 2**(28 - tag), where tag = max(1, ceil(log2 k))
    bits hold the group.  A row with two equal keys is redrawn from the
    stream's continuation, tied rows in row order, until no row is tied.
    Argsorting a row's keys gives its slots in pooled rank order.
    """
    total = sum(sizes)
    tag = max(1, (len(sizes) - 1).bit_length())
    width = 64 if total ** 2 > 2 ** (28 - tag) else 32
    bits = np.random.SFC64(np.random.SeedSequence([seed, chunk]))

    def draw(n_rows):
        count = n_rows * total
        words = bits.random_raw(-(-count * width // 64))
        if width == 32:
            words = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()
        return (words[:count] >> tag).reshape(n_rows, total)

    def tied(block):
        ordered = np.sort(block, axis=1)
        return np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))

    keys = draw(rows)
    redo = tied(keys)
    while redo.size:
        keys[redo] = draw(redo.size)
        redo = redo[tied(keys[redo])]
    return keys, width - tag


def hand_uniforms(sizes, seed, chunk, rows):
    """The uniforms (key + 0.5) / 2**bits of :func:`hand_keys`, in slot order."""
    keys, bits = hand_keys(sizes, seed, chunk, rows)
    return (keys + 0.5) / 2.0 ** bits


def label_batches(sizes, rows):
    """Every assignment of pooled ranks to groups, as label matrices of <= ``rows`` rows.

    Row r, column p holds the group of pooled rank p in assignment r.  The
    first group's rank sets come from ``itertools.combinations``, one tuple per
    set, each followed by every row of the other groups' assignments.
    """
    total = sum(sizes)
    if len(sizes) == 1:
        yield np.zeros((1, total), dtype=np.int8)
        return
    rest = np.concatenate(list(label_batches(sizes[1:], rows))) + 1  # the other groups' assignments
    combos = combinations(range(total), sizes[0])
    for chosen in iter(lambda: list(islice(combos, max(1, rows // len(rest)))), []):
        free = np.ones((len(chosen), total), dtype=bool)  # ranks left for the other groups
        free[np.arange(len(chosen))[:, None], chosen] = False
        for lo in range(0, len(rest), rows):
            part = rest[lo:lo + rows]
            batch = np.zeros((len(chosen), total, len(part)), dtype=np.int8)
            batch[free] = np.tile(part.T, (len(chosen), 1))
            yield batch.transpose(0, 2, 1).reshape(-1, total)
