"""Bounds on error/merit probability of the optimal selection given entropy.

Two families of bounds are provided for a system with ``n`` objects,
``m`` selected and entropy ``h`` bits:

*Analytic closed forms.*  The lower bound inverts a relaxation of the
maximum-entropy curve and is only informative when ``m < n/2`` (for
``m >= n/2`` it degenerates to 0).  The upper bound composes the
junction-indexed relaxations of the minimum-entropy curve with the
``1 - h/log2(m)`` entry and takes their maximum.  Both are clamped into
the feasible interval ``[0, (n-m)/n]``; the unclamped values are kept for
transparency.  One batched helper, :func:`_analytic_bounds`, evaluates
and clamps them for an array of entropies; the scalar functions, the
report and the sweep all call it.

*Tight numeric bounds.*  The exact extremal curves are inverted by one
batched bisection, :func:`_bisect`, over arrays of ``(n, m, h)`` that may
mix shapes: :func:`_invert_lower` bisects the strictly increasing maximum
entropy ``H_max(pi)``; :func:`_invert_upper` bisects the exact discrete
minimum ``H_min(pi)``, which is non-decreasing and which
:func:`~selbounds.extrema.min_entropy_values` takes from a fixed number
of junctions per ``pi``, whatever ``n``.  Every element is bisected on
its own, on the int64 views of its doubles, so an answer does not depend
on the other elements of the call, until its bracket's ends are adjacent
doubles; the lower bound is the bracket's low end and the upper bound its
high end, so each is on the safe side of its curve's crossing, to the ulp.
:class:`TightInverter`, :func:`pi_bounds_tight`, :func:`build_report` and
the sweep all call these two functions.  Take any
feasible ``p`` with tail mass ``pi' > pi`` and move ``pi' - pi`` from its
smallest tail entries onto ``p[0]``: the result is still sorted, has tail
mass ``pi`` and majorizes ``p``, so its entropy is no higher.  Hence
``H_min(pi) <= H_min(pi')``, and ``{pi : H_min(pi) <= h}`` is an interval
starting at 0 whose right end the bisection finds.

*The certified walk.*  The bisection takes the path of one that calls the
kernel at every midpoint, but skips the calls whose outcome is certain.
Write ``T`` for a curve, ``K`` for its kernel and
``eps(t) = 2**-46 * max(t, 1)`` (:func:`_kernel_error`).  Suppose

    |K(pi) - T(pi)| <= eps(T(pi))/2      at every double pi in [0, top)   (*)

Both ``t - eps(t)/2`` and ``t + eps(t)/2`` increase with ``t``, and ``T``
is non-decreasing.  If ``K(a) <= h - 5*eps(h)/4``, then for every
midpoint ``x <= a``, ``K(x) <= T(x) + eps(T(x))/2 <= T(a) + eps(T(a))/2
<= K(a) + eps(T(a))``; ``T(a) < h`` (else ``K(a) >= T(a) - eps(T(a))/2
>= h - eps(h)/2``), so ``K(x) <= K(a) + eps(h) < h``: ``x`` is below
``h`` under either test, ``K < h`` or ``K <= h``.  If
``K(b) >= h + 5*eps(h)/4``, then for every ``x >= b``,
``K(x) >= T(b) - eps(T(b))/2 >= K(b) - eps(T(b))``, and
``eps(T(b)) <= eps(K(b)) * (1 + 2**-45)``, which leaves ``K(x) > h``.
The rounding of ``h -+ 5*eps/4`` is under ``eps/64``, inside the slack.
:func:`_certify` finds such ``a`` and ``b`` close around each crossing,
and :func:`_bisect` calls the kernel only at midpoints strictly between
them, so it returns the same doubles as the bisection that calls it
everywhere.  A bound looser than needed only costs calls; one too tight
would change answers, which the tests comparing the two bisections catch.

Why (*) holds, with ``u = 2**-53`` and ``fe(t) = -t*log2(t)``.  Each
candidate value of ``H_min`` (a junction, or the right endpoint) is a sum
of non-negative terms ``fe`` of its entries, times their counts.  The
rounding of ``pi/s`` or ``(1-pi)/m``, of ``log2`` and of the products and
sums costs at most ``16u*H``.  The head entry
``y = (1-pi) - (m-1)*p`` is off by at most ``4u`` absolute; it is the
largest entry, so ``|fe'(y)| = log2(1/y) + log2(e) <= H + 1.45`` (the
min-entropy is at most the entropy), which adds ``4u*(H + 1.45)``.  The
right endpoint's remainder ``pi - c*p`` is off by at most ``u*pi``
(Sterbenz), adding at most ``fe(u*pi) <= 53u*pi + u*H``.  The junctions
the kernel evaluates hold the lowest one up to ties within rounding
(:mod:`~selbounds.extrema`), and a minimum is off by at most the largest
error of the values it compares.  Together that is under
``64u*max(H, 1) = eps/2``: for ``pi > 1/2`` every entry is at most
``1 - pi``, so ``H >= log2(1/(1-pi)) > 1`` outgrows ``53u*pi``.  ``H_max = fe(1-pi) + fe(pi) +
(1-pi)*log2(m) + pi*log2(n-m)`` is off by at most ``8u*H + 2u``.
Subnormal terms err by less than ``2**-1070``.  ``n`` enters only through
``H <= log2 n``; tests check (*) against the 50-digit curves.

*The seed.*  :func:`_certify` makes at most ``_SEED_CALLS`` kernel calls.
The first samples each shape's curve on a fixed grid of ``top``
(``_GRID``), which brackets every crossing, and, for ``H_min``, tries
:func:`_arc_crossing`, the closed-form crossing of the right endpoint,
which is ``H_min`` for the larger tail masses.  Each later call takes two
points per open element, aimed where its estimate reads ``h -+ d``: the
estimate is the bracket's chord, or the quadratic through the three
points nearest ``h`` where that falls inside the bracket; ``d`` is twice
the last aim's miss, at least ``_REACH*eps``.  An element is done once
both points aimed at ``h -+ _REACH*eps`` certify.  The walk then needs
about ``log2`` of the doubles between ``a`` and ``b`` calls, one
bisection level each.

Merit-probability bounds are exact complements of the opposite error
bounds, clamped into ``[m/n, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    SortedDistribution,
    SystemShape,
    validate_counts,
    entropy,
    tail_probability,
)
from .errors import BadEntropyError, BadKError
from .transform import TransformedSystem, transform_repeated, transform_unique
from .extrema import _index_bound, max_entropy_values
# Imported under a private name: perfbench/tracing.py wraps a
# ``min_entropy_values`` attribute of this module with a counter that needs
# an integer ``n``, and the inversion passes one ``n`` per element.
from .extrema import min_entropy_values as _min_entropy_values


def _check_entropy(n: int, h: float, tol: float) -> float:
    h = float(h)
    if not math.isfinite(h):
        raise BadEntropyError(f"entropy must be finite, got {h!r}")
    top = math.log2(n)
    if h < -tol or h > top + tol:
        raise BadEntropyError(
            f"entropy {h!r} outside [0, log2({n})={top!r}] (tolerance {tol})"
        )
    return min(max(h, 0.0), top)


def entropy_lower_bound(shape: SystemShape, tol: float = DEFAULT_TOLERANCE) -> float:
    """Closed-form floor under the exact minimum entropy.

    Minimum over ``(n-j)*pi/(n-m-j+1) * log2(n*(n-m-j+1)/(n-m))`` for
    ``j = 1..y`` plus ``(n-y)*(1-pi)/m * log2(m)`` (the latter only when
    ``m >= 2``, since ``log2(1) = 0`` makes it vacuous).  Degenerates to 0
    when ``pi = 0``.
    """
    n, m, pi = shape.n, shape.m, shape.pi
    if pi <= tol:
        return 0.0
    y = _index_bound(n, m, pi)
    entries = []
    if y >= 1:
        js = np.arange(1, y + 1)
        slots = n - m - js + 1
        vals = ((n - js) * pi / slots) * np.log2(n * slots / (n - m))
        entries.extend(vals.tolist())
    if m >= 2:
        entries.append(((n - y) * (1.0 - pi) / m) * math.log2(m))
    if not entries:
        return 0.0
    return max(min(entries), 0.0)


def _clamp(x, lo, hi):
    """``min(max(x, lo), hi)`` per element, ties resolved as Python's ``min``/``max``.

    A bound equal to ``x`` leaves ``x`` in place, so ``-0.0`` survives.
    """
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _analytic_bounds(n: int, m: int, hs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Analytic ``(lb, ub, lb_raw, ub_raw)`` at each entropy of ``hs``.

    ``hs`` is a 1-D array already clamped into ``[0, log2 n]``.  The lower
    bound is ``(h - 1 - log2 m)/log2(n/m - 1)``, or 0 when ``m >= n/2``.
    The upper bound is the largest of the junction entries
    ``h*s/((n-j)*log2(n*s/(n-m)))`` with ``s = n-m-j+1`` over every
    ``j = 1..n-m`` (a superset of the shape-dependent junction count, which
    depends on the unknown tail mass; maximizing over the superset is still
    valid) and, for ``m >= 2``, ``1 - h/log2 m``.  The junction
    denominators are computed once; each entropy then takes one row of
    ``n-m`` entries, so memory does not grow with ``len(hs)``.  ``lb`` is
    clamped into ``[0, (n-m)/n]`` and ``ub`` into ``[lb, (n-m)/n]``.
    """
    top = (n - m) / n
    if 2 * m >= n:
        lb_raw = np.zeros_like(hs)
    else:
        lb_raw = (hs - 1.0 - math.log2(m)) / math.log2(n / m - 1.0)
    ub_raw = np.zeros_like(hs)  # n = m = 1 has no entry at all
    if m >= 2:
        ub_raw = 1.0 - hs / math.log2(m)
    if m < n:
        slots = np.arange(n - m, 0, -1, dtype=float)
        den = (n - np.arange(1, n - m + 1)) * np.log2(n * slots / (n - m))
        junction = np.array([((h * slots) / den).max() for h in hs.tolist()])
        # max(junction, entry) as Python takes it: the junction wins ties
        ub_raw = junction if m == 1 else np.where(ub_raw > junction, ub_raw, junction)
    lb = _clamp(lb_raw, 0.0, top)
    return lb, _clamp(ub_raw, lb, top), lb_raw, ub_raw


def _analytic_scalar(n: int, m: int, h: float, tol: float) -> tuple[float, ...]:
    """Checked entropy and its analytic ``(lb, ub, lb_raw, ub_raw)`` as floats.

    ``n`` and ``m`` must already be validated.
    """
    h = _check_entropy(n, h, tol)
    return h, *(float(v[0]) for v in _analytic_bounds(n, m, np.array([h])))


def pi_lower_bound(
    n: int, m: int, h: float, tol: float = DEFAULT_TOLERANCE
) -> float:
    """Analytic lower bound on the tail mass at entropy h (clamped)."""
    validate_counts(n, m)
    return _analytic_scalar(n, m, h, tol)[1]


def pi_upper_bound(
    n: int, m: int, h: float, tol: float = DEFAULT_TOLERANCE
) -> float:
    """Analytic upper bound on the tail mass at entropy h (clamped)."""
    validate_counts(n, m)
    return _analytic_scalar(n, m, h, tol)[2]


def flawed_pi_lower_bound(n: int, m: int, h: float) -> float:
    """Uncorrected lower-bound formula, for comparison reporting only.

    Applies ``(h - 1 - log2(m)) / log2(n/m - 1)`` unconditionally; for
    ``m >= n/2`` the denominator is non-positive and the value is
    meaningless (NaN when the denominator vanishes).  Never used in any
    validity claim.
    """
    validate_counts(n, m)
    ratio = n / m - 1.0
    if ratio <= 0.0:
        return math.nan
    den = math.log2(ratio)
    if den == 0.0:
        return math.nan
    return (float(h) - 1.0 - math.log2(m)) / den


def _open(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the brackets that still hold a double strictly between their ends."""
    return hi.view(np.int64) - lo.view(np.int64) > 1


def _kernel_error(hs: np.ndarray) -> np.ndarray:
    """``eps = 2**-46 * max(h, 1)``: both kernels err by at most ``eps/2`` (module docstring)."""
    return np.ldexp(np.maximum(hs, 1.0), -46)


#: Fractions of ``top`` at which the seed's first kernel call samples each
#: shape's curve: 16 powers of two from 2**-998 up to 2**-8, then 127
#: evenly spaced.
_GRID = np.array([2.0**-e for e in range(998, 7, -66)] + [i / 128 for i in range(1, 128)])
#: Most kernel calls of the seed.  The answers do not depend on it.
_SEED_CALLS = 8
#: A kernel value at least ``_MARGIN*eps`` from ``h`` certifies its side.
_MARGIN = 1.25
#: The seed aims at ``h -+ _REACH*eps``, just outside that band.
_REACH = 1.5


def _inverse_quadratic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, ``x`` at ``y = 0`` on the quadratic in ``y`` through three points (Newton form)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d01 = (x[:, 1] - x[:, 0]) / (y[:, 1] - y[:, 0])
        d12 = (x[:, 2] - x[:, 1]) / (y[:, 2] - y[:, 1])
        return x[:, 0] - y[:, 0] * (d01 - y[:, 1] * (d12 - d01) / (y[:, 2] - y[:, 0]))


def _certify(lo, hi, hs, curve, shape, ends, guess):
    """Per element, int64 views ``(a, b)``: a midpoint ``<= a`` is below, one ``>= b`` is not.

    ``curve(pi, idx)`` is the kernel at tail masses ``pi`` for elements
    ``idx``; elements with equal ``shape`` keys have equal curves, whose
    values at 0 and at ``hi`` are ``ends``.  ``guess`` holds an estimate
    of each crossing and of the curve's slope there, NaN where there is
    none.  See the module docstring.
    """
    a, b = lo.view(np.int64).copy(), hi.view(np.int64).copy()
    idx = np.flatnonzero(_open(lo, hi))
    if not idx.size:
        return a, b
    h, eps = hs[idx], _kernel_error(hs[idx])

    def aim(at, center, slope, spread):
        """Per element ``at``, where the line through ``center`` reads ``h -+ spread``, inside ``(a, b)``."""
        x = center[:, None] + (spread / slope)[:, None] * [-1.0, 1.0]
        return np.clip(x.view(np.int64), a[idx[at], None] + 1, b[idx[at], None] - 1).view(float)

    # First call: each shape's curve on the grid, and the aim of each guess.
    keys = shape[idx].tolist()
    first = {}  # each shape's first element
    for position, key in enumerate(keys):
        first.setdefault(key, position)
    row = np.array([*map({key: i for i, key in enumerate(first)}.get, keys)])
    reps = idx[list(first.values())]
    grid = hi[reps, None] * _GRID
    center, slope = (g[idx] for g in guess)
    at = np.flatnonzero(np.isfinite(center) & (slope > 0) & np.isfinite(slope))
    spread = _REACH * eps[at]
    x = aim(at, center[at], slope[at], spread)
    k = curve(np.concatenate([grid.ravel(), x.ravel()]),
              np.concatenate([np.repeat(reps, _GRID.size), np.repeat(idx[at], 2)]))
    # Each crossing's bracket on its shape's grid, found by bisecting the
    # grid's columns (one row per shape, with the curve's ends), and the
    # three points nearest h.
    xs = np.column_stack([np.zeros(reps.size), grid, hi[reps]])
    ks = np.column_stack([ends[0][reps], k[:grid.size].reshape(grid.shape), ends[1][reps]])
    j, stop = np.zeros(idx.size, np.int64), np.full(idx.size, _GRID.size + 1)
    while (wide := stop - j > 1).any():
        mid = (j + stop) // 2
        left = ks[row, mid] <= h
        j, stop = np.where(wide & left, mid, j), np.where(wide & ~left, mid, stop)
    pl, kl, pr, kr = xs[row, j], ks[row, j], xs[row, j + 1], ks[row, j + 1]
    a[idx] = np.where(kl <= h - _MARGIN * eps, pl.view(np.int64), a[idx])
    b[idx] = np.where(kr >= h + _MARGIN * eps, pr.view(np.int64), b[idx])
    near = row[:, None], np.clip(j[:, None] + np.arange(-1, 2), 0, _GRID.size + 1)
    xs, ks = xs[near], ks[near]
    miss = np.full(idx.size, np.inf)  # how far the last aim missed, in bits
    done = np.zeros(idx.size, bool)
    k = k[grid.size:].reshape(-1, 2)
    for call in range(_SEED_CALLS):
        # Take in the values k at the points x, aimed at h -+ spread.
        hn = h[at, None]
        sure = k <= hn - _MARGIN * eps[at, None], k >= hn + _MARGIN * eps[at, None]
        a[idx[at]] = np.maximum(a[idx[at]], np.where(sure[0], x, 0.0).view(np.int64).max(axis=1))
        b[idx[at]] = np.minimum(b[idx[at]], np.where(sure[1], x, np.inf).view(np.int64).min(axis=1))
        miss[at] = np.abs(k - hn - spread[:, None] * [-1.0, 1.0]).max(axis=1)
        done[at] = sure[0][:, 0] & sure[1][:, 1] & (spread <= 2 * _REACH * eps[at])
        for xj, kj in zip(x.T, k.T):
            left = kj <= h[at]
            up, down = left & (xj > pl[at]), ~left & (xj < pr[at])
            pl[at[up]], kl[at[up]] = xj[up], kj[up]
            pr[at[down]], kr[at[down]] = xj[down], kj[down]
        both_x, both_k = np.concatenate([xs[at], x], axis=1), np.concatenate([ks[at], k], axis=1)
        nearest = np.argsort(np.abs(both_k - hn), axis=1, kind="stable")[:, :3]
        xs[at], ks[at] = np.take_along_axis(both_x, nearest, axis=1), np.take_along_axis(both_k, nearest, axis=1)
        at = np.flatnonzero(~done & (b[idx] - a[idx] > 2))
        if call + 1 == _SEED_CALLS or not at.size:
            break
        # Aim again: at the bracket's chord, or at the quadratic through the
        # three points nearest h where it falls inside the bracket.
        slope = (kr[at] - kl[at]) / (pr[at] - pl[at])
        center = pl[at] + (h[at] - kl[at]) / slope
        quad = _inverse_quadratic(xs[at], ks[at] - h[at, None])
        fits = (quad > pl[at]) & (quad < pr[at])
        miss[at] = np.where(fits, np.minimum(miss[at], np.abs(quad - center) * slope), miss[at])
        center = np.where(fits, quad, center)
        usable = np.isfinite(center) & (slope > 0) & np.isfinite(slope)
        at, center, slope = at[usable], center[usable], slope[usable]
        if not at.size:
            break
        room = np.minimum(h[at] - kl[at], kr[at] - h[at]) / 2
        spread = np.maximum(_REACH * eps[at], np.minimum(2 * miss[at], room))
        x = aim(at, center, slope, spread)
        k = curve(x.ravel(), np.repeat(idx[at], 2)).reshape(-1, 2)
    # Certificates that cross each other would mean (*) failed: drop them.
    crossed = idx[a[idx] >= b[idx]]
    a[crossed], b[crossed] = lo[crossed].view(np.int64), hi[crossed].view(np.int64)
    return a, b


def _bisect(top, floor, ceiling, hs, curve, below, shape, ends, guess):
    """Bisect ``[0, top]`` per element until ``lo`` and ``hi`` are adjacent doubles.

    At most 62 steps, as ``[0, 1]`` holds fewer than ``2**62`` doubles.
    ``top`` is a float or one upper end per element.  Elements flagged
    ``floor`` stay at 0, the rest flagged ``ceiling`` at ``top``; a
    midpoint is left of the answer where ``below(curve(mid, idx), hs[idx])``.
    The other arguments go to :func:`_certify`, whose certificates settle
    every midpoint outside ``(a, b)`` without a kernel call.  Once they
    settle none, each open element waits on its next midpoint, and one
    kernel call takes all of them: one bisection level per call.
    """
    lo = np.where(ceiling & ~floor, top, 0.0)
    hi = np.where(floor, 0.0, top)
    a, b = _certify(lo, hi, hs, curve, shape, ends, guess)
    idx = np.flatnonzero(_open(lo, hi))
    while idx.size:
        # Every step the certificates settle, for all open elements at once.
        # A closed bracket's midpoint is its low end, which stays put.
        left, right = lo[idx].view(np.int64), hi[idx].view(np.int64)
        sure_left, sure_right = a[idx], b[idx]
        while True:
            mid = (left + right) >> 1  # the sum of two views stays below 2**63
            go, stop = (mid <= sure_left) & (mid > left), mid >= sure_right
            if not (go | stop).any():
                break
            left, right = np.where(go, mid, left), np.where(stop, mid, right)
        lo[idx], hi[idx] = left.view(float), right.view(float)
        idx = idx[right - left > 1]
        if not idx.size:
            break
        # every open element now waits on the kernel at its next midpoint
        mid = ((lo[idx].view(np.int64) + hi[idx].view(np.int64)) >> 1).view(float)
        go = below(curve(mid, idx), hs[idx])
        lo[idx[go]], hi[idx[~go]] = mid[go], mid[~go]
        idx = idx[_open(lo[idx], hi[idx])]
    return lo, hi


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of each element (``np.log2`` may differ in the last bit)."""
    return np.array([math.log2(v) for v in x.tolist()])


def _shape_keys(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One int64 per element, equal for equal ``(n, m)``."""
    return (np.asarray(n, np.int64) << 32) | np.asarray(m, np.int64)


def _arc_crossing(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the right endpoint's entropy reaches ``hs``, and its slope there; NaN where it cannot.

    With ``M = m + c`` (``c`` whole tail slots) the right endpoint at
    ``pi = (c + x)/(M + x)``, ``0 <= x <= 1``, holds ``M`` entries
    ``1/(M+x)`` and one ``x/(M+x)``: its entropy
    ``log2(M) + log2(1 + x/M) - x/(M+x)*log2(x)`` rises from ``log2 M`` to
    ``log2(M+1)``, with slope ``(M/m)*log2(1/x)`` in ``pi``, infinite at
    each corner ``c/M``.  ``M`` is the integer part of ``2**h``; ``x`` is
    taken by Newton, first on ``x*(1 - ln x) = M*ln2*(h - log2 M)``, the
    large-``M`` form, then on the exact one.  Only a guess for
    :func:`_certify`: where the endpoint is not the minimum, or the
    iteration falls short, the seed's later calls find the crossing.
    """
    with np.errstate(all="ignore"):
        big = np.floor(2.0**hs)
        big = np.where(np.log2(big + 1) <= hs, big + 1, big)
        big = np.where(np.log2(big) > hs, big - 1, big)
        rise = hs - np.log2(big)
        tau = np.clip(big * math.log(2) * rise, 0.0, 1.0)
        x = np.where(tau > 0.5, 1 - np.sqrt(2 * (1 - tau)), tau / (1 - np.log(tau)))
        steps = [lambda x: (x * (1 - np.log(x)) - tau) / -np.log(x)] * 3 + [
            lambda x: (np.log1p(x / big) / math.log(2) - x / (big + x) * np.log2(x) - rise)
            / (big * -np.log2(x) / (big + x) ** 2)] * 4
        for step in steps:
            x = np.clip(x, 5e-324, 1.0)
            dx = step(x)
            x = np.where(np.isfinite(dx), x - dx, x)
        x = np.clip(x, 5e-324, 1.0)
        valid = (big >= m) & (big < n)
        return np.where(valid, (big - m + x) / (big + x), np.nan), (big / m) * -np.log2(x)


def _invert_lower(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Least tail mass whose maximum entropy reaches ``hs``, per element.

    ``n``, ``m`` and ``hs`` are 1-D arrays of one length, one shape per
    entropy; the entropies are already clamped into ``[0, log2 n]``.
    Returns the low end of the final bracket, a double whose ``H_max`` is
    below ``h`` next to one whose ``H_max`` reaches it: a lower bound.
    """
    log_m, log_n = _log2(m), _log2(n)
    lo, _ = _bisect(
        (n - m) / n, hs <= log_m, hs >= log_n, hs,
        lambda pi, idx: max_entropy_values(n[idx], m[idx], pi), np.less,
        _shape_keys(n, m), (log_m, log_n), np.full((2, hs.size), np.nan),
    )
    return lo


def _invert_upper(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Greatest tail mass whose minimum entropy stays at or below ``hs``, per element.

    Same arguments as :func:`_invert_lower`.  Returns the high end of the
    final bracket, a double whose ``H_min`` exceeds ``h`` next to one whose
    ``H_min`` does not: an upper bound.  Any positive tail forces positive
    entropy, and only the uniform distribution, at the ceiling, reaches
    ``log2 n``.
    """
    log_n = _log2(n)
    _, hi = _bisect(
        (n - m) / n, hs == 0.0, hs >= log_n, hs,
        lambda pi, idx: _min_entropy_values(n[idx], m[idx], pi), np.less_equal,
        _shape_keys(n, m), (np.zeros(hs.size), log_n), _arc_crossing(n, m, hs),
    )
    return hi


class TightInverter:
    """Numeric inversion of the exact extremal-entropy curves for (n, m).

    ``lower`` and ``upper`` take a float (returning a float) or a 1-D array
    (returning an array); a batched answer equals the scalar one bit for bit.
    Both call :func:`_invert_lower`/:func:`_invert_upper` with this shape
    repeated per entropy.
    """

    def __init__(self, n: int, m: int):
        validate_counts(n, m)
        self.n = int(n)
        self.m = int(m)

    def _invert(self, invert, h):
        hs = np.atleast_1d(np.asarray(h, dtype=float))
        pis = invert(np.full(hs.shape, self.n), np.full(hs.shape, self.m), hs)
        return pis if np.ndim(h) else float(pis[0])

    def lower(self, h):
        """Least tail mass whose maximum entropy reaches h."""
        return self._invert(_invert_lower, h)

    def upper(self, h):
        """Greatest tail mass whose minimum entropy stays at or below h."""
        return self._invert(_invert_upper, h)


def pi_bounds_tight(
    n: int, m: int, h: float, tol: float = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """Tight numeric (lower, upper) bounds on the tail mass at entropy h."""
    inverter = TightInverter(n, m)
    h = _check_entropy(n, h, tol)
    return inverter.lower(h), inverter.upper(h)


def _merit(n: int, m: int, lb: float, ub: float) -> tuple[float, float]:
    """``(psi_lb, psi_ub)``: ``1 - ub`` and ``1 - lb`` clamped into ``[m/n, 1]``."""
    floor = m / n
    return min(max(1.0 - ub, floor), 1.0), min(max(1.0 - lb, floor), 1.0)


def merit_bounds_k1(
    n: int, m: int, h: float, tol: float = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """Merit-probability bounds: complements of the error bounds.

    The upper bound equals the closed form
    ``(log2(n-m) - h + 1) / log2(n/m - 1)`` whenever ``m < n/2``.
    """
    validate_counts(n, m)
    _, lb, ub, _, _ = _analytic_scalar(n, m, h, tol)
    return _merit(n, m, lb, ub)


@dataclass(frozen=True)
class BoundReport:
    """Analytic and tight bounds for one (n, m, entropy) query.

    ``mode`` is ``direct`` for plain queries and ``unique``/``repeated``
    when the system was first transformed for a requirement ``k > 1``;
    ``n``/``m``/``entropy_bits`` then describe the transformed system.
    ``clamped`` records which analytic values were pulled back into the
    feasible interval; the raw values are preserved alongside.
    """

    n: int
    m: int
    k: int
    mode: str
    entropy_bits: float
    pi_lb_analytic: float
    pi_ub_analytic: float
    pi_lb_tight: float
    pi_ub_tight: float
    pi_lb_raw: float
    pi_ub_raw: float
    psi_lb: float
    psi_ub: float
    clamped: tuple[str, ...]
    flawed_lb: float | None = None
    pi_observed: float | None = None
    selection_mismatch: bool | None = None

    def to_dict(self) -> dict:
        pi: dict = {
            "lb_analytic": self.pi_lb_analytic,
            "ub_analytic": self.pi_ub_analytic,
            "lb_tight": self.pi_lb_tight,
            "ub_tight": self.pi_ub_tight,
            "lb_raw": self.pi_lb_raw,
            "ub_raw": self.pi_ub_raw,
        }
        if self.flawed_lb is not None:
            pi["lb_flawed"] = self.flawed_lb
        out = {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "mode": self.mode,
            "entropy_bits": self.entropy_bits,
            "pi": pi,
            "psi": {"lb": self.psi_lb, "ub": self.psi_ub},
            "clamped": list(self.clamped),
        }
        if self.pi_observed is not None:
            out["pi_observed"] = self.pi_observed
        if self.selection_mismatch is not None:
            out["selection_mismatch"] = self.selection_mismatch
        return out


def build_report(
    n: int,
    m: int,
    entropy_bits: float,
    k: int = 1,
    mode: str = "direct",
    include_flawed: bool = False,
    tol: float = DEFAULT_TOLERANCE,
    pi_observed: float | None = None,
    selection_mismatch: bool | None = None,
) -> BoundReport:
    """Assemble a full bound report for one (n, m, entropy) query."""
    inverter = TightInverter(n, m)
    h, lb, ub, lb_raw, ub_raw = _analytic_scalar(n, m, entropy_bits, tol)
    flags = (
        ("pi_lb_analytic_at_floor", lb_raw < lb),
        ("pi_lb_analytic_at_ceiling", lb_raw > lb),
        ("pi_ub_analytic_at_ceiling", ub_raw > ub),
        ("pi_ub_analytic_at_floor", ub_raw < ub),
    )
    psi_lb, psi_ub = _merit(n, m, lb, ub)
    return BoundReport(
        n=int(n),
        m=int(m),
        k=int(k),
        mode=mode,
        entropy_bits=h,
        pi_lb_analytic=lb,
        pi_ub_analytic=ub,
        pi_lb_tight=inverter.lower(h),
        pi_ub_tight=inverter.upper(h),
        pi_lb_raw=lb_raw,
        pi_ub_raw=ub_raw,
        psi_lb=psi_lb,
        psi_ub=psi_ub,
        clamped=tuple(name for name, hit in flags if hit),
        flawed_lb=flawed_pi_lower_bound(n, m, h) if include_flawed else None,
        pi_observed=pi_observed,
        selection_mismatch=selection_mismatch,
    )


def bounds_for_k(
    dist: SortedDistribution,
    m: int,
    k: int,
    mode: str,
    include_flawed: bool = False,
    tol: float = DEFAULT_TOLERANCE,
) -> BoundReport:
    """Bounds for a requirement of k performing objects among the m selected.

    Transforms the system into its k-combination (``unique``) or
    k-multiset (``repeated``) equivalent, measures the transformed entropy,
    and applies the direct bounds at the transformed size.
    """
    if mode not in ("unique", "repeated"):
        raise BadKError(f"mode must be 'unique' or 'repeated', got {mode!r}")
    transform = transform_unique if mode == "unique" else transform_repeated
    ts = transform(dist, m, k, tol)
    return transformed_report(ts, include_flawed, tol)


def transformed_report(
    ts: TransformedSystem, include_flawed: bool = False, tol: float = DEFAULT_TOLERANCE
) -> BoundReport:
    """Direct bounds at ``ts``'s size; ``pi_observed`` is its sorted tail mass."""
    return build_report(
        ts.n_prime, ts.m_prime, entropy(ts.dist), k=ts.k, mode=ts.mode,
        include_flawed=include_flawed, tol=tol,
        pi_observed=tail_probability(ts.dist, ts.m_prime),
        selection_mismatch=ts.selection_mismatch,
    )
