"""The bound arithmetic of the sweep: analytic closed forms over arrays and the tight inversion.

:func:`_analytic_bounds` evaluates and clamps both analytic bounds of
:mod:`~selbounds.bounds` for an array of entropies.  :func:`_invert_lower`
and :func:`_invert_upper` give the tight bounds, by inverting the exact
curves of :mod:`~selbounds.curves`.  The report layer in
:mod:`~selbounds.bounds` and the sweep in :mod:`~selbounds.oracle` both
call these functions, and the sweep needs nothing else from the bounds.

*Tight numeric bounds.*  Over arrays of ``(n, m, h)`` that may mix
shapes, :func:`_invert_lower` inverts the strictly increasing maximum
entropy ``H_max(pi)`` and :func:`_invert_upper` the exact discrete
minimum ``H_min(pi)``, which is non-decreasing and which
:func:`~selbounds.curves.min_entropy_values` takes from a fixed number
of junctions per ``pi``, whatever ``n``.
:class:`~selbounds.bounds.TightInverter`,
:func:`~selbounds.bounds.pi_bounds_tight`,
:func:`~selbounds.bounds.build_report` and the sweep all call these two
functions.  Take any feasible ``p`` with tail mass ``pi' > pi`` and move
``pi' - pi`` from its smallest tail entries onto ``p[0]``: the result is
still sorted, has tail mass ``pi`` and majorizes ``p``, so its entropy is
no higher.  Hence ``H_min(pi) <= H_min(pi')``, and
``{pi : H_min(pi) <= h}`` is an interval starting at 0.

*Certificates.*  Write ``T`` for a curve, ``K`` for its kernel,
``u = 2**-53`` and ``eps(t) = 2**-46 * t + 2**-1010``
(:func:`_kernel_error`).  Both kernels satisfy

    |K(pi) - T(pi)| <= eps(T(pi))/2      at every double pi in [0, top)   (*)

(proved below).  Both ``t - eps(t)/2`` and ``t + eps(t)/2`` increase
with ``t``.  So if ``K(a) <= h - 3*eps(h)/4``, then ``T(a) < h``, since
``T(a) >= h`` would give ``K(a) >= T(a) - eps(T(a))/2 >= h - eps(h)/2``;
as ``H_max`` increases, ``a`` lies below the least ``pi`` with
``H_max(pi) >= h``, a lower bound.  Likewise ``K(b) >= h + 3*eps(h)/4``
gives ``T(b) > h``; as ``H_min`` does not decrease, ``b`` lies above the
greatest ``pi`` with ``H_min(pi) <= h``, an upper bound.  The rounding of
``h -+ 3*eps/4`` is under ``u*h``, inside the slack of ``eps/4``.  Such a
certificate is safe against the exact curve, on whichever side of it the
kernel's own crossing falls.  :func:`_invert_lower` returns an ``a`` and
:func:`_invert_upper` a ``b``; 0 and ``top``, the largest tail mass
reported, bound every answer and stand where nothing tighter is found.  A pair with ``b <= a`` would
contradict (*): :func:`_certify` raises
:class:`~selbounds.errors.NumericFailureError` on one.

*The search.*  :func:`_certify` wants each returned certificate within
``_TIGHT*eps = 3*eps`` of ``h``: ``K(a) >= h - 3*eps`` or
``K(b) <= h + 3*eps``.  Its first kernel call samples each shape's curve
on a fixed grid of ``top`` (``_GRID``), which brackets every crossing,
and, for ``H_min``, tries :func:`_arc_crossing`, the closed-form crossing
of the right endpoint, which is ``H_min`` for the larger tail masses.
Each later call takes two points per open element, aimed where its
estimate reads ``h -+ d``: the estimate is the crossing's bracket's
chord, or the quadratic through the three points nearest ``h`` where
that falls inside the bracket; ``d`` is twice the last aim's miss, at
least ``_REACH*eps``, mid-way between the margin and ``_TIGHT*eps``.
Each element also keeps the nearest point ``f`` known not to certify the
end it returns.  Where its aim is unusable, or the last call did not
halve the doubles between that end and ``f``, it takes two midpoints of
that search bracket instead: in doubles, so the bracket at least halves
every second call, and the geometric one in distance to ``top``, where
both curves flatten and a crossing within ``eps`` of ``log2 n`` lies far
from the points the aims sample.  An element is done once its end is
within ``3*eps`` of ``h``, no double lies between its end and ``f``, or
``a`` and ``b`` are at most 4 ulps apart.  Every element's points depend
only on its own ``(n, m, h)`` and its shape's grid, so a batched answer
equals the scalar one.

*Why (*) holds.*  Let ``fe(t) = -t*log2(t)``, and take ``log2`` and
``log1p`` within one ulp (``2u`` relative).  Each candidate value of
``H_min`` (a junction, or the right endpoint) and ``H_max`` is a sum of
at most four non-negative terms; below, each term's error is bounded by
a multiple of ``u`` times the candidate's exact value ``H``.  A minimum
of values each within ``r*H`` of their own is within ``r*T`` of ``T``,
and so are ``max(., 0)`` and the cap at ``H_max`` at the ceiling, since
``H_min <= H_max``.  The junctions the kernel evaluates hold the lowest
one up to ties within rounding (:mod:`~selbounds.curves`).

- *Entries.*  A term ``c*fe(x)`` of an entry ``x <= 1/2`` computed
  within ``2u`` of exact (``pi/s``, ``pi``, or the right endpoint
  ``(1-pi)/m``; for ``m = 1`` that one has copies only where
  ``pi >= 1/2``) is within ``6u`` of itself: ``|x*fe'(x)/fe(x)| =
  |1 - log2(e)/log2(1/x)| <= 1`` there, and the log and two products
  round.  ``(1-pi)*log2(m)`` and ``pi*log2(n-m)`` are within ``4u``.
- *The head entry* ``y = 1 - d``, with ``d = pi + (m-1)*p`` within
  ``4u*d``, is :func:`~selbounds.core.complement_entropy_terms` of
  ``d``.  For ``d <= 1/2`` its relative sensitivity to ``d`` is at most
  1, so it is within ``10u`` of itself.  For ``d > 1/2``, ``y < 1/2`` is
  the largest entry, so ``H >= log2(1/y) >= 1``; ``1 - d`` is exact
  (Sterbenz), and ``|fe'(y)| <= 1.45*H`` turns the ``4u`` in ``d`` into
  ``6u*H``, for ``12u*H`` with its own rounding.
- *The right endpoint's remainder* ``pi - c*p`` (``c >= 1`` slots; with
  none it is ``pi`` itself) moves by at most ``3u*pi`` (the error of
  ``p``, the product, an exact subtraction), so its term by at most
  ``fe(3u*pi) <= 3u*pi*(51.5 + log2(1/pi))``.  As ``H >= fe(pi)`` and,
  with the ``m + c`` entries ``p`` holding at least ``1 - p``,
  ``H >= (1-p)*log2(1/p)`` with ``p <= 1/(m+1)``, that is at most
  ``40u*H``: ``(1 - m*p)/((1-p)*log2(1/p))`` is at most 0.34 for
  ``m = 2``, where ``p`` is within ``u`` (halving is exact), and 0.24
  for ``m >= 3``; for ``m = 1``, ``p = 1 - pi`` is exact and ``p <= 1/3``
  wherever the product rounds.

Sums add ``3u*H``.  A junction is then within ``17u*H``, the right
endpoint within ``61u*H`` and ``H_max`` within ``9u*H``, all under
``eps(H)/2 = 64u*H``.  Subnormal entries and products err by at most
``2**-1075`` each, times ``log2(1/x) + 2 < 2**11`` and a count under
``2**53`` (``n`` is exact as a double): the floor ``2**-1011`` of
``eps/2`` covers them.  ``n`` enters only through ``H <= log2 n``.
Tests check (*) against the 50-digit curves: the largest errors seen
are about ``10u*T`` (``H_min``, next to the right endpoint's corners) and
``3u*T`` (``H_max``).
"""

from __future__ import annotations

import math

import numpy as np

from .curves import max_entropy_values, min_entropy_values
from .errors import NumericFailureError


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
    valid) and, for ``m >= 2``, ``1 - h/log2 m``.  ``lb`` is clamped into
    ``[0, (n-m)/n]`` and ``ub`` into ``[lb, (n-m)/n]``.

    Each junction entry is ``h`` times the ratio ``s/den``, so for
    ``h >= 0`` the largest is at the largest ratio.  The rounded entry
    ``fl(fl(h*s)/den)`` is a rounding of a value within ``2u`` of
    ``h*s/den`` (``u = 2**-53``), and the ratios as computed are within
    ``u`` of theirs; rounding is monotone, so an entry whose computed ratio
    is below ``1 - 2**-48`` of the largest cannot round above the largest
    one's entry.  Only the ``j`` within that band are evaluated, and the
    maximum over them is the maximum over every ``j``, bit for bit; the
    cost is ``O(n-m)`` once and ``O(1)`` per entropy.
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
        ratio = slots / den
        best = ratio >= ratio.max() * (1.0 - 2.0**-48)
        junction = ((hs[:, None] * slots[best]) / den[best]).max(axis=1)
        # max(junction, entry) as Python takes it: the junction wins ties
        ub_raw = junction if m == 1 else np.where(ub_raw > junction, ub_raw, junction)
    lb = _clamp(lb_raw, 0.0, top)
    return lb, _clamp(ub_raw, lb, top), lb_raw, ub_raw


def _kernel_error(hs: np.ndarray) -> np.ndarray:
    """``eps = 2**-46 * h + 2**-1010``: both kernels err by at most ``eps/2`` (module docstring)."""
    return np.ldexp(hs, -46) + 2.0**-1010


#: Fractions of ``top`` at which the first kernel call samples each
#: shape's curve: 16 powers of two from 2**-998 up to 2**-8, then 127
#: evenly spaced.
_GRID = np.array([2.0**-e for e in range(998, 7, -66)] + [i / 128 for i in range(1, 128)])
#: A kernel value at least ``_MARGIN*eps`` from ``h`` certifies its side.
_MARGIN = 0.75
#: A certificate within ``_TIGHT*eps`` of ``h`` is as tight as the bound needs.
_TIGHT = 3.0
#: The aims are at ``h -+ _REACH*eps``, mid-way between the two.
_REACH = (_MARGIN + _TIGHT) / 2
#: Most kernel calls of one inversion.  A search bracket at least halves
#: every second call, and holds fewer than ``2**63`` doubles.
_MAX_CALLS = 130


def _inverse_quadratic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x`` at ``y = 0`` on the quadratic in ``y`` through three points (Newton form).

    ``x`` and ``y`` hold one row per point and one column per element.
    """
    d01 = (x[1] - x[0]) / (y[1] - y[0])
    d12 = (x[2] - x[1]) / (y[2] - y[1])
    return x[0] - y[0] * (d01 - y[1] * (d12 - d01) / (y[2] - y[0]))


def _last_columns(ks: np.ndarray, row: np.ndarray, bars: np.ndarray) -> np.ndarray:
    """Per bar, the last column of its element's row of ``ks`` at or below the bar.

    ``bars`` holds one column per element.  The row's first column is taken
    to be at or below every bar and its last above it; the columns between
    are bisected, so a monotone row gives its crossing.
    """
    j, stop = np.zeros(bars.shape, np.int64), np.full(bars.shape, ks.shape[1] - 1)
    while (wide := stop - j > 1).any():
        mid = (j + stop) // 2
        go = ks[row, mid] <= bars
        j, stop = np.where(wide & go, mid, j), np.where(wide & ~go, mid, stop)
    return j


def _gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per element, how many doubles apart ``x >= 0`` and ``y >= 0`` are."""
    return np.abs(x.view(np.int64) - y.view(np.int64))


def _between(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x`` clipped to the doubles strictly between ``u >= 0`` and ``v >= 0``, in either order."""
    u, v = u.view(np.int64), v.view(np.int64)
    return np.clip(x.view(np.int64), np.minimum(u, v) + 1, np.maximum(u, v) - 1).view(float)


def _certify(lo, hi, hs, curve, shape, ends, guess, upper):
    """Per element, a double on the safe side of its exact curve's crossing of ``hs``.

    Returns ``a`` with ``K(a) <= h - _MARGIN*eps`` or, where ``upper``,
    ``b`` with ``K(b) >= h + _MARGIN*eps``; ``lo`` and ``hi`` bound each
    answer and stand where no tighter double is found.  ``curve(pi, idx)``
    is the kernel at tail masses ``pi`` for elements ``idx``; elements with
    equal ``shape`` keys have equal curves, whose values at 0 and at ``hi``
    are ``ends``.  ``guess`` holds an estimate of each crossing and of the
    curve's slope there, NaN where there is none.  See the module docstring.
    """
    out = (hi if upper else lo).copy()
    idx = np.flatnonzero(_gap(lo, hi) > 1)
    if not idx.size:
        return out
    # Per open element, one column of the state: the certificates a and b;
    # the nearest point f known not to certify the returned one; the
    # crossing's bracket (pl, pr), K(pl) <= h < K(pr); the three points
    # nearest h; each point with its kernel value; and how far the last aim
    # missed, in bits.
    state = np.empty((19, idx.size))
    a, ka, b, kb, f, kf, pl, kl, pr, kr, h, eps, miss = state[:13]
    xs, ks = state[13:16], state[16:19]
    h[:] = hs[idx]
    eps[:] = _kernel_error(h)

    # First call: each shape's curve on the grid, and the aim of each guess.
    keys = shape[idx].tolist()
    first = {}  # each shape's first element
    for position, key in enumerate(keys):
        first.setdefault(key, position)
    row = np.array([*map({key: i for i, key in enumerate(first)}.get, keys)])
    reps = idx[list(first.values())]
    grid = hi[reps, None] * _GRID
    center, slope = (g[idx] for g in guess)
    aimed = np.isfinite(center) & (slope > 0) & np.isfinite(slope)
    spread = _REACH * eps
    x = np.full((idx.size, 2), np.nan)
    reach = spread[aimed] / slope[aimed]
    x[aimed] = _between(center[aimed, None] + reach[:, None] * [-1.0, 1.0],
                        lo[idx[aimed], None], hi[idx[aimed], None])
    k = curve(np.concatenate([grid.ravel(), x[aimed].ravel()]),
              np.concatenate([np.repeat(reps, _GRID.size), np.repeat(idx[aimed], 2)]))
    guessed = k[grid.size:].reshape(-1, 2)
    # Each shape's row of the curve holds its ends and the grid; each element
    # bisects its row for its certificates and its crossing.
    xg = np.column_stack([np.zeros(reps.size), grid, hi[reps]])
    kg = np.column_stack([ends[0][reps], k[:grid.size].reshape(grid.shape), ends[1][reps]])
    bars = np.stack([h - _MARGIN * eps, np.nextafter(h + _MARGIN * eps, -np.inf), h])
    ja, jb, j = _last_columns(kg, row, bars)
    a[:], ka[:], b[:], kb[:] = xg[row, ja], kg[row, ja], xg[row, jb + 1], kg[row, jb + 1]
    f[:], kf[:] = (xg[row, jb], kg[row, jb]) if upper else (xg[row, ja + 1], kg[row, ja + 1])
    pl[:], kl[:], pr[:], kr[:] = xg[row, j], kg[row, j], xg[row, j + 1], kg[row, j + 1]
    near = np.clip(j + np.arange(-1, 2)[:, None], 0, _GRID.size + 1)
    xs[:], ks[:] = xg[row, near], kg[row, near]
    miss[:] = np.inf
    k = np.full(x.shape, np.nan)
    k[aimed] = guessed
    width = np.full(idx.size, np.iinfo(np.int64).max)  # nothing to compare the grid with
    side = 1 if upper else 0  # the column of x aimed at the returned end
    for _ in range(_MAX_CALLS):
        # Take in the values k at the points x.
        sure_a, sure_b = h - _MARGIN * eps, h + _MARGIN * eps
        for xj, kj in zip(x.T, k.T):
            below, above, left = kj <= sure_a, kj >= sure_b, kj <= h
            for point, value, take in (
                (a, ka, below & (xj > a)),
                (b, kb, above & (xj < b)),
                (f, kf, ~above & (xj > f) if upper else ~below & (xj < f)),
                (pl, kl, left & (xj > pl)),
                (pr, kr, ~left & (xj < pr)),
            ):
                np.copyto(point, xj, where=take)
                np.copyto(value, kj, where=take)
        if (a >= b).any():
            raise NumericFailureError("crossed certificates: a kernel is off by more than its error bound")
        miss[:] = np.where(aimed, np.abs(k - h[:, None] - spread[:, None] * [-1.0, 1.0]).max(axis=1),
                           np.inf)
        both_x, both_k = np.concatenate([xs, x.T]), np.concatenate([ks, k.T])
        nearest = np.argsort(np.abs(both_k - h), axis=0, kind="stable")[:3]
        xs[:], ks[:] = np.take_along_axis(both_x, nearest, 0), np.take_along_axis(both_k, nearest, 0)
        # Done: the returned end is within _TIGHT*eps of h, or no double lies
        # between it and f, or a and b are at most 4 ulps apart.
        end, off = (b, kb - h) if upper else (a, h - ka)
        gap = _gap(end, f)
        stalled = 2 * gap > width
        done = (off <= _TIGHT * eps) | (gap <= 1) | (_gap(a, b) <= 4)
        if done.any():
            out[idx[done]] = end[done]
            keep = ~done
            if not keep.any():
                return out
            idx, state, gap, stalled = idx[keep], state[:, keep], gap[keep], stalled[keep]
            a, ka, b, kb, f, kf, pl, kl, pr, kr, h, eps, miss = state[:13]
            xs, ks = state[13:16], state[16:19]
            end = b if upper else a
        with np.errstate(all="ignore"):  # an unusable aim is replaced below
            # Aim again: at the bracket's chord, or at the quadratic through
            # the three points nearest h where it falls inside the bracket.
            slope = (kr - kl) / (pr - pl)
            center = pl + (h - kl) / slope
            quad = _inverse_quadratic(xs, ks - h)
            fits = (quad > pl) & (quad < pr)
            np.copyto(miss, np.minimum(miss, np.abs(quad - center) * slope), where=fits)
            center = np.where(fits, quad, center)
            aimed = np.isfinite(center) & (slope > 0) & np.isfinite(slope) & ~stalled
            room = np.minimum(h - kl, kr - h) / 2
            spread = np.maximum(_REACH * eps, np.minimum(2 * miss, room))
            x = _between(center[:, None] + (spread / slope)[:, None] * [-1.0, 1.0],
                         a[:, None], b[:, None])
            x[:, side] = _between(x[:, side], end, f)
            # Elsewhere, two midpoints of the search bracket: in doubles,
            # which halves it, and in distance to the ceiling, where both
            # curves flatten (geometric).
            step = ~aimed
            if step.any():
                e, fs, top = end[step], f[step], hi[idx[step]]
                x[step, 1 - side] = ((e.view(np.int64) + fs.view(np.int64)) >> 1).view(float)
                x[step, side] = _between(top - np.sqrt((top - e) * (top - fs)), e, fs)
        width = gap
        k = curve(x.ravel(), np.repeat(idx, 2)).reshape(-1, 2)
    raise NumericFailureError("the tight bounds did not converge")


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
    iteration falls short, its later calls find the crossing.
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


def _ends(top, floor, ceiling) -> tuple[np.ndarray, np.ndarray]:
    """Each element's ``(lo, hi)``: ``[0, top]``, pinned to 0 where ``floor``, else to ``top`` where ``ceiling``."""
    return np.where(ceiling & ~floor, top, 0.0), np.where(floor, 0.0, top)


def _invert_lower(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """A lower bound on the least tail mass whose maximum entropy reaches ``hs``, per element.

    ``n``, ``m`` and ``hs`` are 1-D arrays of one length, one shape per
    entropy; the entropies are already clamped into ``[0, log2 n]``.
    Returns the certificate ``a`` of :func:`_certify`, whose exact
    ``H_max`` is below ``h``: 0 up to ``h = log2 m``, ``(n-m)/n`` from
    ``h = log2 n``.
    """
    log_m, log_n = _log2(m), _log2(n)
    return _certify(
        *_ends((n - m) / n, hs <= log_m, hs >= log_n), hs,
        lambda pi, idx: max_entropy_values(n[idx], m[idx], pi),
        _shape_keys(n, m), (log_m, log_n), np.full((2, hs.size), np.nan), upper=False,
    )


def _invert_upper(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """An upper bound on the greatest tail mass whose minimum entropy stays at or below ``hs``, per element.

    Same arguments as :func:`_invert_lower`.  Returns the certificate
    ``b`` of :func:`_certify`, whose exact ``H_min`` exceeds ``h``.  Any
    positive tail forces positive entropy, and only the uniform
    distribution, at the ceiling, reaches ``log2 n``.
    """
    log_n = _log2(n)
    return _certify(
        *_ends((n - m) / n, hs == 0.0, hs >= log_n), hs,
        lambda pi, idx: min_entropy_values(n[idx], m[idx], pi),
        _shape_keys(n, m), (np.zeros(hs.size), log_n), _arc_crossing(n, m, hs), upper=True,
    )
