"""The closed-form extremal-entropy curves ``H_max(pi)`` and ``H_min(pi)``.

For a shape ``(n, m, pi)``, :func:`max_entropy_values` and
:func:`min_entropy_values` give the highest and the lowest entropy of a
feasible distribution (:mod:`~selbounds.extrema`) at many tail masses,
of one shape or many, without building a distribution.  The tight bounds
(:mod:`~selbounds.inversion`) invert these two curves, and
:mod:`~selbounds.extrema` builds the distributions on them from the same
tail split (:func:`_tail_split`) and candidate entropies
(:func:`_candidate_entropies`).  A candidate for the minimum is pinned
down by ``p_hat``, the value of the last ``m - 1`` head entries and of
the full tail slots; the minimum sits at a junction ``p_hat = pi/s``,
with ``s`` full slots, or at the right endpoint ``p_hat = (1-pi)/m``.

*Which junction is lowest.*  At a junction the tail holds ``s`` full
slots, ``x = p_hat = pi/s``, and the balancing head entry is
``y = (1-pi) - (m-1)*x``.  Writing ``fe(t) = -t*log2(t)``, the junction
entropy is ``f(x) = (m-1)*fe(x) - pi*log2(x) + fe(y)``, with

    ln2 * f'(x)  = (m-1)*ln(y/x) - pi/x
    ln2 * f''(x) = (pi - (m-1)*x)/x**2 - (m-1)**2/y

At ``x = pi/s`` the sign of ``f''`` is that of
``(s - m + 1)*((1-pi)*s - (m-1)*pi) - (m-1)**2*pi = s*((1-pi)*s - (m-1))``,
so it changes once, at ``s_c = (m-1)/(1-pi)``, whatever ``n``: ``f`` is
convex in ``x`` where ``s > s_c`` and concave where ``s < s_c``.

In ``s`` the slope reads ``ln2 * f'(pi/s) = d(s)`` with

    d(s)   = (m-1)*ln((1-pi)*s/pi - (m-1)) - s
    d'(s)  = (m-1)*(1-pi)/((1-pi)*s - (m-1)*pi) - 1
    d''(s) = -(m-1)*(1-pi)**2/((1-pi)*s - (m-1)*pi)**2

``d'`` has the opposite sign of ``f''``: ``d`` rises below ``s_c`` and
falls above it, and ``d'' < 0``, so ``d`` is concave.  It has at most two
roots ``r1 < s_c < r2`` and is positive only between them.  Since ``x``
falls as ``s`` grows, ``f`` rises with ``s`` up to ``r1``, falls on
``(r1, r2)`` and rises after ``r2``.  So the lowest valid junction is the
first valid ``s``, one of the two integers around ``r2``, or ``s = n - m``
when ``r2`` lies beyond it.  For ``m = 1``, ``d(s) = -s < 0``: ``f`` rises
with ``s`` and the first valid junction is the lowest.  Newton on ``d``
started at ``s = n - m`` lands right of ``r2`` (if not already there)
and then moves left to ``r2`` without overshooting it, because a concave
function lies under its tangents.
:func:`min_entropy_values` evaluates these junctions and the right
endpoint; since junctions near ``r2`` can tie within rounding, it also
evaluates a few more neighbours of ``r2``.  For ``m = 1`` the staircase
``p_hat = 1 - pi`` majorizes every feasible distribution, so the right
endpoint alone is the minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .core import entropy_terms


def max_entropy_values(n, m, pis: np.ndarray) -> np.ndarray:
    """:func:`~selbounds.extrema.max_entropy` over many tail masses.

    ``n`` and ``m`` are integers or integer arrays of the shape of ``pis``,
    one shape per tail mass.  Written as ``fe(1-pi) + fe(pi)`` plus the
    segment sizes' ``(1-pi)*log2(m) + pi*log2(n-m)``, it never divides by
    ``pi``, so it cannot overflow at any ``pi >= 0``.
    """
    pis = np.asarray(pis, dtype=float)
    sizes = (1.0 - pis) * np.log2(m) + pis * np.log2(np.maximum(n - m, 1))
    return np.maximum(entropy_terms(1.0 - pis) + entropy_terms(pis) + sizes, 0.0)


def _index_bound(n: int, m: int, pi: float) -> int:
    """Number of interior junction candidates for shape (n, m, pi)."""
    if 1.0 - pi <= 0.0:
        return 0
    y = math.ceil((n - m - n * pi) / (1.0 - pi))
    return max(0, min(y, n - m))


def _tail_split(pi, p_hat):
    """Split tail mass pi into full p_hat slots plus a remainder in ``[0, p_hat)``.

    Elementwise over broadcast ``pi`` and ``p_hat``; scalar inputs return
    ``(int, float)``.  A junction ``p_hat = pi/s`` is exactly ``s`` full
    slots.  Any other ``p_hat > 0`` takes ``copies = floor(pi/p_hat)`` and
    ``rem = pi - copies*p_hat``, moving one slot where rounding leaves
    ``rem`` outside ``[0, p_hat)``.  ``p_hat = 0`` holds an empty tail.
    """
    pi, p_hat = np.broadcast_arrays(
        np.asarray(pi, dtype=float), np.asarray(p_hat, dtype=float)
    )
    live = p_hat > 0.0
    ratio = np.divide(pi, p_hat, out=np.zeros(pi.shape), where=live)
    slots = np.maximum(np.rint(ratio), 1.0)
    junction = live & (pi / slots == p_hat)
    copies = np.where(junction, slots, np.floor(ratio))
    remainder = np.where(junction | ~live, 0.0, pi - copies * p_hat)
    below, above = remainder < 0.0, live & (remainder >= p_hat)
    copies = (copies + above - below).astype(np.int64)
    remainder = np.where(below, remainder + p_hat, np.where(above, remainder - p_hat, remainder))
    if copies.ndim == 0:
        return int(copies), float(remainder)
    return copies, remainder


def _candidate_entropies(m: int, pi, p_hats) -> np.ndarray:
    """Entropy in bits of each distribution ``extrema.assemble_min_candidate`` builds.

    Closed form ``(m-1+copies)*fe(p) + fe((1-pi)-(m-1)*p) + fe(rem)`` over
    broadcast ``pi`` and ``p_hats``, where ``copies``/``rem`` is the tail
    split; at a junction ``p = pi/s`` the last term is ``fe(0) = +0.0``, so
    the value is the junction expression bit for bit.
    """
    p = np.asarray(p_hats, dtype=float)
    copies, rem = _tail_split(pi, p)
    head = entropy_terms((1.0 - pi) - (m - 1) * p)
    return (m - 1 + copies) * entropy_terms(p) + head + entropy_terms(rem)


#: Fixed number of Newton steps towards the stationary junction count.  The
#: iteration moves monotonically from ``n - m`` and only has to land within
#: one slot of the root; a fixed count keeps each result independent of the
#: other tail masses in the batch.  Four steps gave the same ``H_min`` as 40
#: on 750,000 random points with ``n`` up to 1.6 million; three did not.
_NEWTON_STEPS = 4
#: Junctions evaluated on each side of the two around the root.  Near the
#: root neighbouring junctions can differ by less than the rounding of
#: their entropies; this window makes the kernel pick the same rounded
#: minimum as a scan over every junction almost everywhere.
_ROOT_WINDOW = 8
#: Row of each candidate in ``floor([pi/cap, root])`` and its offset; the
#: infinite offset clips to ``n - m``.
_CANDIDATE_ROWS = np.array([0, 0, 0] + [1] * (2 * _ROOT_WINDOW + 3))
_CANDIDATE_OFFSETS = np.array(
    [0.0, 1.0, 2.0, *range(-_ROOT_WINDOW, _ROOT_WINDOW + 2), np.inf]
)[:, None]


def _junction_candidates(n, m, pis: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Slot counts ``s``, one row per candidate, whose junctions hold the minimum.

    ``cap`` is the validity limit ``(1-pi)/m`` on ``pi/s``.
    The rows are ``floor(pi/cap) + 0, 1, 2``, which hold the first valid
    count ``ceil(pi/cap)`` whatever the rounding of ``pi/cap``;
    ``floor(r2) + 0, 1`` for the upper root ``r2`` of ``d`` (module
    docstring) with ``_ROOT_WINDOW`` more on each side; and ``n - m``.  All
    are clipped into ``[1, n - m]``; which are valid is left to the caller.
    ``n`` and ``m`` are integers or arrays of the shape of ``pis``.

    ``r2`` is found by Newton on ``e = s - s_c``, where ``d`` reads
    ``c*ln(a*(e+c)) - s_c - e`` with ``c = m-1``, ``a = (1-pi)/pi`` and
    ``d' = -e/(e+c)``; ``ln(a*(e+c))`` is taken as
    ``ln(1-pi) - ln(pi) + ln(e+c)``, as ``a`` overflows for subnormal
    ``pi``.  The iterate is kept at ``e >= 1/2``, so ``d'`` never
    vanishes.  That cannot lose the minimum: a root within ``1/2`` of
    ``s_c`` lies within one slot of ``floor(s_c + 1/2)``.  Where ``d`` has
    no root the iterate only adds junctions to the minimum.
    """
    c = m - 1
    s_c = c / (1.0 - pis)
    log_a = np.log(1.0 - pis) - np.log(pis)
    e = np.maximum((n - m) - s_c, 0.5)
    for _ in range(_NEWTON_STEPS):
        v = e + c
        e = np.maximum(e + (c * (log_a + np.log(v)) - s_c - e) * v / e, 0.5)
    base = np.floor(np.stack([pis / cap, s_c + e]))
    cols = base[_CANDIDATE_ROWS] + _CANDIDATE_OFFSETS
    return np.minimum(np.maximum(cols, 1.0), n - m)


#: Tail masses per block of :func:`min_entropy_values`' junctions: the
#: block's ``(22, block)`` temporaries take about 1 MB at any call size.
_JUNCTION_BLOCK = 1024


def _lowest_junction(n, m, pa: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The lowest valid junction entropy at each tail mass ``pa``, ``inf`` where none is valid."""
    # At junction s the tail holds exactly s full slots and no remainder,
    # so the junctions skip the kernel's tail split.
    slots = _junction_candidates(n, m, pa, hi)
    ph = pa / slots
    vals = (m - 1 + slots) * entropy_terms(ph) + entropy_terms((1.0 - pa) - (m - 1) * ph)
    return np.where((ph > 0.0) & (ph <= hi) & (m > 1), vals, np.inf).min(axis=0)


def min_entropy_values(n, m, pis: np.ndarray) -> np.ndarray:
    """Vectorized minimum-entropy values for many tail masses at once.

    ``n`` and ``m`` are integers or integer arrays of the shape of ``pis``,
    one shape per tail mass, so one call can cover many shapes.

    Closed-form evaluation of the candidate entropies (no distributions are
    built): the right endpoint through the same kernel as
    :func:`~selbounds.extrema.min_entropy`, and the 22 junctions of
    :func:`_junction_candidates` per pi, so the cost per pi does not depend
    on ``n - m``.  The junction
    curve is convex, then concave (module docstring), so the lowest of them
    is the lowest valid junction.  Each junction is evaluated with the
    expression a scan over all of them used,
    ``(m-1+s)*fe(pi/s) + fe((1-pi)-(m-1)*pi/s)``, and is valid where
    ``0 < pi/s <= (1-pi)/m``; for ``m = 1`` only the right endpoint counts
    (module docstring).  Each result depends only on its own pi.  Where
    more junctions around the root than the window holds lie within
    rounding of each other, the minimum can differ from such a scan's in
    the last bit (seen only at pi below 1e-9).  It equals ``min_entropy``,
    which evaluates every junction alike, bit for bit, except where the
    rounding of the head entry ``1 - pi - (m-1)*pi/s`` (about 1e-16 bits)
    outweighs the gaps between junctions far from the root, seen only below
    about 1e-12 of the ceiling ``(n-m)/n``.  Used by the bisection that
    inverts the minimum-entropy curve.  Where ``m = n`` the tail mass is
    clipped to 0 and the value is 0.
    """
    pis = np.asarray(pis, dtype=float)
    # as floats: every use is float arithmetic, exact on these integers
    n, m = np.full(pis.shape, n, dtype=float), np.full(pis.shape, m, dtype=float)
    pis = np.clip(pis, 0.0, (n - m) / n)
    out = np.zeros(pis.shape)
    active = pis > 0.0
    if not active.any():
        return out
    n, m, pa = n[active], m[active], pis[active]
    hi = (1.0 - pa) / m
    best = _candidate_entropies(m, pa, hi)
    for start in range(0, pa.size, _JUNCTION_BLOCK):
        block = slice(start, start + _JUNCTION_BLOCK)
        np.minimum(best[block], _lowest_junction(n[block], m[block], pa[block], hi[block]),
                   out=best[block])
    out[active] = np.maximum(best, 0.0)
    return out
