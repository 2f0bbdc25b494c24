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
its own, so an answer does not depend on the other elements of the call,
until its bracket's ends are adjacent doubles; the lower bound is the
bracket's low end and the upper bound its high end, so each is on the
safe side of its curve's crossing, to the ulp.
:class:`TightInverter`, :func:`pi_bounds_tight`, :func:`build_report` and
the sweep all call these two functions.  Take any
feasible ``p`` with tail mass ``pi' > pi`` and move ``pi' - pi`` from its
smallest tail entries onto ``p[0]``: the result is still sorted, has tail
mass ``pi`` and majorizes ``p``, so its entropy is no higher.  Hence
``H_min(pi) <= H_min(pi')``, and ``{pi : H_min(pi) <= h}`` is an interval
starting at 0 whose right end the bisection finds.

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


#: Most midpoints one ``below`` call evaluates: with few elements open, the
#: bisection evaluates the next levels of each one's bisection tree at once
#: (see :func:`_tree_levels`).
_TREE_POINTS = 15


def _midpoint(lo, hi):
    """The bisection's split point of the bracket ``[lo, hi]`` of non-negative doubles.

    The midpoint of their int64 views, which order non-negative doubles as
    their values do: each split halves the doubles left in the bracket.
    """
    a, b = lo.view(np.int64), hi.view(np.int64)
    return (a + (b - a) // 2).view(float)


def _tree_levels(open_count: int) -> int:
    """Bisection levels per ``below`` call for ``open_count`` open elements.

    The most levels whose ``2**levels - 1`` tree midpoints per element stay
    within ``_TREE_POINTS`` in all, and at least one: one element gets 4
    levels per call, 6 or more get one.
    """
    return max(1, ((_TREE_POINTS // open_count) + 1).bit_length() - 1)


def _tree_midpoints(lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """Every midpoint of the first ``levels`` levels of each bracket's bisection tree.

    Row ``j`` of the ``(2**levels - 1, len(lo))`` result is tree node ``j``
    in breadth-first order: node ``j`` splits at ``_midpoint`` of its
    bracket, and its children ``2j+1`` and ``2j+2`` hold the left and
    right halves.
    """
    a, b = lo[None], hi[None]
    mids = [_midpoint(a, b)]
    for _ in range(levels - 1):
        mid = mids[-1]
        a, b = (np.stack(pair, axis=1).reshape(-1, lo.size) for pair in ((a, mid), (mid, b)))
        mids.append(_midpoint(a, b))
    return np.concatenate(mids)


def _open(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the brackets that still hold a double strictly between their ends."""
    return hi.view(np.int64) - lo.view(np.int64) > 1


def _bisect(top, floor, ceiling, below) -> tuple[np.ndarray, np.ndarray]:
    """Bisect ``[0, top]`` per element until ``lo`` and ``hi`` are adjacent doubles.

    At most 62 steps, as ``[0, 1]`` holds fewer than ``2**62`` doubles.
    ``top`` is a float or one upper end per element.  Elements flagged
    ``floor`` stay at 0, the rest flagged ``ceiling`` at ``top``;
    ``below(mid, idx)`` flags open midpoints left of the answer.

    Each ``below`` call covers the next :func:`_tree_levels` levels: it
    takes every midpoint those levels could split at, breadth first (node
    ``j``'s children are ``2j+1`` and ``2j+2``), and the walk then follows
    each element's own path through them.  A node's bracket is the one the
    walk holds on reaching it, so every step splits where one level per
    call would, and the answers do not depend on the level count.
    """
    lo = np.where(ceiling & ~floor, top, 0.0)
    hi = np.where(floor, 0.0, top)
    while (idx := np.flatnonzero(_open(lo, hi))).size:
        levels = _tree_levels(idx.size)
        mids = _tree_midpoints(lo[idx], hi[idx], levels)
        left = below(mids.ravel(), np.tile(idx, len(mids))).reshape(mids.shape)
        cols, node = slice(None), 0  # the open elements' columns, and their nodes
        for level in range(levels):
            at, mid, go = idx[cols], mids[node, cols], left[node, cols]
            lo[at[go]] = mid[go]
            hi[at[~go]] = mid[~go]
            if level + 1 < levels:
                keep = _open(lo[at], hi[at])
                cols, node = np.arange(idx.size)[cols][keep], (2 * node + 1 + go)[keep]
    return lo, hi


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of each element (``np.log2`` may differ in the last bit)."""
    return np.array([math.log2(v) for v in x.tolist()])


def _invert_lower(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Least tail mass whose maximum entropy reaches ``hs``, per element.

    ``n``, ``m`` and ``hs`` are 1-D arrays of one length, one shape per
    entropy; the entropies are already clamped into ``[0, log2 n]``.
    Returns the low end of the final bracket, a double whose ``H_max`` is
    below ``h`` next to one whose ``H_max`` reaches it: a lower bound.
    """
    lo, _ = _bisect(
        (n - m) / n,
        hs <= _log2(m),
        hs >= _log2(n),
        lambda mid, idx: max_entropy_values(n[idx], m[idx], mid) < hs[idx],
    )
    return lo


def _invert_upper(n: np.ndarray, m: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Greatest tail mass whose minimum entropy stays at or below ``hs``, per element.

    Same arguments as :func:`_invert_lower`.  Returns the high end of the
    final bracket, a double whose ``H_min`` exceeds ``h`` next to one whose
    ``H_min`` does not: an upper bound.  Any positive tail forces positive entropy, and only the uniform
    distribution, at the ceiling, reaches ``log2 n``.
    """
    _, hi = _bisect(
        (n - m) / n,
        hs == 0.0,
        hs >= _log2(n),
        lambda mid, idx: _min_entropy_values(n[idx], m[idx], mid) <= hs[idx],
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
