"""Extremal-entropy distributions under head/tail mass constraints.

Given a shape ``(n, m, pi)`` the feasible set is every sorted distribution
whose first ``m`` entries sum to ``1 - pi`` and last ``n - m`` sum to
``pi``.  Over that polytope:

- The entropy *maximum* is attained by flattening each segment to its mean
  (head entries ``(1-pi)/m``, tail entries ``pi/(n-m)``).
- The entropy *minimum* is attained by concentrating mass.  Fixing the
  repeated probability ``p_hat`` shared by the last ``m - 1`` head entries
  and the leading tail entries pins down the whole distribution:

      head =  [(1-pi) - (m-1)*p_hat,  p_hat * (m-1)]
      tail =  [p_hat * floor(pi/p_hat),  pi mod p_hat,  0...]

  The resulting entropy curve ``H(p_hat)`` over
  ``[pi/(n-m), (1-pi)/m]`` is piecewise concave, so its minimum sits at a
  junction between concave pieces or at the right endpoint.  Those finitely
  many ``p_hat`` values form the candidate set, and the minimization is an
  exact discrete search.

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

Every candidate entropy, whether a search candidate, a curve point or the
right endpoint inside :func:`min_entropy_values`, comes from one
closed-form kernel over one exact tail split, so no n-length distribution
is built per candidate; only the distribution a caller reads is
assembled.  The split gives a junction ``p_hat = pi/s`` its ``s`` full
slots, so every junction, wherever it is evaluated, has the one value
``(m-1+s)*fe(pi/s) + fe((1-pi)-(m-1)*pi/s)``.  No mass is snapped: the
only point mass is ``pi = 0``.

The number of interior junctions is
``ceil((n - m - n*pi)/(1 - pi))`` clamped to ``[0, n - m]``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    SortedDistribution,
    SystemShape,
    built_internally,
    entropy_terms,
)
from .errors import BadConfigError, BadMError, BadPHatError, InfeasibleError


def max_entropy_distribution(shape: SystemShape) -> SortedDistribution:
    """Flat-head/flat-tail distribution attaining the entropy maximum."""
    n, m = shape.n, shape.m
    if m == n:
        probs = np.full(n, 1.0 / n)
    else:
        head = np.full(m, shape.head_mean)
        tail = np.full(n - m, shape.tail_mean)
        probs = np.concatenate([head, tail])
    with built_internally("maximum-entropy distribution"):
        return SortedDistribution(probs)


def max_entropy_values(n, m, pis: np.ndarray) -> np.ndarray:
    """:func:`max_entropy` over many tail masses.

    ``n`` and ``m`` are integers or integer arrays of the shape of ``pis``,
    one shape per tail mass.  Written as ``fe(1-pi) + fe(pi)`` plus the
    segment sizes' ``(1-pi)*log2(m) + pi*log2(n-m)``, it never divides by
    ``pi``, so it cannot overflow at any ``pi >= 0``.
    """
    pis = np.asarray(pis, dtype=float)
    sizes = (1.0 - pis) * np.log2(m) + pis * np.log2(np.maximum(n - m, 1))
    return np.maximum(entropy_terms(1.0 - pis) + entropy_terms(pis) + sizes, 0.0)


def max_entropy_value(n: int, m: int, pi: float) -> float:
    """Scalar convenience wrapper over :func:`max_entropy_values`."""
    return float(max_entropy_values(n, m, np.asarray([pi]))[0])


def max_entropy(shape: SystemShape) -> float:
    """Maximum entropy in bits over the feasible polytope.

    Equals ``entropy(max_entropy_distribution(shape))``, evaluated in
    closed form: ``(1-pi)*log2(m/(1-pi)) + pi*log2((n-m)/pi)``.
    """
    return max_entropy_value(shape.n, shape.m, shape.pi)


def min_entropy_m1(n: int, pi: float) -> SortedDistribution:
    """Minimum-entropy distribution for a single selected slot (m = 1).

    The optimum is a staircase: as many full copies of ``1 - pi`` as fit,
    one remainder entry, then zeros; that is the candidate at
    ``p_hat = 1 - pi``.
    """
    shape = SystemShape(n, 1, pi)  # validates and snaps pi
    if n == 1:
        return SortedDistribution(np.ones(1))
    return assemble_min_candidate(shape, 1.0 - shape.pi)


def _index_bound(n: int, m: int, pi: float) -> int:
    """Number of interior junction candidates for shape (n, m, pi)."""
    if 1.0 - pi <= 0.0:
        return 0
    y = math.ceil((n - m - n * pi) / (1.0 - pi))
    return max(0, min(y, n - m))


def candidate_set(shape: SystemShape) -> np.ndarray:
    """Discrete p_hat values among which the entropy minimum must lie.

    Emits every valid junction ``pi/s`` (positive and at most the right
    endpoint ``(1-pi)/m``, the test :func:`min_entropy_values` makes),
    ascending, then that endpoint.  A junction whose ``pi/s`` underflows to
    0 holds no tail mass, so it is not a feasible point.  Only equal values
    are merged: at small ``pi`` distinct junctions lie closer than any
    fixed tolerance.
    """
    n, m, pi = shape.n, shape.m, shape.pi
    if m < 2:
        raise BadMError("candidate_set requires m >= 2; m = 1 uses the staircase")
    if pi <= 0.0:
        raise InfeasibleError("candidate_set requires pi > 0 (pi = 0 is degenerate)")
    hi = (1.0 - pi) / m
    junctions = pi / np.arange(n - m, 0, -1)  # ascending
    values = np.append(junctions[(junctions > 0.0) & (junctions <= hi)], hi)
    return values[np.append(True, np.diff(values) > 0)]


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
    """Entropy in bits of each distribution :func:`assemble_min_candidate` builds.

    Closed form ``(m-1+copies)*fe(p) + fe((1-pi)-(m-1)*p) + fe(rem)`` over
    broadcast ``pi`` and ``p_hats``, where ``copies``/``rem`` is the tail
    split; at a junction ``p = pi/s`` the last term is ``fe(0) = +0.0``, so
    the value is the junction expression bit for bit.
    """
    p = np.asarray(p_hats, dtype=float)
    copies, rem = _tail_split(pi, p)
    head = entropy_terms((1.0 - pi) - (m - 1) * p)
    return (m - 1 + copies) * entropy_terms(p) + head + entropy_terms(rem)


#: Points per call of the entropy kernel in :func:`min_entropy` and
#: :func:`piecewise_curve`: its dozen temporaries then take a few MB at any n.
_KERNEL_BLOCK = 65_536


def _blockwise(kernel, points: np.ndarray, dtype) -> np.ndarray:
    """``kernel(points)`` for an elementwise kernel, computed in blocks."""
    out = np.empty(points.shape, dtype)
    for start in range(0, points.size, _KERNEL_BLOCK):
        block = slice(start, start + _KERNEL_BLOCK)
        out[block] = kernel(points[block])
    return out


def assemble_min_candidate(
    shape: SystemShape, p_hat: float, tol: float = DEFAULT_TOLERANCE
) -> SortedDistribution:
    """Candidate minimum-entropy distribution for a given p_hat.

    Head: one balancing entry ``(1-pi) - (m-1)*p_hat`` followed by
    ``m - 1`` copies of ``p_hat``.  Tail: full ``p_hat`` slots, the
    remainder ``pi mod p_hat``, then zeros (see :func:`_tail_split`).  A
    remainder with no slot left past ``n - m`` full ones is the rounding of
    ``pi - (n-m)*p_hat`` at the left endpoint and is not stored.
    """
    n, m, pi = shape.n, shape.m, shape.pi
    if m == n:
        raise BadMError("no tail segment exists when m == n")
    lo = pi / (n - m)
    hi = (1.0 - pi) / m
    if not lo - tol <= p_hat <= hi + tol:
        raise BadPHatError(
            f"p_hat={p_hat!r} outside [{lo!r}, {hi!r}] for shape "
            f"(n={n}, m={m}, pi={pi!r})"
        )
    p_hat = min(max(p_hat, lo), hi)
    probs = np.zeros(n)
    probs[0] = (1.0 - pi) - (m - 1) * p_hat
    probs[1:m] = p_hat
    if p_hat > 0.0:
        copies, remainder = _tail_split(pi, p_hat)
        probs[m : m + copies] = p_hat
        probs[m + copies : m + copies + 1] = remainder
    with built_internally("minimum-entropy candidate"):
        return SortedDistribution(probs)


class ColumnRows(Sequence):
    """Read-only sequence of ``row`` objects backed by equal-length column arrays.

    Item ``i`` is ``row(**fixed, **{name: column[i]})`` with each cell as a
    Python scalar, built on access: ``n`` candidates or curve points cost
    a few ``n``-length arrays, not ``n`` objects.  :attr:`columns` maps the
    field names to the arrays in field order, for callers that read whole
    columns; the arrays are made read-only.  Two sequences are equal when
    their items are.
    """

    def __init__(self, row, columns: dict[str, np.ndarray], **fixed) -> None:
        for column in columns.values():
            column.setflags(write=False)
        self.row = row
        self.columns = columns
        self.fixed = fixed

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cells = {name: column[index].item() for name, column in self.columns.items()}
        return self.row(**cells, **self.fixed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate p_hat of ``shape`` with its closed-form entropy.

    Only ``(p_hat, entropy_bits, shape)`` is stored; :attr:`distribution`
    assembles the candidate's distribution on each access.
    """

    p_hat: float
    entropy_bits: float
    shape: SystemShape

    @property
    def distribution(self) -> SortedDistribution:
        """The candidate distribution, built on access.

        :func:`assemble_min_candidate` at ``p_hat``: the point mass at
        ``pi = 0`` (``p_hat = 0``), the staircase when ``m = 1``.  With
        ``m = n`` there is no tail, and the point mass is built directly.
        """
        shape = self.shape
        if shape.m == shape.n:
            return min_entropy_m1(shape.n, 0.0)
        return assemble_min_candidate(shape, self.p_hat)


@dataclass(frozen=True)
class MinEntropyResult:
    """Outcome of the discrete minimum-entropy search.

    ``candidates`` holds the searched ``p_hat`` values and their entropies
    as two columns, ``p_hat`` and ``entropy_bits``.
    """

    shape: SystemShape
    index_bound: int
    candidates: ColumnRows
    argmin_index: int
    min_entropy_bits: float

    @property
    def argmin_distribution(self) -> SortedDistribution:
        return self.candidates[self.argmin_index].distribution


def min_entropy(shape: SystemShape) -> MinEntropyResult:
    """Exact minimum entropy over the feasible polytope.

    ``pi = 0`` short-circuits to a point mass (entropy 0); ``m = 1`` has
    the single candidate ``p_hat = 1 - pi``, the staircase.  Otherwise the
    entropy of every :func:`candidate_set` value comes from one closed-form
    kernel call and the lowest-index argmin is returned; its value is
    :func:`min_entropy_value`'s (see there).  No distribution is built
    until a caller reads one, and the argmin is built from the candidate
    that won.
    """
    n, m, pi = shape.n, shape.m, shape.pi
    y = _index_bound(n, m, pi)
    if pi == 0.0:
        p_hats = bits = np.zeros(1)
    else:
        p_hats = candidate_set(shape) if m > 1 else np.array([1.0 - pi])
        bits = _blockwise(lambda p: _candidate_entropies(m, pi, p), p_hats, float)
    argmin = int(np.argmin(bits))
    candidates = ColumnRows(
        CandidateEvaluation, {"p_hat": p_hats, "entropy_bits": bits}, shape=shape
    )
    return MinEntropyResult(shape, y, candidates, argmin, float(bits[argmin]))


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
    :func:`min_entropy`, and the 22 junctions of :func:`_junction_candidates`
    per pi, so the cost per pi does not depend on ``n - m``.  The junction
    curve is convex, then concave (module docstring), so the lowest of them
    is the lowest valid junction.  Each junction is evaluated with the
    expression a scan over all of them used,
    ``(m-1+s)*fe(pi/s) + fe((1-pi)-(m-1)*pi/s)``, and is valid where
    ``0 < pi/s <= (1-pi)/m``; for ``m = 1`` only the right endpoint counts
    (module docstring).  Each result depends only on its own pi.  Where
    more junctions around the root than the window holds lie within
    rounding of each other, the minimum can differ from such a scan's in
    the last bit (seen only at pi below 1e-9).  It equals
    :func:`min_entropy`, which evaluates every junction alike, bit for bit,
    except where the rounding of the head entry ``1 - pi - (m-1)*pi/s``
    (about 1e-16 bits) outweighs the gaps between junctions far from the
    root, seen only below about 1e-12 of the ceiling ``(n-m)/n``.  Used by
    the bisection that inverts the minimum-entropy curve.  Where ``m = n`` the
    tail mass is clipped to 0 and the value is 0.
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


def min_entropy_value(n: int, m: int, pi: float) -> float:
    """Scalar convenience wrapper over :func:`min_entropy_values`."""
    return float(min_entropy_values(n, m, np.asarray([pi]))[0])


@dataclass(frozen=True)
class CurveSample:
    """One point of the entropy-vs-p_hat curve."""

    p_hat: float
    entropy_bits: float
    segment_index: int
    is_junction: bool


def piecewise_curve(shape: SystemShape, samples: int) -> ColumnRows:
    """Sample the piecewise-concave curve H(p_hat) over its full interval.

    Emits ``samples`` uniform points merged with the candidate junctions
    (flagged ``is_junction``); every point's entropy comes from the same
    closed-form kernel and tail split as :func:`min_entropy`, so branch
    bookkeeping can never disagree with the construction.
    ``segment_index`` counts how many full tail slots have been given up
    relative to the uniform-tail left endpoint.  The samples are
    returned as the four columns of :class:`CurveSample`.
    """
    n, m, pi = shape.n, shape.m, shape.pi
    if m < 2:
        raise BadMError("piecewise_curve requires m >= 2")
    if pi <= 0.0:
        raise InfeasibleError("piecewise_curve requires pi > 0")
    if samples < 2:
        raise BadConfigError(f"samples must be >= 2, got {samples}")
    junctions = candidate_set(shape)
    lo = pi / (n - m)
    hi = (1.0 - pi) / m
    grid = np.linspace(lo, hi, samples)
    # The junctions ascend, so the nearest to a grid point is one of the
    # two around it; its distance is the same subtraction a full scan makes.
    at = np.searchsorted(junctions, grid)
    right = np.minimum(at, junctions.size - 1)
    left = np.maximum(right - 1, 0)
    gap = np.minimum(np.abs(grid - junctions[left]), np.abs(grid - junctions[right]))
    keep = gap > 0
    # A kept grid point equals no junction, so inserting each before the
    # first junction above it sorts the union.
    at, grid = at[keep], grid[keep]
    points = np.clip(np.insert(junctions, at, grid), lo, hi)
    is_junction = np.insert(np.ones(junctions.size, bool), at, False)
    del junctions  # freed before the kernels run
    return ColumnRows(CurveSample, {
        "p_hat": points,
        "entropy_bits": _blockwise(lambda p: _candidate_entropies(m, pi, p), points, float),
        "segment_index": _blockwise(lambda p: (n - m) - _tail_split(pi, p)[0], points, np.int64),
        "is_junction": is_junction,
    })
