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

Every candidate entropy, whether a search candidate, a curve point or the
right endpoint inside :func:`~selbounds.curves.min_entropy_values`, comes
from one closed-form kernel over one exact tail split (both in
:mod:`~selbounds.curves`, with the proof of which junction is lowest), so
no n-length distribution is built per candidate; only the distribution a
caller reads is assembled.  The split gives a junction ``p_hat = pi/s``
its ``s`` full slots, so every junction, wherever it is evaluated, has the
one value ``(m-1+s)*fe(pi/s) + fe((1-pi)-(m-1)*pi/s)``.  No mass is
snapped: the only point mass is ``pi = 0``.

The number of interior junctions is
``ceil((n - m - n*pi)/(1 - pi))`` clamped to ``[0, n - m]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCE, ColumnRows, SortedDistribution, SystemShape, built_internally
from .curves import (
    _candidate_entropies,
    _index_bound,
    _tail_split,
    max_entropy_values,
    min_entropy_values,
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
        bits = _blockwise(lambda p: _candidate_entropies(n, m, pi, p), p_hats, float)
    argmin = int(np.argmin(bits))
    candidates = ColumnRows(
        CandidateEvaluation, {"p_hat": p_hats, "entropy_bits": bits}, shape=shape
    )
    lowest = float(bits[argmin])
    if pi >= (n - m) / n:  # capped at H_max, as min_entropy_values does
        lowest = min(lowest, max_entropy_value(n, m, pi))
    return MinEntropyResult(shape, y, candidates, argmin, lowest)


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
        "entropy_bits": _blockwise(lambda p: _candidate_entropies(n, m, pi, p), points, float),
        "segment_index": _blockwise(lambda p: (n - m) - _tail_split(pi, p)[0], points, np.int64),
        "is_junction": is_junction,
    })
