"""Composite-system transformations for multi-object requirements.

A requirement that ``k`` of the ``m`` selected objects perform is analyzed
by rewriting the n-object system as a single-pick system over composite
objects:

- ``unique`` mode: composites are k-combinations of distinct objects; a
  composite's probability sums the without-replacement chain over all k!
  orderings of its members.
- ``repeated`` mode: composites are k-multisets; a composite's probability
  is the multinomial coefficient times the product of member
  probabilities, so total mass is exactly 1.

A composite is *selected* when every member belongs to the selected set
(the top ``m`` sorted objects).  With ties or near-uniform inputs the
selected composites need not be the most probable ones; the
``selection_mismatch`` flag records when the two notions of selected mass
differ.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    SortedDistribution,
    built_internally,
    env_cap,
    validate_counts,
)
from .errors import (
    BadKError,
    DuplicateIdError,
    InvalidEntryError,
    TooLargeError,
    ZeroDenominatorError,
)

_DEFAULT_MAX_COMPOSITES = 2_000_000
_DEFAULT_MAX_K_UNIQUE = 8
_DEFAULT_MAX_K_REPEATED = 12


def sequential_probability(dist: SortedDistribution, ordered_ids) -> float:
    """Probability of drawing the given objects in order, without replacement.

    ``ordered_ids`` index the sorted distribution.  Each step divides by
    the mass remaining before the draw, taken as the mass outside the
    tuple plus the members not yet drawn (never ``1 - drawn``, which
    cancels when the drawn members hold nearly all the mass); a
    zero-probability member makes the whole chain zero.
    """
    ids = [int(i) for i in np.asarray(ordered_ids).ravel()]
    if len(ids) == 0 or len(ids) > dist.n:
        raise InvalidEntryError(
            f"ordered tuple length must be in [1, {dist.n}], got {len(ids)}"
        )
    if len(set(ids)) != len(ids):
        raise DuplicateIdError(f"ordered tuple repeats an object: {ids}")
    if min(ids) < 0 or max(ids) >= dist.n:
        raise InvalidEntryError(f"object id outside [0, {dist.n}): {ids}")
    q = np.asarray(dist.probs)[ids]
    outside = float(_mass_outside(_total_mass(dist.probs), q[None, :])[0])
    members = q.tolist()
    prob = 1.0
    for t, p in enumerate(members):
        if p == 0.0:
            return 0.0
        # The remainder includes p, so it is positive whenever p is.
        prob *= p / math.fsum([outside, *members[t:]])
    return prob


@dataclass(frozen=True)
class TransformedSystem:
    """A selection system rewritten over composite objects.

    ``dist`` is the sorted composite distribution; row ``i`` of
    ``composite_members`` / ``composite_index`` lists the i-th composite's
    members as sorted-position / original object ids respectively.
    ``selected_probability`` is the mass of composites fully inside the
    selected set; it can differ from the top-``m_prime`` sorted mass, in
    which case ``selection_mismatch`` is set.
    """

    n_prime: int
    m_prime: int
    k: int
    mode: str
    dist: SortedDistribution
    composite_members: np.ndarray
    composite_index: np.ndarray
    in_selected: np.ndarray
    selected_probability: float
    selection_mismatch: bool

    def __post_init__(self) -> None:
        for name in ("composite_members", "composite_index", "in_selected"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def sorted_head_probability(self) -> float:
        """Mass of the m_prime most probable composites."""
        return float(self.dist.probs[: self.m_prime].sum())


def _validate_k(n: int, m: int, k: int, k_cap: int) -> None:
    validate_counts(n, m)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise BadKError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= m:
        raise BadKError(f"k must satisfy 1 <= k <= m={m}, got {k}")
    if k > k_cap:
        raise TooLargeError(f"k={k} exceeds the cap {k_cap} for this mode")


def _check_size(n_prime: int) -> None:
    cap = env_cap("SELBOUNDS_MAX_COMPOSITES", _DEFAULT_MAX_COMPOSITES)
    if n_prime > cap:
        raise TooLargeError(
            f"transformed size {n_prime} exceeds the composite cap {cap}"
        )


def _enumerate(iterable, count: int, k: int) -> np.ndarray:
    flat = np.fromiter(
        itertools.chain.from_iterable(iterable), dtype=np.int64, count=count * k
    )
    return flat.reshape(count, k)


def _total_mass(probs: np.ndarray) -> tuple[float, float]:
    """The sum of ``probs`` as an unevaluated ``hi + lo`` pair."""
    hi = math.fsum(probs)
    return hi, math.fsum([*probs.tolist(), -hi])


def _mass_outside(total: tuple[float, float], q: np.ndarray) -> np.ndarray:
    """Per row, the mass of every object not among the row's members.

    ``total`` is the distribution's mass as an unevaluated sum ``hi + lo``;
    each member is subtracted error-free (two-sum), so no subtraction of
    two nearly equal totals loses the result.  The arithmetic depends only
    on the row's values, so rows with equal member masses stay exactly
    equal and ties keep their lexicographic order.
    """
    s = np.full(q.shape[0], total[0])
    err = np.full(q.shape[0], total[1])
    for t in range(q.shape[1]):
        b = -q[:, t]
        new = s + b
        b_virtual = new - s
        err += (s - (new - b_virtual)) + (b - b_virtual)
        s = new
    return np.maximum(s + err, 0.0)


def _unique_probabilities(probs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Sum of the without-replacement chain over all orderings, per row.

    Subset dynamic program: h[S] accumulates the chain mass of every
    ordering of subset S placed first, so each row costs k * 2^k instead
    of k!.  The mass left before a draw that follows S is the row's
    outside mass plus its members not in S, never ``1 - mass[S]``, which
    cancels when S holds nearly all the mass.  That remainder includes the
    member being drawn, so it is positive whenever the member is, and no
    positive member is floored away however small it is.  Chunked so the
    working matrices stay below ~8 MiB each.
    """
    count, k = members.shape
    size = 1 << k
    full = size - 1
    total = _total_mass(probs)
    q_all = probs[members]
    out = np.empty(count)
    block = max(1, (1 << 20) // size)
    for start in range(0, count, block):
        q = q_all[start : start + block]
        rows = q.shape[0]
        outside = _mass_outside(total, q)
        # Members are ascending sorted positions, so each mass[mask] adds
        # the smallest members first.
        mass = np.zeros((rows, size))
        for mask in range(1, size):
            low = mask & (-mask)
            mass[:, mask] = mass[:, mask ^ low] + q[:, low.bit_length() - 1]
        h = np.zeros((rows, size))
        h[:, 0] = 1.0
        for mask in range(1, size):
            acc = np.zeros(rows)
            for e in range(k):
                bit = 1 << e
                if not mask & bit:
                    continue
                prev = mask ^ bit
                qe = q[:, e]
                rem = outside + mass[:, full ^ prev]
                # rem >= qe, so rem is 0 only where the member's mass is.
                acc += h[:, prev] * qe / np.where(rem > 0.0, rem, 1.0)
            h[:, mask] = acc
        out[start : start + block] = h[:, size - 1]
    return out


def _repeated_probabilities(probs: np.ndarray, members: np.ndarray, k: int) -> np.ndarray:
    """Multinomial probability of each multiset row (members sorted)."""
    run = np.ones(members.shape, dtype=np.int64)
    for j in range(1, k):
        same = members[:, j] == members[:, j - 1]
        run[:, j] = np.where(same, run[:, j - 1] + 1, 1)
    # prod over a run of its running counts 1*2*...*len equals len!, so the
    # row product of `run` is the full multinomial denominator.
    coeff = math.factorial(k) / run.prod(axis=1).astype(float)
    return coeff * probs[members].prod(axis=1)


def _build(
    dist: SortedDistribution,
    m: int,
    k: int,
    mode: str,
    members: np.ndarray,
    probs_c: np.ndarray,
    m_prime: int,
    tol: float,
) -> TransformedSystem:
    in_sel = members.max(axis=1) < m
    order = np.argsort(-probs_c, kind="stable")  # ties keep lexicographic order
    members = members[order]
    probs_c = probs_c[order]
    in_sel = in_sel[order]
    with built_internally("composite distribution"):
        composite_dist = SortedDistribution(probs_c, order)
    original_ids = np.asarray(dist.original_index)[members]
    selected_mass = float(probs_c[in_sel].sum())
    top_mass = float(probs_c[:m_prime].sum())
    return TransformedSystem(
        n_prime=int(members.shape[0]),
        m_prime=int(m_prime),
        k=int(k),
        mode=mode,
        dist=composite_dist,
        composite_members=members,
        composite_index=original_ids,
        in_selected=in_sel,
        selected_probability=selected_mass,
        selection_mismatch=abs(selected_mass - top_mass) > tol,
    )


def transform_unique(
    dist: SortedDistribution,
    m: int,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
) -> TransformedSystem:
    """Rewrite the system over k-combinations of distinct objects.

    Composite probabilities sum the sampling-without-replacement chain
    over orderings; selected composites are those drawn entirely from the
    top-m objects, so there are exactly C(m, k) of them.
    """
    n = dist.n
    _validate_k(n, m, k, env_cap("SELBOUNDS_MAX_K_UNIQUE", _DEFAULT_MAX_K_UNIQUE))
    n_prime = math.comb(n, k)
    _check_size(n_prime)
    if int(np.count_nonzero(dist.probs > 0.0)) < k:
        raise ZeroDenominatorError(
            f"need at least k={k} objects with positive probability"
        )
    members = _enumerate(itertools.combinations(range(n), k), n_prime, k)
    probs_c = _unique_probabilities(np.asarray(dist.probs), members)
    return _build(dist, m, k, "unique", members, probs_c, math.comb(m, k), tol)


def transform_repeated(
    dist: SortedDistribution,
    m: int,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
) -> TransformedSystem:
    """Rewrite the system over k-multisets (independent repeated picks).

    Composite probabilities are multinomial, so the transformed mass is
    exactly 1; there are multichoose(m, k) = C(m+k-1, k) selected
    composites.
    """
    n = dist.n
    _validate_k(n, m, k, env_cap("SELBOUNDS_MAX_K_REPEATED", _DEFAULT_MAX_K_REPEATED))
    n_prime = math.comb(n + k - 1, k)
    _check_size(n_prime)
    members = _enumerate(
        itertools.combinations_with_replacement(range(n), k), n_prime, k
    )
    probs_c = _repeated_probabilities(np.asarray(dist.probs), members, k)
    return _build(
        dist, m, k, "repeated", members, probs_c, math.comb(m + k - 1, k), tol
    )
