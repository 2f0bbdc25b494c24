"""Validated probability distributions, entropy, feasibility geometry, and tables.

Conventions used throughout the package:

- A *selection system* has ``n`` objects, of which the ``m`` most probable
  are selected.  Distributions are stored sorted in non-increasing order,
  so the selected set is always the first ``m`` entries.
- ``pi`` denotes the total mass of the ``n - m`` unselected entries (the
  error probability of the optimal selection); ``1 - pi`` is the merit
  probability.
- All entropies are base-2 and ``0 * log2(0)`` counts as exactly ``0``;
  every positive probability, subnormals included, contributes its
  ``-p*log2(p)``.
- A sorted distribution with head mass ``1 - pi`` and tail mass ``pi``
  exists iff the head mean dominates the tail mean:
  ``(1 - pi)/m >= pi/(n - m)``, i.e. ``pi <= (n - m)/n``.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AllZeroError,
    BadConfigError,
    BadMError,
    InfeasibleError,
    InvalidEntryError,
    NumericFailureError,
    TooLargeError,
)

#: Default tolerance for normalization / ordering / bound comparisons.
DEFAULT_TOLERANCE = 1e-9

_DEFAULT_MAX_STATES = 10_000_000


def env_cap(name: str, default: int) -> int:
    """Size cap read from environment variable ``name``, or ``default`` when unset.

    Raises:
        BadConfigError: the variable is set but is not a positive integer.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadConfigError(f"{name} must be a positive integer, got {raw!r}")
    return cap


def validate_counts(n: int, m: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise BadMError(f"n must be an integer, got {n!r}")
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise BadMError(f"m must be an integer, got {m!r}")
    if n < 1:
        raise BadMError(f"n must satisfy n >= 1, got {n}")
    if not 1 <= m <= n:
        raise BadMError(f"m must satisfy 1 <= m <= n={n}, got {m}")


def entropy_terms(x) -> np.ndarray:
    """Elementwise ``-x*log2(x)`` for every ``x > 0``; +0.0 for zeros, negatives and NaN."""
    x = np.asarray(x, dtype=float)
    live = x > 0.0
    out = np.zeros(x.shape)  # filled in place: the mask is the only temporary
    np.log2(x, out=out, where=live)
    np.multiply(out, x, out=out, where=live)
    return np.negative(out, out=out, where=live)


#: ``1/ln 2``, rounded once: :func:`complement_entropy_terms` divides by ``ln 2`` through it.
_LOG2_E = 1.0 / math.log(2.0)


def complement_entropy_terms(d) -> np.ndarray:
    """Elementwise ``entropy_terms(1 - d)``, taken from ``d`` as ``-(1-d)*log1p(-d)/ln 2``.

    ``1 - d`` rounded to a double drops up to ``2**-53`` of ``d``; through
    ``log1p`` each term keeps the relative precision of ``d`` however
    small ``d`` is.  +0.0 where ``d >= 1``, and for NaN.
    """
    d = np.asarray(d, dtype=float)
    live = d < 1.0
    out = np.zeros(d.shape)
    np.log1p(-d, out=out, where=live)
    np.multiply(out, 1.0 - d, out=out, where=live)
    return np.multiply(out, -_LOG2_E, out=out, where=live)


def _normalized(weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row of a 2-D block of raw weights over its total, and the rows passing each check.

    Checks: finite, non-negative, a positive total.  A row whose total overflows is first
    scaled by the power of two 2**-64, so it normalizes as ``make_distribution(w * 2**-64)``.
    """
    with np.errstate(all="ignore"):  # a failed row is flagged, never raised
        totals = weights.sum(axis=1)
        if not np.isfinite(totals).all():
            weights = weights * np.where(np.isfinite(totals), 1.0, 2.0**-64)[:, None]
            totals = weights.sum(axis=1)
        probs = weights / totals[:, None]
    return probs, np.isfinite(weights).all(axis=1), ~(weights < 0).any(axis=1), totals > 0.0


def _probability_checks(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 2-D block: sums to 1 within :data:`DEFAULT_TOLERANCE`; non-increasing within 1e-12."""
    with np.errstate(all="ignore"):  # a failed row is flagged, never raised
        sums_to_one = np.abs(probs.sum(axis=1) - 1.0) <= DEFAULT_TOLERANCE
        return sums_to_one, ~(np.diff(probs, axis=1) > 1e-12).any(axis=1)


@dataclass(frozen=True)
class SortedDistribution:
    """A probability vector sorted in non-increasing order.

    ``original_index[i]`` is the position the i-th sorted entry occupied in
    the caller's input, so the original ordering can always be recovered.
    Instances are immutable (arrays are made read-only).
    """

    probs: np.ndarray
    original_index: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise InvalidEntryError("probs must be a non-empty 1-D vector")
        cap = env_cap("SELBOUNDS_MAX_STATES", _DEFAULT_MAX_STATES)
        if probs.size > cap:
            raise TooLargeError(f"{probs.size} states exceeds the configured cap {cap}")
        if not np.isfinite(probs).all():
            raise InvalidEntryError("probs contains NaN or infinite entries")
        if (probs < -1e-12).any():
            raise InvalidEntryError("probs contains negative entries")
        probs = np.where(probs < 0.0, 0.0, probs)
        sums_to_one, non_increasing = _probability_checks(probs[None])
        if not sums_to_one[0]:
            raise InvalidEntryError(
                f"probs sums to {float(probs.sum())!r}, expected 1 within "
                f"{DEFAULT_TOLERANCE}"
            )
        if not non_increasing[0]:
            raise InvalidEntryError("probs must be sorted in non-increasing order")
        index = self.original_index
        if index is None:
            index = np.arange(probs.size)
        index = np.asarray(index)
        if index.shape != probs.shape:
            raise InvalidEntryError("original_index must match probs in length")
        index = index.astype(np.int64)
        probs.setflags(write=False)
        index.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "original_index", index)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    def restore_input_order(self) -> np.ndarray:
        """Normalized probabilities back in the caller's original order."""
        out = np.empty_like(self.probs)
        out[self.original_index] = self.probs
        return out


@contextmanager
def built_internally(what: str):
    """Report a failed check on values the package computed itself.

    Inside the block an :class:`InvalidEntryError` becomes a
    :class:`NumericFailureError` (CLI exit 2): the values were not read
    from the caller, so a failed check is lost precision, not bad input.
    """
    try:
        yield
    except InvalidEntryError as exc:
        raise NumericFailureError(f"{what} failed validation: {exc}") from exc


def make_distribution(raw) -> SortedDistribution:
    """Normalize raw non-negative scores and sort them descending.

    The sort is stable, so equal scores keep their input order and the
    resulting permutation is deterministic.

    Raises:
        InvalidEntryError: any entry is negative, NaN or infinite.
        AllZeroError: no entry is strictly positive.
    """
    weights = np.asarray(raw, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise InvalidEntryError("raw weights must be a non-empty 1-D vector")
    probs, finite, non_negative, positive = _normalized(weights[None])
    if not finite[0]:
        raise InvalidEntryError("raw weights contain NaN or infinite entries")
    if not non_negative[0]:
        raise InvalidEntryError("raw weights contain negative entries")
    if not positive[0]:
        raise AllZeroError("raw weights carry no positive mass")
    order = np.argsort(-probs[0], kind="stable")
    return SortedDistribution(probs[0][order], order)


def sorted_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`make_distribution` of each row of a 2-D block of raw weights.

    Returns the rows normalized and sorted in non-increasing order, and a
    mask of the rows that pass every check of :func:`make_distribution` and
    :class:`SortedDistribution`; the caller checks the size cap once per
    block.  A passing row holds the bits of ``make_distribution(row).probs``
    up to the order of ``0.0`` and ``-0.0`` entries (the sort is not
    stable); a failing row's values mean nothing.
    """
    probs, *passed = _normalized(weights)
    probs = -np.sort(-probs, axis=1)
    return probs, np.logical_and.reduce([*passed, *_probability_checks(probs)])


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of a 2-D block of valid probabilities, sorted non-increasing.

    Each row sums its :func:`entropy_terms`; a -0.0 sum comes back +0.0.
    A first entry above 1/2 takes its term from the rest of the row, ``d``,
    as :func:`complement_entropy_terms` of ``d``: the entry's own rounding
    (up to ``2**-53``) would otherwise outweigh a rest far below that.
    """
    terms = entropy_terms(probs)
    head = probs[:, 0] > 0.5
    if head.any():
        terms[head, 0] = complement_entropy_terms(probs[head, 1:].sum(axis=1))
    sums = terms.sum(axis=1)
    return np.where(sums > 0.0, sums, 0.0)


def entropy(dist: SortedDistribution) -> float:
    """Base-2 entropy in bits; every positive entry contributes, however small."""
    return float(entropy_rows(dist.probs[None])[0])


def tail_probability(dist: SortedDistribution, m: int) -> float:
    """Mass of the n - m smallest entries.

    This equals the error probability of the optimal strategy that selects
    the ``m`` most probable objects and requires one of them to perform.
    """
    validate_counts(dist.n, m)
    return float(dist.probs[m:].sum())


def feasible_pi_range(n: int, m: int) -> tuple[float, float]:
    """Interval of tail masses achievable by any sorted distribution.

    The head mean must dominate the tail mean, which caps the tail mass at
    ``(n - m)/n``; ``m == n`` forces it to zero.
    """
    validate_counts(n, m)
    return (0.0, (n - m) / n)


@dataclass(frozen=True)
class SystemShape:
    """The triple (n objects, m selected, tail mass pi), validated.

    Values within :data:`DEFAULT_TOLERANCE` of the feasible interval
    ``[0, (n-m)/n]`` are snapped onto it; anything further out raises
    :class:`InfeasibleError`.
    """

    n: int
    m: int
    pi: float

    def __post_init__(self) -> None:
        validate_counts(self.n, self.m)
        pi = float(self.pi)
        if not np.isfinite(pi):
            raise InfeasibleError(f"pi must be finite, got {pi!r}")
        top = (self.n - self.m) / self.n
        if pi < -DEFAULT_TOLERANCE or pi > top + DEFAULT_TOLERANCE:
            raise InfeasibleError(
                f"pi={pi!r} outside the feasible interval [0, {top!r}] "
                f"for n={self.n}, m={self.m}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "pi", min(max(pi, 0.0), top))

    @property
    def pi_max(self) -> float:
        """Feasibility boundary (n - m)/n."""
        return (self.n - self.m) / self.n

    @property
    def head_mean(self) -> float:
        return (1.0 - self.pi) / self.m

    @property
    def tail_mean(self) -> float:
        return self.pi / (self.n - self.m) if self.m < self.n else 0.0


def parse_weights(text: str) -> np.ndarray:
    """Parse a weights document: JSON array, or one value per line.

    Line format ignores blank lines and ``#`` comments (full-line or
    trailing).
    """
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            values = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InvalidEntryError(f"invalid JSON weights array: {exc}") from exc
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise InvalidEntryError("JSON weights must be an array of numbers")
        try:
            return np.asarray(values, dtype=float)
        except OverflowError as exc:
            raise InvalidEntryError(f"JSON weight too large for a float: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        payload = line.split("#", 1)[0].strip()
        if not payload:
            continue
        try:
            values.append(float(payload))
        except ValueError as exc:
            raise InvalidEntryError(
                f"line {lineno}: cannot parse weight {payload!r}"
            ) from exc
    if not values:
        raise InvalidEntryError("weights document contains no values")
    return np.asarray(values, dtype=float)


def read_weights(path) -> np.ndarray:
    """Read raw weights from a file (see :func:`parse_weights`)."""
    return parse_weights(Path(path).read_text(encoding="utf-8"))


def parse_key_values(text: str, known: set[str]) -> dict[str, str]:
    """Parse a flat ``key = value`` document (``#`` comments) into raw fields.

    A line without ``=``, a repeated key or a key outside ``known`` raises.
    """
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        payload = line.split("#", 1)[0].strip()
        if not payload:
            continue
        if "=" not in payload:
            raise BadConfigError(f"line {lineno}: expected key=value, got {payload!r}")
        key, value = (part.strip() for part in payload.split("=", 1))
        if key in fields:
            raise BadConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    unknown = set(fields) - known
    if unknown:
        raise BadConfigError(f"unknown config keys: {sorted(unknown)}")
    return fields


#: Format spec of every number in CSV output: 12 significant digits.
_NUMBER_FORMAT = ".12g"


def format_number(value: float) -> str:
    """Render a number for CSV output with 12 significant digits."""
    return format(float(value), _NUMBER_FORMAT)


def format_numbers(values) -> list[str]:
    """:func:`format_number` of each value, formatted from plain floats.

    The values pass through ``tolist()`` once, so the loop formats Python
    floats instead of boxing a numpy scalar per element.
    """
    spec = _NUMBER_FORMAT
    return [format(v, spec) for v in np.asarray(values, dtype=float).tolist()]


#: Text of a ``False``/``True`` flag, indexed by the flag, in CSV and JSON output.
FLAG_TEXT = ("false", "true")


def _csv_cells(values: np.ndarray):
    """The function mapping a row slice of one CSV column to its cells, picked from the dtype.

    Floats read as :func:`format_numbers`, flags as :data:`FLAG_TEXT` and
    other 1-D values as ``str``.  A 2-D array holds object ids, one row
    per cell, joined ``a+b+...``; the text of every id ``0..max`` is made
    once, and each block looks its ids up.
    """
    if values.ndim == 2:
        table = np.array([str(i) for i in range(int(values.max()) + 1)])

        def ids(block):
            text = table[values[block, 0]]
            for j in range(1, values.shape[1]):
                text = np.char.add(np.char.add(text, "+"), table[values[block, j]])
            return text.tolist()

        return ids
    if values.dtype.kind == "f":
        return lambda block: format_numbers(values[block])
    if values.dtype == bool:
        return lambda block: [FLAG_TEXT[f] for f in values[block].tolist()]
    return lambda block: list(map(str, values[block].tolist()))


def csv_blocks(head: str, columns, rows: int):
    """Yield ``head``, then the CSV rows of equal-length ``columns`` in chunks of ``rows``.

    Each column's cell function is picked once per document (see
    :func:`_csv_cells`); the rows are formatted as the chunks are written,
    so no more than one chunk of text is held at once.
    """
    cells = [_csv_cells(np.asarray(column)) for column in columns]
    yield head
    for start in range(0, len(columns[0]), rows):
        block = slice(start, start + rows)
        yield "\n".join(map(",".join, zip(*(column(block) for column in cells)))) + "\n"


class ColumnRows(Sequence):
    """Read-only sequence of ``row`` objects backed by equal-length column arrays.

    The package's one table type: sweep records, search candidates, curve
    samples and transform composites.  Item ``i`` is ``row(**fixed,
    **{name: column[i]})`` with each cell as a Python value, built on
    access: ``n`` rows cost a few ``n``-length arrays, not ``n`` objects.
    :attr:`columns` maps the field names to the arrays in field order, for
    callers that read whole columns, such as the CSV and JSON writers; the
    arrays are made read-only.  ``repr``, slices and ``==`` read as those of
    the list of rows.
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
        cells = {name: column[index].tolist() for name, column in self.columns.items()}
        return self.row(**cells, **self.fixed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(list(self))
