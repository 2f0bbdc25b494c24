"""Independent validators and the Monte Carlo bound-verification harness.

The sweep harness samples random distributions per shape, evaluates the
analytic and tight bounds at the observed entropy, and flags any record
whose observed tail mass escapes the analytic interval.  Violations are
data, never aborts.  It works on arrays: each shape's scenarios are drawn
into row blocks (each scenario from its own seeded stream) and reduced to
entropies and tail masses row by row; the analytic bounds take one call
per shape, and each tight bound one search over every record of every
shape.  The records stay columns (a :class:`~selbounds.core.ColumnRows`)
through the summary, the CSV and the JSON; a :class:`SweepRecord` is built
only when one is read.  The exact scan of the min-entropy polytope's
vertices, in integers, and the exhaustive transform enumeration check the
closed-form machinery without sharing its code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _DEFAULT_MAX_STATES,
    DEFAULT_TOLERANCE,
    ColumnRows,
    SortedDistribution,
    SystemShape,
    built_internally,
    csv_blocks,
    entropy_rows,
    env_cap,
    make_distribution,
    parse_key_values,
    sorted_rows,
)
from .errors import BadConfigError, BadKError, BadMError, NumericFailureError, TooLargeError
from .inversion import _analytic_bounds, _clamp, _invert_lower, _invert_upper
from .rng import derive_rng, keyed_rngs, stream_keys

#: The eight (n, m) verification configurations used for the published
#: scatter experiments; 100 scenarios each reproduces that methodology.
REFERENCE_SWEEP_SHAPES: tuple[tuple[int, int], ...] = (
    (20, 6),
    (30, 20),
    (50, 15),
    (100, 60),
    (200, 40),
    (500, 300),
    (1000, 400),
    (1500, 1000),
)

_SAMPLER_KINDS = ("dirichlet_symmetric", "spiky")

#: Most weights the sweep holds in one sampling block; a shape's scenarios
#: are drawn ``2**14 // n`` rows at a time, so memory does not grow with
#: the scenario count.
_BLOCK_CELLS = 1 << 14

#: CSV column order for sweep records (stable interface).
SWEEP_CSV_HEADER = (
    "scenario_id,n,m,entropy_bits,pi_observed,"
    "pi_lb_analytic,pi_ub_analytic,pi_lb_tight,pi_ub_tight,violation"
)
#: The fields of :class:`SweepRecord`, in CSV column order.
_FIELDS = tuple(SWEEP_CSV_HEADER.split(","))


@dataclass(frozen=True)
class SamplerSpec:
    """Distribution family used to draw sweep scenarios."""

    kind: str = "dirichlet_symmetric"
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _SAMPLER_KINDS:
            raise BadConfigError(
                f"sampler must be one of {_SAMPLER_KINDS}, got {self.kind!r}"
            )
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise BadConfigError(f"alpha must be positive, got {self.alpha!r}")
        if self.kind == "spiky" and self.alpha >= 1.0:
            raise BadConfigError("spiky sampler requires alpha < 1")


@dataclass(frozen=True)
class SweepConfig:
    shapes: tuple[tuple[int, int], ...]
    scenarios_per_shape: int = 100
    seed: int = 0
    sampler: SamplerSpec = field(default_factory=SamplerSpec)

    def __post_init__(self) -> None:
        if not self.shapes:
            raise BadConfigError("sweep needs at least one (n, m) shape")
        shapes = []
        for pair in self.shapes:
            n, m = int(pair[0]), int(pair[1])
            if not 1 <= m <= n:
                raise BadConfigError(f"shape ({n}, {m}) violates 1 <= m <= n")
            shapes.append((n, m))
        if self.scenarios_per_shape < 1:
            raise BadConfigError("scenarios_per_shape must be >= 1")
        object.__setattr__(self, "shapes", tuple(shapes))


@dataclass(frozen=True)
class SweepRecord:
    scenario_id: int
    n: int
    m: int
    entropy_bits: float
    pi_observed: float
    pi_lb_analytic: float
    pi_ub_analytic: float
    pi_lb_tight: float
    pi_ub_tight: float
    violation: bool


def reference_sweep_config(seed: int = 42, scenarios: int = 100) -> SweepConfig:
    """The built-in verification preset over the eight reference shapes."""
    return SweepConfig(REFERENCE_SWEEP_SHAPES, scenarios, seed, SamplerSpec())


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat key=value sweep format.

    Keys: ``shapes`` (required, e.g. ``20:6,30:20``), ``scenarios_per_shape``,
    ``seed``, ``sampler`` (``dirichlet_symmetric`` or ``spiky``), ``alpha``.
    Unknown keys are errors.
    """
    fields = parse_key_values(
        text, {"shapes", "scenarios_per_shape", "seed", "sampler", "alpha"}
    )
    if "shapes" not in fields:
        raise BadConfigError("missing required config key 'shapes'")
    shapes = []
    for token in fields["shapes"].split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 2:
            raise BadConfigError(f"shape {token!r} must look like N:M")
        try:
            shapes.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise BadConfigError(f"shape {token!r} must be integers N:M") from exc
    kind = fields.get("sampler", "dirichlet_symmetric")
    alpha_default = 0.2 if kind == "spiky" else 1.0
    try:
        alpha = float(fields.get("alpha", alpha_default))
        scenarios = int(fields.get("scenarios_per_shape", 100))
        seed = int(fields.get("seed", 0))
    except ValueError as exc:
        raise BadConfigError(f"malformed numeric config value: {exc}") from exc
    return SweepConfig(tuple(shapes), scenarios, seed, SamplerSpec(kind, alpha))


def _draw_weights(n: int, sampler: SamplerSpec, rng: np.random.Generator) -> np.ndarray:
    """n raw weights from the sampler family, drawn again while all are zero."""
    for _ in range(64):
        weights = rng.standard_gamma(sampler.alpha, size=n)
        if float(weights.sum()) > 0.0:
            return weights
    raise NumericFailureError("sampler kept producing all-zero weight vectors")


def sample_distribution(
    n: int, sampler: SamplerSpec, rng: np.random.Generator
) -> SortedDistribution:
    """Draw n weights from the sampler family, normalize, sort descending."""
    return make_distribution(_draw_weights(n, sampler, rng))


def sample_feasible(shape: SystemShape, rng: np.random.Generator) -> SortedDistribution:
    """Random distribution satisfying the shape's head/tail constraints.

    Head and tail are drawn independently and sorted; if the junction
    ordering fails, both are blended toward the flat (maximum entropy)
    point, which preserves segment sums and sortedness.
    """
    n, m, pi = shape.n, shape.m, shape.pi
    head = np.sort(rng.dirichlet(np.ones(m)))[::-1] * (1.0 - pi)
    if m == n:
        probs = head
    else:
        if pi <= 0.0:
            tail = np.zeros(n - m)
        else:
            tail = np.sort(rng.dirichlet(np.ones(n - m)))[::-1] * pi
        if tail.size and head[-1] < tail[0]:
            flat_gap = shape.head_mean - shape.tail_mean
            overlap = tail[0] - head[-1]
            lam = flat_gap / (flat_gap + overlap) if flat_gap + overlap > 0 else 0.0
            head = lam * head + (1.0 - lam) * shape.head_mean
            tail = lam * tail + (1.0 - lam) * shape.tail_mean
        probs = np.concatenate([head, tail])
    with built_internally("feasible sample"):
        return SortedDistribution(probs)


def _observe_shape(config: SweepConfig, shape_index: int) -> np.ndarray:
    """Observed entropy and tail mass (two rows) of each scenario of one shape.

    NaN where a scenario failed.  Scenario ``i`` draws its weights from
    the stream of ``derive_rng(seed, shape_index, i)``; the keys of all the
    shape's streams come from one call, and one Philox is re-keyed per
    scenario (:func:`~selbounds.rng.keyed_rngs`).  The rows of a block are
    then checked, normalized and sorted as :func:`sample_distribution` does.
    A shape above the ``SELBOUNDS_MAX_STATES`` cap fails every scenario; a
    malformed cap raises.
    """
    n, m = config.shapes[shape_index]
    count = config.scenarios_per_shape
    out = np.full((2, count), np.nan)
    if n > env_cap("SELBOUNDS_MAX_STATES", _DEFAULT_MAX_STATES):
        return out
    rngs = keyed_rngs(stream_keys(config.seed, (shape_index,), np.arange(count)))
    rows = max(1, _BLOCK_CELLS // n)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        block = np.ones((stop - start, n))
        drawn = np.zeros(stop - start, dtype=bool)
        for row, rng in zip(range(stop - start), rngs):
            try:
                block[row] = _draw_weights(n, config.sampler, rng)
            except Exception:  # failures are data; the sweep never aborts
                continue
            drawn[row] = True
        probs, ok = sorted_rows(block)
        ok &= drawn
        probs = probs[ok]
        out[:, start:stop][:, ok] = entropy_rows(probs), probs[:, m:].sum(axis=1)
    return out


def run_sweep(
    config: SweepConfig, tol: float = DEFAULT_TOLERANCE
) -> tuple[ColumnRows, dict]:
    """Execute the sweep; returns (records sorted by shape/scenario, summary).

    The records are the sweep's columns as a :class:`ColumnRows` of
    :class:`SweepRecord`, each built only when it is read.  A failed
    scenario, a failed analytic call (which fails its shape) and a failed
    tight search (which fails every record) give NaN records flagged as
    violations; the sweep itself always completes.
    """
    shapes, count = config.shapes, config.scenarios_per_shape
    h, pi_obs = np.concatenate([_observe_shape(config, i) for i in range(len(shapes))], axis=1)
    ns, ms = np.repeat(np.array(shapes).T, count, axis=1)
    hs = _clamp(h, 0.0, np.repeat([math.log2(n) for n, _ in shapes], count))
    bounds = np.full((4, h.size), np.nan)  # analytic lb, ub; tight lb, ub
    for i, (n, m) in enumerate(shapes):
        span = slice(i * count, (i + 1) * count)
        ok = ~np.isnan(h[span])
        try:  # one batched call per shape: a failure fails the shape
            bounds[:2, span][:, ok] = _analytic_bounds(n, m, hs[span][ok])[:2]
        except Exception:
            h[span] = pi_obs[span] = np.nan
    ok = ~np.isnan(h)
    try:  # one search per bound over every shape: a failure fails every record
        bounds[2:, ok] = (
            _invert_lower(ns[ok], ms[ok], hs[ok]),
            _invert_upper(ns[ok], ms[ok], hs[ok]),
        )
    except Exception:
        h[:] = pi_obs[:] = bounds[:] = np.nan
    violation = ~((bounds[0] - tol <= pi_obs) & (pi_obs <= bounds[1] + tol))
    ids = np.tile(np.arange(count), len(shapes))
    columns = (ids, ns, ms, h, pi_obs, *bounds, violation)
    records = ColumnRows(SweepRecord, dict(zip(_FIELDS, columns)))
    return records, summarize(records)


def _columns(records: ColumnRows | list[SweepRecord]) -> dict[str, np.ndarray]:
    """The sweep's columns of ``records``: a :class:`ColumnRows`' own, or a list of records'."""
    if isinstance(records, ColumnRows):
        return records.columns
    return {name: np.asarray([getattr(r, name) for r in records]) for name in _FIELDS}


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty array: the middle value, or the mean of the middle pair.

    Taking the middle of ``np.sort`` keeps a sweep from importing
    ``numpy.ma``, which ``np.median`` loads.  As there, a NaN anywhere
    (sorted last) makes the median NaN, and the sum starts from 0.0, so a
    -0.0 median reads 0.0.
    """
    ordered = np.sort(values).tolist()
    if math.isnan(ordered[-1]):
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(0.0 + ordered[mid])
    return float((0.0 + ordered[mid - 1] + ordered[mid]) / 2)


def _gap_block(gaps: np.ndarray, wide: np.ndarray) -> dict:
    """Count, mean and median of the finite ``gaps`` of each regime (``wide``: ``m >= n/2``)."""
    block = {}
    for regime, rows in (("m_lt_half", ~wide), ("m_ge_half", wide)):
        finite = gaps[rows][np.isfinite(gaps[rows])]
        block[regime] = {
            "records": int(np.count_nonzero(rows)),
            "mean": float(np.mean(finite)) if finite.size else None,
            "median": _median(finite) if finite.size else None,
        }
    return block


def summarize(records: ColumnRows | list[SweepRecord]) -> dict:
    """Aggregate violation counts and bound-gap statistics, from the records' columns.

    ``records`` is :func:`run_sweep`'s :class:`ColumnRows` or a list of
    :class:`SweepRecord`.  Gaps are reported separately for the
    wide-selection regime (``m >= n/2``, where the analytic bounds are
    tightest) and the narrow one, and per shape, over the records whose
    entropy is finite.
    """
    c = _columns(records)
    done = np.isfinite(c["entropy_bits"])
    ns, ms = c["n"][done], c["m"][done]
    analytic = (c["pi_ub_analytic"] - c["pi_lb_analytic"])[done]
    tight = (c["pi_ub_tight"] - c["pi_lb_tight"])[done]
    shapes_out = []
    for n, m in sorted(set(zip(ns.tolist(), ms.tolist()))):
        rows = (ns == n) & (ms == m)
        a, t = analytic[rows], tight[rows]
        shapes_out.append({
            "n": n, "m": m, "regime": "m_ge_half" if 2 * m >= n else "m_lt_half",
            "mean_gap_analytic": float(np.mean(a)), "median_gap_analytic": _median(a),
            "mean_gap_tight": float(np.mean(t)), "median_gap_tight": _median(t),
        })
    wide = 2 * ms >= ns
    return {
        "total": len(records),
        "violations": int(np.count_nonzero(c["violation"])),
        "failures": int(np.count_nonzero(~done)),
        "gap_stats": {
            "analytic": _gap_block(analytic, wide),
            "tight": _gap_block(tight, wide),
            "per_shape": shapes_out,
        },
    }


def records_to_csv(records: ColumnRows | list[SweepRecord]) -> str:
    """Render sweep records, columns or a list, as CSV (stable header, 12 significant digits)."""
    columns = list(_columns(records).values())
    return "".join(csv_blocks(SWEEP_CSV_HEADER + "\n", columns, len(records) or 1))


def _level_bits(count: int, num: int, den: int) -> float:
    """``-count * v * log2(v)`` for ``count`` entries at ``v = num/den``.

    The level's mass is one correctly rounded integer division.  Above
    ``v = 1/2`` the logarithm goes through ``log1p``, so a head entry near
    1 keeps its ``(1 - v)/ln 2``; below, ``den/num`` is shifted into the
    double range first, so no positive level is too small to count.
    """
    mass = count * num / den
    if 2 * num > den:
        return mass * math.log1p((den - num) / num) / math.log(2)
    shift = max(0, den.bit_length() - num.bit_length() - 1000)
    return mass * (shift + math.log2(den / (num << shift)))


def oracle_min_entropy(shape: SystemShape) -> float:
    """The exact minimum entropy of a shape, by a scan of its polytope's vertices.

    Entropy is concave, so its minimum over the feasible polytope (sorted
    entries, head mass ``1 - pi``, tail mass ``pi``) sits at a vertex.  A
    vertex leaves at most two of the ``n`` chain constraints
    ``p_i >= p_{i+1}``, ``p_n >= 0`` slack, so it is ``v1`` on the first
    ``a`` entries, ``v2`` on the next ``b - a`` and zeros after.  Each
    vertex is solved in integers from ``pi = p/q``, so every feasibility
    test is exact and only each level's entropy is rounded.  A double
    ``pi`` above the rational ceiling ``(n-m)/n`` is read as the ceiling.
    """
    n, m = shape.n, shape.m
    p, q = shape.pi.as_integer_ratio()
    if p * n > (n - m) * q:
        p, q = n - m, n
    head = q - p  # the head mass 1 - pi, times q
    best = math.inf
    for b in range(1, n + 1):  # one level on the first b entries
        if max(b - m, 0) * head == min(b, m) * p:
            best = min(best, _level_bits(b, head, q * min(b, m)))
    for b in range(m + 1, n + 1):  # two levels on the first b entries, split at a
        for a in range(1, b):
            if a <= m:  # v1 on a head entries, v2 on the other m - a and b - m tail entries
                den = q * a * (b - m)
                num1, num2 = head * (b - m) - (m - a) * p, a * p
            else:  # v1 on the head and a - m tail entries, v2 on b - a tail entries
                den = q * m * (b - a)
                num1, num2 = head * (b - a), m * p - (a - m) * head
            if num1 >= num2 > 0:
                best = min(best, _level_bits(a, num1, den) + _level_bits(b - a, num2, den))
    return best


def oracle_transform_check(
    n: int,
    k: int,
    trials: int,
    rng: np.random.Generator | None = None,
) -> dict:
    """Compare both transforms against total enumeration of ordered tuples.

    For random distributions, every ordered k-tuple (with and without
    replacement) is evaluated by a plain chain/product loop and grouped
    into composites; the grouped masses must match the transform outputs.
    """
    if n < 1:
        raise BadMError(f"n must satisfy n >= 1, got {n}")
    if k < 1:
        raise BadKError(f"k must satisfy k >= 1, got {k}")
    if n > 6 or k > 3:
        raise TooLargeError("total enumeration is capped at n <= 6, k <= 3")
    from .transform import transform_repeated, transform_unique  # the sweep never needs them
    if rng is None:
        rng = derive_rng(0)
    sampler = SamplerSpec()
    max_dev_unique = 0.0
    max_dev_repeated = 0.0
    for _ in range(max(1, trials)):
        dist = sample_distribution(n, sampler, rng)
        p = np.asarray(dist.probs)

        grouped: dict[tuple, float] = {}
        for perm in itertools.permutations(range(n), k):
            remaining = 1.0
            chain = 1.0
            for idx in perm:
                chain *= p[idx] / remaining
                remaining -= p[idx]
            key = tuple(sorted(perm))
            grouped[key] = grouped.get(key, 0.0) + chain
        ts = transform_unique(dist, n, k)
        for row, prob in zip(ts.composite_members, ts.dist.probs):
            dev = abs(grouped[tuple(int(v) for v in row)] - float(prob))
            max_dev_unique = max(max_dev_unique, dev)

        grouped.clear()
        for tup in itertools.product(range(n), repeat=k):
            value = 1.0
            for idx in tup:
                value *= p[idx]
            key = tuple(sorted(tup))
            grouped[key] = grouped.get(key, 0.0) + value
        tr = transform_repeated(dist, n, k)
        for row, prob in zip(tr.composite_members, tr.dist.probs):
            dev = abs(grouped[tuple(int(v) for v in row)] - float(prob))
            max_dev_repeated = max(max_dev_repeated, dev)
    return {
        "n": n,
        "k": k,
        "trials": trials,
        "max_abs_deviation_unique": max_dev_unique,
        "max_abs_deviation_repeated": max_dev_repeated,
    }
