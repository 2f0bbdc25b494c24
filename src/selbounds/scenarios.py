"""Application scenarios: cache prefetching and opportunistic scheduling.

Each scenario turns a popularity model into a selection system, computes
the bound report for the (possibly transformed) system, the exact
achievable rate of the optimal selection, and a seeded Monte Carlo
estimate of the same rate.

Popularity scores are taken as already expressing "probability of good
performance"; any upstream thresholding of raw performance values is
assumed folded into the weights (``threshold_note`` is kept as an
annotation only).  All objects are interchangeable in cost (same page
size / one channel per client).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import BoundReport, build_report, transformed_report
from .core import (
    DEFAULT_TOLERANCE,
    SortedDistribution,
    entropy,
    make_distribution,
    parse_key_values,
    read_weights,
    tail_probability,
)
from .errors import BadConfigError
from .rng import derive_rng
from .transform import transform_repeated, transform_unique

SCENARIO_KINDS = ("cache_single", "cache_multipage", "cache_multiuser", "scheduling")


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Power-law popularity weights: rank i gets i**(-s)."""
    if n < 1:
        raise BadConfigError(f"n must be >= 1, got {n}")
    if not (s > 0 and math.isfinite(s)):
        raise BadConfigError(f"zipf exponent must be positive, got {s!r}")
    return np.arange(1, n + 1, dtype=float) ** (-s)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (see :func:`parse_scenario_config`)."""

    kind: str
    n: int
    m: int
    k: int = 1
    zipf_s: float | None = None
    weights: np.ndarray | None = None
    trials: int = 0
    seed: int = 0
    threshold_note: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise BadConfigError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if not 1 <= self.m <= self.n:
            raise BadConfigError(f"m must satisfy 1 <= m <= n={self.n}, got {self.m}")
        if not 1 <= self.k <= self.m:
            raise BadConfigError(f"k must satisfy 1 <= k <= m={self.m}, got {self.k}")
        if self.kind == "cache_single" and self.k != 1:
            raise BadConfigError("cache_single evaluates one request; k must be 1")
        if self.kind == "scheduling" and self.k != self.m:
            raise BadConfigError("scheduling fills every channel; k must equal m")
        if self.trials < 0:
            raise BadConfigError(f"trials must be >= 0, got {self.trials}")
        if (self.zipf_s is None) == (self.weights is None):
            raise BadConfigError("exactly one of zipf_s / weights must be given")
        if self.weights is not None and len(self.weights) != self.n:
            raise BadConfigError(
                f"weights file has {len(self.weights)} entries, expected n={self.n}"
            )

    def popularity(self) -> np.ndarray:
        if self.weights is not None:
            return np.asarray(self.weights, dtype=float)
        return zipf_weights(self.n, float(self.zipf_s))


def parse_scenario_config(text: str, base_dir=None) -> ScenarioConfig:
    """Parse the flat key=value scenario format.

    Recognized keys: ``kind``, ``n``, ``m``, ``k``, ``zipf_s``,
    ``weights_file``, ``trials``, ``seed``, ``threshold_note``.  Blank
    lines and ``#`` comments are ignored; unknown keys are errors.
    """
    fields = parse_key_values(
        text,
        {"kind", "n", "m", "k", "zipf_s", "weights_file", "trials", "seed", "threshold_note"},
    )
    for required in ("kind", "n", "m"):
        if required not in fields:
            raise BadConfigError(f"missing required config key {required!r}")

    def _int(key: str, default: int | None = None) -> int:
        if key not in fields:
            return default  # type: ignore[return-value]
        try:
            return int(fields[key])
        except ValueError as exc:
            raise BadConfigError(f"{key} must be an integer, got {fields[key]!r}") from exc

    weights = None
    if "weights_file" in fields:
        path = Path(fields["weights_file"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        weights = read_weights(path)
    zipf_s = None
    if "zipf_s" in fields:
        try:
            zipf_s = float(fields["zipf_s"])
        except ValueError as exc:
            raise BadConfigError(f"zipf_s must be a number, got {fields['zipf_s']!r}") from exc
    kind = fields["kind"]
    m = _int("m")
    default_k = m if kind == "scheduling" else 1
    return ScenarioConfig(
        kind=kind,
        n=_int("n"),
        m=m,
        k=_int("k", default_k),
        zipf_s=zipf_s,
        weights=weights,
        trials=_int("trials", 0),
        seed=_int("seed", 0),
        threshold_note=fields.get("threshold_note"),
    )


@dataclass(frozen=True)
class ScenarioReport:
    """Bounds plus exact and simulated rates for one scenario.

    ``exact_rate`` is the achievable optimum: the miss probability (cache)
    or merit probability (scheduling) of caching/serving the top-m
    objects.  ``bound_report.pi_observed`` carries the transformed sorted
    tail mass, which is what the analytic bounds provably enclose;
    ``within_bounds`` checks exactly that.  When composite ties make the
    selected composites differ from the most probable ones, the two rates
    diverge and ``selection_mismatch`` is flagged on the bound report.
    """

    kind: str
    orientation: str  # "error" (miss rate) or "merit"
    bound_report: BoundReport
    exact_rate: float
    empirical_rate: float | None
    within_bounds: bool
    selected_ids: tuple[int, ...]
    trials: int

    def to_dict(self) -> dict:
        out = self.bound_report.to_dict()
        out.update(
            {
                "kind": self.kind,
                "orientation": self.orientation,
                "exact_rate": self.exact_rate,
                "empirical_rate": self.empirical_rate,
                "empirical_complement": (
                    None if self.empirical_rate is None else 1.0 - self.empirical_rate
                ),
                "within_bounds": self.within_bounds,
                "selected_ids": [int(i) for i in self.selected_ids],
                "trials": self.trials,
            }
        )
        return out


#: Monte Carlo trials drawn per block, so peak memory stays that of one
#: block whatever the trial count.  ``Generator.gumbel`` fills arrays in
#: row-major order, so drawing block by block consumes the Philox stream
#: exactly as one full-size draw would; the uniform samplers count raw
#: words in blocks of ``TRIAL_BLOCK_ROWS // TRIAL_SEGMENTS`` trials per
#: segment (see :func:`_count_below`), so the words in flight stay those of
#: one block.
TRIAL_BLOCK_ROWS = 65_536

#: Fixed stream segments of a uniform sampler's trials, each counted on its
#: own thread.  The count is the same for any number of segments, so it
#: does not depend on the core count either.
TRIAL_SEGMENTS = 2

#: Gumbel keys drawn per block: a Gumbel trial draws one key per object, so
#: its blocks hold ``max(1, GUMBEL_BLOCK_CELLS // n)`` trials and stay about
#: the size of a ``TRIAL_BLOCK_ROWS`` block of a few uniforms whatever n is.
GUMBEL_BLOCK_CELLS = 1 << 18


def _count_in_blocks(trials: int, count_block, rows: int) -> int:
    """Sum ``count_block(r)`` over consecutive blocks of ``rows`` trials.

    The count is an exact integer, so ``count / trials`` is rounded once and
    equals ``np.mean`` of the per-trial boolean outcomes bit for bit.
    """
    return sum(
        count_block(min(rows, trials - start)) for start in range(0, trials, rows)
    )


def _head_threshold(dist: SortedDistribution, m: int) -> float:
    """Uniform threshold below which a weighted draw lands in the top m.

    ``Generator.choice(n, p=p)`` draws ``u = rng.random()`` and returns
    ``searchsorted(cdf, u, side="right")`` with ``cdf = p.cumsum() / cdf[-1]``,
    so its draw is one of the first m exactly when ``u < cdf[m-1]``; the
    threshold is computed the same way, so counts match ``choice`` exactly.
    The samplers compare raw Philox words with :func:`_raw_limit` of it,
    which decides every draw as ``u < cdf[m-1]`` does.
    ``choice`` also rejected negative ``p`` and sums more than
    ``sqrt(eps)`` (about 1.5e-8) from 1; a :class:`SortedDistribution`
    already guarantees both, as its entries are clipped to be non-negative
    and its sum is within ``DEFAULT_TOLERANCE`` (1e-9) of 1.
    """
    cdf = np.cumsum(dist.probs)
    cdf /= cdf[-1]
    return float(cdf[m - 1])


def _raw_limit(c: float) -> int:
    """The largest raw Philox word that ``Generator.random()`` maps below ``c``.

    ``Generator.random`` turns the word ``r`` into ``(r >> 11) * 2**-53``.
    That is below ``c`` exactly when the integer ``r >> 11`` is below
    ``ceil(c * 2**53)`` (a product by a power of two, so exact), that is
    when ``r < ceil(c * 2**53) << 11``.  ``c`` is a top-m mass, in
    ``(0, 1]``, so the limit is a uint64: ``2**64 - 1``, every word, at
    ``c = 1``.
    """
    return (math.ceil(c * 2**53) << 11) - 1


def _philox_at(state: dict, words: int) -> np.random.Philox:
    """A Philox in ``state`` moved on ``words`` raw words, as drawing them would.

    One Philox step makes 4 words, and the state buffers those not yet
    drawn.  ``advance`` skips whole steps and empties the buffer, so the
    last 1-4 words are drawn: counter, buffer and position then equal those
    of a serial draw.
    """
    bg = np.random.Philox()
    bg.state = state
    ahead = words - (4 - state["buffer_pos"])  # words past the buffered ones
    if ahead > 0:
        bg.advance((ahead - 1) // 4)
        words = (ahead - 1) % 4 + 1
    bg.random_raw(words, output=False)
    return bg


def _count_below(rng: np.random.Generator, trials: int, k: int, c: float) -> int:
    """Trials of ``k`` uniforms, drawn as ``rng.random((trials, k))``, all below ``c``.

    The count is taken on the raw Philox words under that draw, against
    :func:`_raw_limit`, so every decision is the uniform's.  The trials
    are split into ``TRIAL_SEGMENTS`` fixed stream segments: each starts on
    a Philox copy moved on to its first word and counts on its own thread
    (``random_raw`` and the compares release the GIL).  ``rng`` is left
    where the serial draw would leave it.
    """
    state = rng.bit_generator.state
    limit = np.uint64(_raw_limit(c))
    cuts = [trials * s // TRIAL_SEGMENTS for s in range(TRIAL_SEGMENTS + 1)]
    segments = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    streams = [_philox_at(state, a * k) for a, _ in segments]
    rows = max(1, TRIAL_BLOCK_ROWS // TRIAL_SEGMENTS)
    counts, errors = [0] * len(segments), []

    def count(i: int) -> None:
        (a, b), bg = segments[i], streams[i]

        def count_block(r: int) -> int:
            words = bg.random_raw(r * k).reshape(r, k)
            hit = words[:, 0] <= limit
            for j in range(1, k):
                hit &= words[:, j] <= limit
            return int(np.count_nonzero(hit))

        try:
            counts[i] = _count_in_blocks(b - a, count_block, rows)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=count, args=(i,)) for i in range(1, len(segments))]
    for thread in threads:
        thread.start()
    count(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    # random_raw leaves the 32-bit buffer alone; advance clears it
    rng.bit_generator.state = {
        **streams[-1].state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]
    }
    return sum(counts)


def _sample_misses_single(
    dist: SortedDistribution, m: int, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of trials whose single weighted pick falls outside the top m."""
    hits = _count_below(rng, trials, 1, _head_threshold(dist, m))
    return (trials - hits) / trials


def _sample_hits_unique(
    dist: SortedDistribution, m: int, k: int, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of trials whose k without-replacement picks all hit the top m.

    Gumbel-key top-k sampling draws the sequential renormalized chain
    exactly, so no per-step loop is needed.
    """
    n = dist.n
    if m == n:
        return 1.0
    with np.errstate(divide="ignore"):
        log_p = np.log(np.asarray(dist.probs))

    def count_block(rows: int) -> int:
        keys = log_p + rng.gumbel(size=(rows, n))
        head_kth = np.partition(keys[:, :m], m - k, axis=1)[:, m - k]
        tail_max = keys[:, m:].max(axis=1)
        return int(np.count_nonzero(head_kth > tail_max))

    rows = max(1, GUMBEL_BLOCK_CELLS // n)
    return _count_in_blocks(trials, count_block, rows) / trials


def _sample_hits_repeated(
    dist: SortedDistribution, m: int, k: int, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of trials whose k independent picks all hit the top m."""
    if m == dist.n:
        return 1.0
    return _count_below(rng, trials, k, _head_threshold(dist, m)) / trials


def _within(report: BoundReport, tol: float) -> bool:
    assert report.pi_observed is not None
    return (
        report.pi_lb_analytic - tol
        <= report.pi_observed
        <= report.pi_ub_analytic + tol
    )


def cache_scenario(
    cfg: ScenarioConfig, tol: float = DEFAULT_TOLERANCE
) -> ScenarioReport:
    """Prefetch-cache miss analysis (single page, k pages, or k users).

    The optimal cache holds the m most popular pages.  ``cache_multipage``
    models one user fetching k distinct pages (without-replacement
    composites); ``cache_multiuser`` models k independent users (multiset
    composites).  A trial misses when any requested page is uncached.
    """
    if cfg.kind not in ("cache_single", "cache_multipage", "cache_multiuser"):
        raise BadConfigError(f"not a cache scenario: {cfg.kind!r}")
    dist = make_distribution(cfg.popularity())
    rng = derive_rng(cfg.seed, 0)
    selected = tuple(int(i) for i in dist.original_index[: cfg.m])
    empirical: float | None = None
    if cfg.kind == "cache_single":
        exact = tail_probability(dist, cfg.m)
        report = build_report(
            cfg.n, cfg.m, entropy(dist), k=1, mode="direct",
            tol=tol, pi_observed=exact,
        )
        if cfg.trials > 0:
            empirical = _sample_misses_single(dist, cfg.m, cfg.trials, rng)
    else:
        if cfg.kind == "cache_multipage":
            ts = transform_unique(dist, cfg.m, cfg.k, tol)
            if cfg.trials > 0:
                empirical = 1.0 - _sample_hits_unique(dist, cfg.m, cfg.k, cfg.trials, rng)
        else:
            ts = transform_repeated(dist, cfg.m, cfg.k, tol)
            if cfg.trials > 0:
                empirical = 1.0 - _sample_hits_repeated(dist, cfg.m, cfg.k, cfg.trials, rng)
        exact = 1.0 - ts.selected_probability
        report = transformed_report(ts, tol=tol)
    return ScenarioReport(
        kind=cfg.kind,
        orientation="error",
        bound_report=report,
        exact_rate=exact,
        empirical_rate=empirical,
        within_bounds=_within(report, tol),
        selected_ids=selected,
        trials=cfg.trials,
    )


def scheduling_scenario(
    cfg: ScenarioConfig, tol: float = DEFAULT_TOLERANCE
) -> ScenarioReport:
    """Channel-assignment merit analysis: all m channels must land well.

    With k = m distinct winners the transformed system has a single
    selected composite, whose probability is the exact merit of choosing
    the m most promising clients.
    """
    if cfg.kind != "scheduling":
        raise BadConfigError(f"not a scheduling scenario: {cfg.kind!r}")
    dist = make_distribution(cfg.popularity())
    rng = derive_rng(cfg.seed, 0)
    selected = tuple(int(i) for i in dist.original_index[: cfg.m])
    ts = transform_unique(dist, cfg.m, cfg.m, tol)
    report = transformed_report(ts, tol=tol)
    empirical = None
    if cfg.trials > 0:
        empirical = _sample_hits_unique(dist, cfg.m, cfg.m, cfg.trials, rng)
    return ScenarioReport(
        kind=cfg.kind,
        orientation="merit",
        bound_report=report,
        exact_rate=ts.selected_probability,
        empirical_rate=empirical,
        within_bounds=_within(report, tol),
        selected_ids=selected,
        trials=cfg.trials,
    )


def run_scenario(
    cfg: ScenarioConfig, tol: float = DEFAULT_TOLERANCE
) -> ScenarioReport:
    """Dispatch a scenario config to its handler."""
    if cfg.kind == "scheduling":
        return scheduling_scenario(cfg, tol)
    return cache_scenario(cfg, tol)
