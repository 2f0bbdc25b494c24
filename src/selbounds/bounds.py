"""Bounds on error/merit probability of the optimal selection given entropy.

Two families of bounds are provided for a system with ``n`` objects,
``m`` selected and entropy ``h`` bits:

*Analytic closed forms.*  The lower bound inverts a relaxation of the
maximum-entropy curve and is only informative when ``m < n/2`` (for
``m >= n/2`` it degenerates to 0).  The upper bound composes the
junction-indexed relaxations of the minimum-entropy curve with the
``1 - h/log2(m)`` entry and takes their maximum.  Both are clamped into
the feasible interval ``[0, (n-m)/n]``; the unclamped values are kept for
transparency.  One batched helper,
:func:`~selbounds.inversion._analytic_bounds`, evaluates and clamps them
for an array of entropies; the scalar functions, the report and the sweep
all call it.

*Tight numeric bounds.*  :class:`TightInverter`, :func:`pi_bounds_tight`
and :func:`build_report` invert the exact extremal-entropy curves of
:mod:`~selbounds.curves` through :mod:`~selbounds.inversion`, whose
docstring proves the inversion returns the doubles of a plain bisection,
each on the safe side of its curve's crossing.

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
from .curves import _index_bound
from .errors import BadEntropyError, BadKError
from .inversion import _analytic_bounds, _invert_lower, _invert_upper
from .transform import TransformedSystem, transform_repeated, transform_unique


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
