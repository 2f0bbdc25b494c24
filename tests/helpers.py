"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's code paths: entropies
are evaluated in 50-digit arithmetic, chains are plain Python loops, and
the feasible-polytope sampler is a separate numpy implementation.  The
analytic bounds and the sweep are kept as the earlier scalar, per-record
code, and ``H_min`` as the earlier scan over every junction, so the
batched library paths can be checked bit for bit against them.  The tight
bounds' true values come from 50-digit bisections of the 50-digit curves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from mpmath import mp, mpf, log

import selbounds.oracle as oracle
from selbounds.bounds import TightInverter
from selbounds.core import complement_entropy_terms, entropy, entropy_terms, tail_probability
from selbounds.curves import _candidate_entropies, max_entropy_values

mp.dps = 50


def mp_log2(x):
    return log(x) / log(2)


def _mp(x):
    """An mpf as it is; a float as its exact value."""
    return x if isinstance(x, mp.mpf) else mpf(float(x))


def _mp_fe_near_one(d):
    """``-(1-d)*log2(1-d)`` through ``log1p``, so no ``d`` is too small to count."""
    return -(1 - d) * mp.log1p(-d) / log(2)


def mp_entropy(values) -> float:
    """High-precision base-2 entropy, returned as a float."""
    total = mpf(0)
    for v in values:
        v = mpf(float(v))
        if v > 0:
            total -= v * mp_log2(v)
    return float(total)


def mp_max_entropy(n, m, pi) -> float:
    """High-precision closed form for the maximum entropy."""
    return float(mp_h_max(n, m, pi))


def mp_h_max(n, m, pi):
    """50-digit ``H_max`` at a float or mpf tail mass, as an mpf."""
    pi = _mp(pi)
    total = (1 - pi) * mp_log2(m) + _mp_fe_near_one(pi)
    if pi > 0:
        total += pi * mp_log2(mpf(n - m) / pi)
    return total


def mp_min_entropy_m1(n, pi) -> float:
    """50-digit entropy of the m = 1 staircase for tail mass ``pi``.

    As many full steps of ``1 - pi`` as fit in 1 (at most ``n``), then the
    exact remainder.
    """
    return float(_mp_staircase(n, pi))


def _mp_staircase(n, pi):
    pi = _mp(pi)
    step = 1 - pi
    copies = min(int(mp.floor(1 / step)), n)
    rest = pi - (copies - 1) * step
    total = copies * _mp_fe_near_one(pi)
    if rest > 0:
        total -= rest * mp_log2(rest)
    return total


def mp_min_entropy(n, m, pi, slots=None) -> float:
    """50-digit minimum entropy for m >= 2 over the junctions and right endpoint.

    Junction ``s`` fills ``s`` tail slots with ``p = pi/s`` (when ``p`` fits
    under the right endpoint ``(1-pi)/m``); the right endpoint holds as many
    full slots as fit plus the exact remainder.  The head is ``m - 1``
    copies of ``p`` plus the balancing entry.  ``slots`` limits the
    junctions to those counts (default every ``s = 1..n-m``).
    """
    return float(_mp_junction_min(n, m, pi, slots))


def mp_h_min(n, m, pi):
    """50-digit ``H_min`` at a float or mpf tail mass, as an mpf.

    The staircase for ``m = 1``; otherwise the right endpoint and the
    junctions of :func:`near_min_slots`.
    """
    if _mp(pi) <= 0 or m == n:
        return mpf(0)
    if m == 1:
        return _mp_staircase(n, pi)
    return _mp_junction_min(n, m, pi, near_min_slots(n, m, pi).tolist())


def _mp_junction_min(n, m, pi, slots):
    pi = _mp(pi)
    hi = (1 - pi) / m

    def bits(p, tail):
        return _mp_fe_near_one(pi + (m - 1) * p) - (m - 1) * p * mp_log2(p) + tail

    copies = min(int(mp.floor(pi / hi)), n - m)
    rest = pi - copies * hi
    best = bits(hi, -copies * hi * mp_log2(hi) - (rest * mp_log2(rest) if rest > 0 else 0))
    for s in range(1, n - m + 1) if slots is None else slots:
        p = pi / s
        if p <= hi:
            best = min(best, bits(p, -pi * mp_log2(p)))
    return best


def scan_min_entropy_values(n, m, pis) -> np.ndarray:
    """``H_min`` by scanning every junction ``s = 1..n-m`` for each pi.

    The earlier library kernel, kept as the reference for the few-junction
    one: the right endpoint through the library's candidate kernel, then,
    for ``m >= 2``, each junction ``pi/s`` valid under ``pi/s <= (1-pi)/m``
    with the same float expression (the head's term through the library's
    ``log1p`` form), in chunks of at most ``2**22`` cells.
    """
    pis = np.clip(np.asarray(pis, dtype=float), 0.0, (n - m) / n)
    out = np.zeros(pis.shape)
    if m == n:
        return out
    active = pis > 0.0
    if not active.any():
        return out
    pa = pis[active]
    best = _candidate_entropies(n, m, pa, (1.0 - pa) / m)
    # capped at H_max at the double ceiling, where the two curves meet
    at = pa >= (n - m) / n
    best[at] = np.minimum(best[at], max_entropy_values(n, m, pa[at]))
    if m == 1:  # the staircase majorizes every junction
        out[active] = np.maximum(best, 0.0)
        return out
    js = np.arange(1, n - m + 1)
    slots = (n - m - js + 1).astype(float)
    block = max(1, (1 << 22) // len(js))
    for start in range(0, pa.size, block):
        chunk = pa[start : start + block, None]
        ph_j = chunk / slots[None, :]
        moved = chunk + (m - 1) * ph_j  # mass outside the head's balancing entry
        vals = (n - js)[None, :] * entropy_terms(ph_j) + complement_entropy_terms(moved)
        hi = (1.0 - chunk) / m
        vals = np.where(ph_j <= hi, vals, np.inf)
        best[start : start + block] = np.minimum(
            best[start : start + block], vals.min(axis=1)
        )
    out[active] = np.maximum(best, 0.0)
    return out


def near_min_slots(n, m, pi) -> np.ndarray:
    """Junction counts whose entropy a float scan puts within 1e-9 (relative) of the lowest.

    Scans every ``s = 1..n-m`` with plain numpy; the head entry's term is
    taken through ``log1p``, so each value keeps its relative precision at
    any ``pi``.  The 50-digit minimum only needs these junctions.
    """
    pi = float(pi)
    s = np.arange(1, n - m + 1, dtype=float)
    s = s[(pi / s > 0.0) & (pi / s <= (1.0 - pi) / m)]  # an underflowed pi/s holds no mass
    if not s.size:
        return s.astype(int)
    p = pi / s
    moved = pi + (m - 1) * p  # mass outside the head's balancing entry
    vals = -(m - 1 + s) * p * np.log2(p) - (1.0 - moved) * np.log1p(-moved) / math.log(2)
    return s[vals <= vals.min() * (1.0 + 1e-9)].astype(int)


def _mp_bisect(below, top):
    """The crossing in ``(0, top]`` of a predicate true below it, to 1e-30 relative.

    Bisects geometrically from ``1e-330``, under the least positive double,
    so every tail mass gets the same relative precision.
    """
    lo, hi = mpf(10) ** -330, mpf(top)
    while hi / lo - 1 > mpf(10) ** -30:
        mid = mp.sqrt(lo * hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return hi


def mp_invert_lower(n, m, h):
    """50-digit least tail mass whose maximum entropy reaches ``h``, by bisection."""
    h, top = mpf(float(h)), mpf(n - m) / n
    if h <= mp_log2(m):
        return mpf(0)
    if h >= mp_log2(n):
        return top
    return _mp_bisect(lambda pi: mp_h_max(n, m, pi) < h, top)


def mp_invert_upper(n, m, h):
    """50-digit greatest tail mass whose minimum entropy stays at or below ``h``, by bisection."""
    h, top = mpf(float(h)), mpf(n - m) / n
    if h <= 0 or m == n:
        return mpf(0)
    if mp_h_min(n, m, top) <= h:
        return top
    return _mp_bisect(lambda pi: mp_h_min(n, m, pi) <= h, top)


def chain_probability(probs, order) -> float:
    """Without-replacement chain product, plain Python floats."""
    remaining = 1.0
    out = 1.0
    for idx in order:
        out *= probs[idx] / remaining
        remaining -= probs[idx]
    return out


def _mp_chain(values, total, order):
    remaining = total
    chain = mpf(1)
    for idx in order:
        chain *= values[idx] / remaining
        remaining -= values[idx]
    return chain


def mp_chain(probs, order) -> float:
    """50-digit without-replacement mass of drawing ``order`` in that order.

    The mass remaining before each draw is the exact sum of the entries
    not yet drawn, so the entries need not sum to exactly 1.
    """
    values = [mpf(repr(float(p))) for p in probs]
    return float(_mp_chain(values, mp.fsum(values), order))


def mp_unique_composite(probs, members) -> float:
    """50-digit without-replacement mass of one k-combination.

    Sums the chain (see :func:`mp_chain`) over every ordering of
    ``members``.
    """
    values = [mpf(repr(float(p))) for p in probs]
    total = mp.fsum(values)
    out = mpf(0)
    for order in itertools.permutations(members):
        out += _mp_chain(values, total, order)
    return float(out)


def feasible_batch(
    n: int, m: int, pi: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of sorted distributions with head mass 1-pi and tail mass pi.

    Independent reimplementation of the blend-to-flat construction: head
    and tail segments are sorted Dirichlet draws scaled to their masses;
    junction violations are repaired by blending toward the flat point,
    which preserves segment sums and sortedness.
    """
    head = np.sort(rng.dirichlet(np.ones(m), size=count), axis=1)[:, ::-1] * (1.0 - pi)
    if m == n:
        return head
    if pi <= 0.0:
        tail = np.zeros((count, n - m))
    else:
        tail = np.sort(rng.dirichlet(np.ones(n - m), size=count), axis=1)[:, ::-1] * pi
    flat_head = (1.0 - pi) / m
    flat_tail = pi / (n - m)
    overlap = tail[:, 0] - head[:, -1]
    gap = flat_head - flat_tail
    denom = gap + np.maximum(overlap, 0.0)
    lam = np.where(overlap > 0.0, np.where(denom > 0.0, gap / np.maximum(denom, 1e-300), 0.0), 1.0)
    head = lam[:, None] * head + (1.0 - lam[:, None]) * flat_head
    tail = lam[:, None] * tail + (1.0 - lam[:, None]) * flat_tail
    return np.concatenate([head, tail], axis=1)


def batch_entropy(rows: np.ndarray) -> np.ndarray:
    """Row-wise entropy with plain numpy (independent of the library)."""
    safe = np.where(rows > 1e-300, rows, 1.0)
    return -(np.where(rows > 1e-300, rows * np.log2(safe), 0.0)).sum(axis=1)


def branch_head_entropy(p_hat: float, m: int, pi: float) -> float:
    """Literal head closed form: (m-1) repeats plus the balancing entry."""
    rest = (1.0 - pi) - (m - 1) * p_hat
    out = 0.0
    if p_hat > 0:
        out += -(m - 1) * p_hat * math.log2(p_hat)
    if rest > 1e-15:
        out += -rest * math.log2(rest)
    return out


def branch_tail_entropy(p_hat: float, n: int, m: int, pi: float) -> float:
    """Literal branch table for the tail entropy.

    Branch c (c full slots of p_hat) applies on (pi/(c+1), pi/c]; the left
    endpoint pi/(n-m) is the uniform-tail branch.
    """
    slots = n - m
    if abs(p_hat - pi / slots) < 1e-11:
        return -slots * p_hat * math.log2(p_hat)
    for c in range(slots - 1, 0, -1):
        if pi / (c + 1) < p_hat <= pi / c + 1e-15:
            rest = pi - c * p_hat
            out = -c * p_hat * math.log2(p_hat)
            if rest > 1e-11:
                out += -rest * math.log2(rest)
            return out
    return -pi * math.log2(pi) if pi > 0 else 0.0  # p_hat > pi: single remainder


def reference_analytic(n, m, h):
    """Scalar analytic bounds at a clamped entropy, one entropy at a time.

    Returns ``(lb, ub, lb_raw, ub_raw, clamped, (psi_lb, psi_ub))`` from the
    plain formulas, a hand-written clamp and its flags.
    """
    if 2 * m >= n:
        lb_raw = 0.0
    else:
        lb_raw = (h - 1.0 - math.log2(m)) / math.log2(n / m - 1.0)
    entries = []
    if m < n:
        js = np.arange(1, n - m + 1)
        slots = (n - m - js + 1).astype(float)
        vals = h * slots / ((n - js) * np.log2(n * slots / (n - m)))
        entries.append(float(vals.max()))
    if m >= 2:
        entries.append(1.0 - h / math.log2(m))
    ub_raw = max(entries) if entries else 0.0
    top = (n - m) / n
    clamped = []
    lb = lb_raw
    if lb < 0.0:
        lb = 0.0
        clamped.append("pi_lb_analytic_at_floor")
    if lb > top:
        lb = top
        clamped.append("pi_lb_analytic_at_ceiling")
    ub = ub_raw
    if ub > top:
        ub = top
        clamped.append("pi_ub_analytic_at_ceiling")
    if ub < lb:
        ub = lb
        clamped.append("pi_ub_analytic_at_floor")
    psi = (min(max(1.0 - ub, m / n), 1.0), min(max(1.0 - lb, m / n), 1.0))
    return lb, ub, lb_raw, ub_raw, tuple(clamped), psi


def reference_sweep_shape(config, shape_index, tol):
    """The sweep of one shape, record by record, with scalar bound calls.

    Samples through ``selbounds.oracle.sample_distribution``, which draws
    through the module's ``_draw_weights``, so a patched draw acts here as
    in the library; any failure makes a NaN record.
    """
    n, m = config.shapes[shape_index]
    inverter = TightInverter(n, m)
    nan = float("nan")
    out = []
    for scenario_id in range(config.scenarios_per_shape):
        rng = oracle.derive_rng(config.seed, shape_index, scenario_id)
        try:
            dist = oracle.sample_distribution(n, config.sampler, rng)
            h = entropy(dist)
            pi_obs = tail_probability(dist, m)
            h_c = min(max(h, 0.0), math.log2(n))
            lb, ub = reference_analytic(n, m, h_c)[:2]
            lt, ut = inverter.lower(h_c), inverter.upper(h_c)
        except Exception:
            out.append(oracle.SweepRecord(scenario_id, n, m, nan, nan, nan, nan, nan, nan, True))
            continue
        violation = not (lb - tol <= pi_obs <= ub + tol)
        out.append(oracle.SweepRecord(scenario_id, n, m, h, pi_obs, lb, ub, lt, ut, violation))
    return out


def reference_summary(records):
    """The sweep summary of a list of records, record by record, with ``np.median``."""
    gaps = {kind: {"m_lt_half": [], "m_ge_half": []} for kind in ("analytic", "tight")}
    per_shape = {}
    for r in records:
        if not math.isfinite(r.entropy_bits):
            continue
        regime = "m_ge_half" if 2 * r.m >= r.n else "m_lt_half"
        bucket = per_shape.setdefault((r.n, r.m), {"analytic": [], "tight": []})
        for kind, gap in (("analytic", r.pi_ub_analytic - r.pi_lb_analytic),
                          ("tight", r.pi_ub_tight - r.pi_lb_tight)):
            gaps[kind][regime].append(gap)
            bucket[kind].append(gap)

    def block(by_regime):
        out = {}
        for regime, values in by_regime.items():
            finite = [g for g in values if math.isfinite(g)]
            out[regime] = {
                "records": len(values),
                "mean": float(np.mean(finite)) if finite else None,
                "median": float(np.median(finite)) if finite else None,
            }
        return out

    return {
        "total": len(records),
        "violations": sum(bool(r.violation) for r in records),
        "failures": sum(not math.isfinite(r.entropy_bits) for r in records),
        "gap_stats": {
            "analytic": block(gaps["analytic"]),
            "tight": block(gaps["tight"]),
            "per_shape": [
                {
                    "n": n, "m": m, "regime": "m_ge_half" if 2 * m >= n else "m_lt_half",
                    "mean_gap_analytic": float(np.mean(b["analytic"])),
                    "median_gap_analytic": float(np.median(b["analytic"])),
                    "mean_gap_tight": float(np.mean(b["tight"])),
                    "median_gap_tight": float(np.median(b["tight"])),
                }
                for (n, m), b in sorted(per_shape.items())
            ],
        },
    }
