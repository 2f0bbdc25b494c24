"""Reference values the benchmark checks the CLI's outputs against.

Everything here is written from the paper's formulas with plain NumPy and
imports nothing from ``selbounds``, so a later change to the package
cannot move the reference along with the output it is compared to.  At
the commit that introduced the benchmark every workload agreed with these
values within the tolerances below.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Probabilities at or below this count as exact zeros (``0 log 0 = 0``).
ZERO = 1e-15
#: Remainders of a tail split within this of 0 or of a full slot are snapped.
SNAP = 1e-12
#: Relative tolerance for values the CLI prints to 12 significant digits.
REL_12 = 1e-9
#: Absolute tolerance for a tail mass computed from a 12-digit entropy.
ABS_PI = 1e-10
#: Absolute tolerance, in bits, for inverting an extremal-entropy curve.
INVERSION_BITS = 1e-6


def close(a: float, b: float, rel: float = REL_12, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def fe(x):
    """Elementwise ``-x log2 x`` with zeros and negatives contributing 0."""
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    safe = np.where(x > ZERO, x, 1.0)
    return np.where(x > ZERO, -x * np.log2(safe), 0.0)


def entropy_bits(probs) -> float:
    return float(fe(probs).sum())


def normalize_sorted(weights) -> np.ndarray:
    """Weights scaled to sum 1, in non-increasing order (ties keep input order)."""
    p = np.asarray(weights, dtype=float)
    p = p / p.sum()
    return p[np.argsort(-p, kind="stable")]


def h_max(n: int, m: int, pi: float) -> float:
    """Maximum entropy at shape (n, m, pi): flat head, flat tail."""
    value = (1.0 - pi) * math.log2(m / (1.0 - pi))
    if pi > ZERO:
        value += pi * math.log2((n - m) / pi)
    return value


def h_min(n: int, m: int, pi: float) -> float:
    """Minimum entropy at shape (n, m, pi) over the candidate ``p_hat`` set.

    Junction candidates ``pi / s`` (``s`` full tail slots) and the right
    endpoint ``(1 - pi) / m``.
    """
    if m == n or pi < SNAP:
        return 0.0
    hi = (1.0 - pi) / m
    copies = math.floor(pi / hi)
    rem = pi - copies * hi
    if rem > hi - SNAP:
        copies, rem = copies + 1, 0.0
    elif rem < SNAP:
        rem = 0.0
    best = float((m + copies) * fe(hi) + fe(rem))
    slots = np.arange(n - m, 0, -1, dtype=float)  # s = n-m-j+1 for j = 1..n-m
    p_hat = pi / slots
    ok = p_hat <= hi + SNAP
    if ok.any():
        vals = (m - 1 + slots[ok]) * fe(p_hat[ok]) + fe(1.0 - pi - (m - 1) * p_hat[ok])
        best = min(best, float(vals.min()))
    return max(best, 0.0)


def analytic_bounds(n: int, m: int, h: float) -> tuple[float, float]:
    """Clamped closed-form (lower, upper) bounds on the tail mass at entropy h."""
    top = (n - m) / n
    lb = 0.0 if 2 * m >= n else (h - 1.0 - math.log2(m)) / math.log2(n / m - 1.0)
    lb = min(max(lb, 0.0), top)
    entries = []
    if m < n:
        j = np.arange(1, n - m + 1)
        s = (n - m - j + 1).astype(float)
        entries.append(float((h * s / ((n - j) * np.log2(n * s / (n - m)))).max()))
    if m >= 2:
        entries.append(1.0 - h / math.log2(m))
    ub = max(entries) if entries else 0.0
    return lb, max(min(ub, top), lb)


def tight_residuals(n: int, m: int, h: float, lb: float, ub: float) -> list[str]:
    """Ways the tight (lb, ub) fail to invert H_max / H_min at h; empty if none.

    ``lb`` must reach ``H_max = h`` unless clamped at 0 or at the ceiling;
    ``ub`` must satisfy ``H_min(ub) <= h`` and sit on the crossing unless
    it is the ceiling itself.
    """
    top = (n - m) / n
    problems = []
    if lb > SNAP and lb < top - SNAP and abs(h_max(n, m, lb) - h) > INVERSION_BITS:
        problems.append(f"H_max(lb_tight)={h_max(n, m, lb)!r} != h={h!r}")
    if lb <= SNAP and m < n and h > math.log2(m) + INVERSION_BITS:
        problems.append(f"lb_tight=0 but h={h!r} > log2(m)")
    hu = h_min(n, m, ub)
    if hu > h + INVERSION_BITS:
        problems.append(f"H_min(ub_tight)={hu!r} > h={h!r}")
    if ub < top - SNAP and hu < h - INVERSION_BITS:
        problems.append(f"H_min(ub_tight)={hu!r} < h={h!r} below the ceiling")
    return problems


def unique_composites(p: np.ndarray, members: np.ndarray) -> np.ndarray:
    """k-combination probabilities: the without-replacement chain summed over orderings."""
    q = p[members]
    total = np.zeros(len(members))
    for order in itertools.permutations(range(members.shape[1])):
        chain = np.ones(len(members))
        left = np.ones(len(members))
        for col in order:
            chain *= q[:, col] / left
            left = left - q[:, col]
        total += chain
    return total


def repeated_composites(p: np.ndarray, members: np.ndarray) -> np.ndarray:
    """k-multiset probabilities: multinomial coefficient times the product."""
    k = members.shape[1]
    coeff = np.full(len(members), float(math.factorial(k)))
    s = np.sort(members, axis=1)
    run = np.ones(len(members))
    for j in range(1, k):
        run = np.where(s[:, j] == s[:, j - 1], run + 1, 1.0)
        coeff /= run
    return coeff * p[members].prod(axis=1)


def composite_system(weights, m: int, k: int, mode: str) -> dict:
    """Entropy and sorted tail mass of a k-composite system over ``weights``."""
    p = normalize_sorted(weights)
    n = len(p)
    if mode == "unique":
        combos = itertools.combinations(range(n), k)
        n_prime, m_prime, fn = math.comb(n, k), math.comb(m, k), unique_composites
    else:
        combos = itertools.combinations_with_replacement(range(n), k)
        n_prime, m_prime = math.comb(n + k - 1, k), math.comb(m + k - 1, k)
        fn = repeated_composites
    members = np.fromiter(itertools.chain.from_iterable(combos), np.int64, n_prime * k)
    members = members.reshape(n_prime, k)
    probs = np.sort(fn(p, members))[::-1]
    return {
        "n": n_prime,
        "m": m_prime,
        "entropy_bits": entropy_bits(probs),
        "pi_observed": float(probs[m_prime:].sum()),
        "selected_mass": float(p[:m].sum()) ** k if mode == "repeated" else None,
    }


def sweep_scenario(seed: int, shape_index: int, scenario_id: int, n: int, m: int):
    """Entropy and tail mass of one ``sweep`` scenario, replayed from its seed.

    Each scenario draws ``n`` Gamma(1) weights from the Philox stream keyed
    by ``(seed, shape_index, scenario_id)``; this is the documented seeding
    scheme that makes sweep output byte-identical across runs.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(shape_index, scenario_id))
    weights = np.random.Generator(np.random.Philox(ss)).standard_gamma(1.0, size=n)
    p = normalize_sorted(weights)
    return entropy_bits(p), float(p[m:].sum())
