"""The four benchmark workloads: generated inputs, CLI invocations, checks.

Each workload is a closed loop with one client: its invocations run one
after another and a *round* is one pass over them.  Inputs are generated
from the benchmark seed alone; the CLI only ever sees the files written
here.  ``check`` validates one round's outputs against the independent
formulas in :mod:`reference` and returns the work items the round did.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

#: The eight (n, m) shapes of ``sweep --paper-figs``, 100 scenarios each.
PAPER_SHAPES = ((20, 6), (30, 20), (50, 15), (100, 60), (200, 40),
                (500, 300), (1000, 400), (1500, 1000))
PAPER_SCENARIOS = 100

#: Monte Carlo draws in the ``requirement`` scenario, so sampling is a
#: visible share of that invocation next to its bound computation.
SCENARIO_TRIALS = 3_000_000


@dataclass
class Output:
    """What one CLI invocation left behind."""

    returncode: int
    out: bytes
    stderr: bytes


@dataclass
class Verdict:
    """Outcome of checking one round: named checks plus the work done."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    items: int = 0
    records: int = 0
    bad_records: int = 0

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


@dataclass
class Workload:
    name: str
    #: label -> CLI arguments (without ``--out``), in run order.
    invocations: dict[str, list[str]]
    check: Callable[[dict[str, Output]], Verdict]


def power_law_weights(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    """Rank ``i`` gets ``i**-s`` times a seeded jitter in [0.95, 1.05)."""
    return np.arange(1, n + 1, dtype=float) ** (-s) * rng.uniform(0.95, 1.05, n)


def write_weights(path: Path, weights: np.ndarray) -> None:
    path.write_text("".join(f"{float(w)!r}\n" for w in weights), encoding="utf-8")


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line]


# --------------------------------------------------------------------- sweep

def sweep(seed: int, tmp: Path) -> Workload:
    def check(outs: dict[str, Output]) -> Verdict:
        v = Verdict()
        out = outs["sweep"]
        header, *rows = _rows(out.out.decode())
        summary = json.loads(out.stderr.decode())
        total = len(PAPER_SHAPES) * PAPER_SCENARIOS
        v.items = v.records = len(rows)
        v.add("sweep.records", len(rows) == total, f"{len(rows)} of {total}")
        v.add("sweep.summary", summary["total"] == total and summary["violations"] == 0
              and summary["failures"] == 0,
              f"total={summary['total']} violations={summary['violations']} "
              f"failures={summary['failures']}")
        bad = sandwich = replay = analytic = tight = 0
        for idx, row in enumerate(rows):
            sid, n, m = int(row[0]), int(row[1]), int(row[2])
            h, pi, lba, uba, lbt, ubt = (float(x) for x in row[3:9])
            shape_index, scenario = divmod(idx, PAPER_SCENARIOS)
            if (n, m) != PAPER_SHAPES[shape_index] or sid != scenario:
                bad += 1
                continue
            if row[9] != "false" or not all(map(math.isfinite, (h, pi, lba, uba, lbt, ubt))):
                bad += 1
                continue
            tol = 1e-9
            sandwich += not (lbt - tol <= pi <= ubt + tol and lba - tol <= pi <= uba + tol)
            rh, rpi = ref.sweep_scenario(seed, shape_index, scenario, n, m)
            replay += not (ref.close(h, rh) and ref.close(pi, rpi))
            rlb, rub = ref.analytic_bounds(n, m, h)
            analytic += not (ref.close(lba, rlb, abs_=ref.ABS_PI) and ref.close(uba, rub, abs_=ref.ABS_PI))
            tight += bool(ref.tight_residuals(n, m, h, lbt, ubt))
        v.bad_records = bad
        v.add("sweep.record_ok", bad == 0, f"{bad} records with violation or failure")
        v.add("sweep.tight_sandwich", sandwich == 0, f"{sandwich} records outside the tight interval")
        v.add("sweep.reference_inputs", replay == 0, f"{replay} entropy/pi_observed mismatches")
        v.add("sweep.reference_analytic", analytic == 0, f"{analytic} analytic-bound mismatches")
        v.add("sweep.reference_tight", tight == 0, f"{tight} tight bounds off their curve")
        return v

    argv = ["sweep", "--paper-figs", "--seed", str(seed), "--format", "csv", "--threads", "1"]
    return Workload("sweep", {"sweep": argv}, check)


# --------------------------------------------------------------- requirement

def _check_report(v: Verdict, label: str, rep: dict, expect: dict) -> None:
    n, m, h, pi = rep["n"], rep["m"], rep["entropy_bits"], rep["pi_observed"]
    b = rep["pi"]
    tol = 1e-9
    v.add(f"{label}.size", (n, m) == (expect["n"], expect["m"]), f"n'={n} m'={m}")
    v.add(f"{label}.reference_system",
          ref.close(h, expect["entropy_bits"]) and ref.close(pi, expect["pi_observed"]),
          f"h={h!r} ref {expect['entropy_bits']!r}; pi={pi!r} ref {expect['pi_observed']!r}")
    rlb, rub = ref.analytic_bounds(n, m, h)
    v.add(f"{label}.reference_analytic",
          ref.close(b["lb_analytic"], rlb, abs_=ref.ABS_PI)
          and ref.close(b["ub_analytic"], rub, abs_=ref.ABS_PI),
          f"({b['lb_analytic']!r}, {b['ub_analytic']!r}) ref ({rlb!r}, {rub!r})")
    problems = ref.tight_residuals(n, m, h, b["lb_tight"], b["ub_tight"])
    v.add(f"{label}.reference_tight", not problems, "; ".join(problems))
    v.add(f"{label}.encloses",
          b["lb_analytic"] - tol <= pi <= b["ub_analytic"] + tol
          and b["lb_tight"] - tol <= pi <= b["ub_tight"] + tol,
          f"pi_observed={pi!r}")


def requirement(seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    w60 = power_law_weights(rng, 60, 1.0)
    w40 = power_law_weights(rng, 40, 0.8)
    write_weights(tmp / "W60.txt", w60)
    write_weights(tmp / "W40.txt", w40)
    (tmp / "multiuser.cfg").write_text(
        "kind = cache_multiuser\nn = 40\nm = 8\nk = 3\nweights_file = W40.txt\n"
        f"trials = {SCENARIO_TRIALS}\nseed = {seed}\n", encoding="utf-8")

    def check(outs: dict[str, Output]) -> Verdict:
        v = Verdict()
        bounds = json.loads(outs["bounds"].out)
        scen = json.loads(outs["scenario"].out)
        ref_b = ref.composite_system(w60, 10, 3, "unique")
        ref_s = ref.composite_system(w40, 8, 3, "repeated")
        _check_report(v, "bounds", bounds, ref_b)
        _check_report(v, "scenario", scen, ref_s)
        v.add("scenario.within_bounds", scen["within_bounds"] is True, "")
        exact = 1.0 - ref_s["selected_mass"]
        v.add("scenario.exact_rate", ref.close(scen["exact_rate"], exact),
              f"{scen['exact_rate']!r} ref {exact!r}")
        # Six standard errors: a seeded draw this far off is a defect, not chance.
        sigma = math.sqrt(exact * (1.0 - exact) / SCENARIO_TRIALS)
        emp = scen["empirical_rate"]
        v.add("scenario.monte_carlo", scen["trials"] == SCENARIO_TRIALS
              and abs(emp - exact) <= 6 * sigma, f"empirical={emp!r} exact={exact!r}")
        v.items = bounds["n"] + scen["n"]
        return v

    return Workload("requirement", {
        "bounds": ["bounds", "--dist", str(tmp / "W60.txt"), "--m", "10", "--k", "3",
                   "--mode", "unique"],
        "scenario": ["scenario", "--config", str(tmp / "multiuser.cfg"), "--seed", str(seed)],
    }, check)


# ----------------------------------------------------------------- transform

def transform(seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    w200 = power_law_weights(rng, 200, 1.0)
    write_weights(tmp / "W200.txt", w200)
    n, m, k = 200, 20, 3

    def check(outs: dict[str, Output]) -> Verdict:
        v = Verdict()
        text = outs["transform"].out.decode()
        first, columns, body = text.split("\n", 2)
        head = json.loads(first[2:])
        table = np.fromstring(
            body.rstrip("\n").replace("+", ",").replace("true", "1")
            .replace("false", "0").replace("\n", ","), sep=",").reshape(-1, k + 2)
        ids = table[:, :k].astype(np.int64)
        probs = table[:, k]
        flags = table[:, k + 1].astype(bool)
        want = math.comb(n, k)
        v.items = len(probs)
        v.add("transform.rows", len(probs) == want == head["n_prime"]
              and head["m_prime"] == math.comb(m, k), f"{len(probs)} rows of {want}")
        key = np.sort(ids, axis=1) @ np.array([n * n, n, 1])
        v.add("transform.all_combinations",
              ids.min() >= 0 and ids.max() < n and len(np.unique(key)) == want
              and (np.diff(np.sort(ids, axis=1), axis=1) > 0).all(), "")
        v.add("transform.non_increasing", bool((np.diff(probs) <= 0).all()), "")
        total = math.fsum(probs)
        v.add("transform.sums_to_one", abs(total - 1.0) <= 1e-9, f"sum={total!r}")
        p_in = w200 / w200.sum()
        expect = ref.unique_composites(p_in, ids)
        dev = float(np.max(np.abs(probs - expect) / expect))
        v.add("transform.reference_probabilities", dev <= ref.REL_12, f"max rel dev {dev:.3g}")
        top = np.argsort(-p_in, kind="stable")[:m]
        v.add("transform.selected_flags", bool((np.isin(ids, top).all(axis=1) == flags).all()), "")
        h = ref.entropy_bits(expect)
        v.add("transform.reference_entropy", ref.close(head["entropy_bits"], h),
              f"{head['entropy_bits']!r} ref {h!r}")
        return v

    return Workload("transform", {
        "transform": ["transform", "--dist", str(tmp / "W200.txt"), "--m", str(m),
                      "--k", str(k), "--mode", "unique", "--format", "csv"],
    }, check)


# ------------------------------------------------------------------ extremal

def extremal(seed: int, tmp: Path) -> Workload:
    n, m = 10_000, 1_000
    pi = round(0.3 + 1e-3 * float(np.random.default_rng([seed, 4]).random()), 9)

    def check(outs: dict[str, Output]) -> Verdict:
        v = Verdict()
        first, *lines = outs["extrema"].out.decode().splitlines()
        meta = dict(tok.split("=") for tok in first[2:].split())
        h = float(meta["entropy_bits"])
        probs = np.array(lines, dtype=float)
        v.add("extrema.size", len(probs) == n and int(meta["n"]) == n and int(meta["m"]) == m,
              f"{len(probs)} entries")
        v.add("extrema.sums_to_one", abs(math.fsum(probs) - 1.0) <= 1e-9, "")
        v.add("extrema.non_increasing", bool((np.diff(probs) <= 0).all()), "")
        v.add("extrema.head_mass", abs(math.fsum(probs[:m]) - (1.0 - pi)) <= 1e-9, "")
        v.add("extrema.entropy_of_probs", ref.close(ref.entropy_bits(probs), h), "")
        hmin = ref.h_min(n, m, pi)
        v.add("extrema.reference_min", abs(h - hmin) <= 1e-9, f"{h!r} ref {hmin!r}")
        rows = _rows(outs["curve"].out.decode())[1:]
        p_hat = np.array([float(r[0]) for r in rows])
        bits = np.array([float(r[1]) for r in rows])
        junction = np.array([r[3] == "true" for r in rows])
        v.add("curve.ordered", bool((np.diff(p_hat) >= 0).all()), "")
        v.add("curve.min_below_samples", bool((h <= bits + 1e-9).all()),
              f"min sample {float(bits.min())!r} vs min entropy {h!r}")
        v.add("curve.min_at_junction", abs(bits[junction].min() - h) <= 1e-9, "")
        v.items = int(junction.sum()) + len(rows)
        return v

    shape = ["--n", str(n), "--m", str(m), "--pi", repr(pi)]
    return Workload("extremal", {
        "extrema": ["extrema", *shape, "--which", "min", "--format", "csv"],
        "curve": ["curve", *shape, "--samples", "200", "--format", "csv"],
    }, check)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "sweep": sweep,
    "requirement": requirement,
    "transform": transform,
    "extremal": extremal,
}
