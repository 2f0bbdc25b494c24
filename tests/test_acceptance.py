"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest
from mpmath import mpf

import selbounds as sb
from selbounds.cli import main as cli_main
from helpers import batch_entropy, chain_probability, feasible_batch


def _report(index: int, name: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {index}. {name}: PASS ({detail})")


def test_criterion_1_reference_sweep_zero_violations(capsys):
    """Eight reference shapes x 100 scenarios: no bound violations, < 60 s."""
    start = time.monotonic()
    code = cli_main(["sweep", "--paper-figs", "--seed", "42", "--format", "csv"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.strip().split("\n")
    assert len(rows) == 801  # header + 8 shapes x 100 scenarios
    assert all(row.endswith(",false") for row in rows[1:])
    summary = json.loads(captured.err)
    assert summary["total"] == 800
    assert summary["violations"] == 0
    assert summary["failures"] == 0
    gaps = summary["gap_stats"]
    for family in ("analytic", "tight"):
        for regime in ("m_lt_half", "m_ge_half"):
            block = gaps[family][regime]
            assert block["records"] == 400
            assert math.isfinite(block["mean"]) and math.isfinite(block["median"])
    assert elapsed < 60.0
    with capsys.disabled():
        _report(
            1, "reference sweep",
            f"800 records, 0 violations, gap split emitted, {elapsed:.1f}s",
        )


def test_criterion_2_max_entropy_exactness(capsys):
    """Closed form equals construction to 1e-10; no feasible sample beats it."""
    rng = np.random.default_rng(2)
    worst_gap = 0.0
    worst_excess = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, n + 1))
        pi = float(rng.uniform(0.0, (n - m) / n)) if m < n else 0.0
        shape = sb.SystemShape(n, m, pi)
        closed = sb.max_entropy(shape)
        built = sb.entropy(sb.max_entropy_distribution(shape))
        worst_gap = max(worst_gap, abs(closed - built))
        assert abs(closed - built) <= 1e-10
        rows = feasible_batch(n, m, pi, 1000, rng)
        excess = float(batch_entropy(rows).max()) - closed
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-9
    with capsys.disabled():
        _report(
            2, "max-entropy exactness",
            f"1000 shapes x 1000 samples; |closed-built| <= {worst_gap:.2e}, "
            f"max excess {worst_excess:.2e}",
        )


def test_criterion_3_min_entropy_oracle_equivalence(capsys):
    """Exact discrete min equals the vertex-scan oracle and sits above the entropy floor."""
    start = time.monotonic()
    cases = 0
    for n in range(1, 9):
        for m in range(1, n + 1):
            top = (n - m) / n
            grid = np.linspace(0.0, top, 50) if top > 0 else np.asarray([0.0])
            for pi in grid:
                shape = sb.SystemShape(n, m, float(pi))
                exact = sb.min_entropy(shape).min_entropy_bits
                found = sb.oracle_min_entropy(shape)
                floor = sb.entropy_lower_bound(shape)
                assert abs(exact - found) <= 1e-12 * found
                assert exact >= floor - 1e-9
                cases += 1
            if m == 1:
                for pi in np.linspace(0.0, (n - 1) / n, 50) if n > 1 else [0.0]:
                    shape = sb.SystemShape(n, 1, float(pi))
                    stair = sb.min_entropy_m1(n, float(pi))
                    general = sb.min_entropy(shape).argmin_distribution
                    assert np.allclose(stair.probs, general.probs, atol=1e-12, rtol=0)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    with capsys.disabled():
        _report(
            3, "min-entropy oracle equivalence",
            f"{cases} (n,m,pi) cases within 1e-12 relative, m=1 staircase identical, "
            f"{elapsed:.1f}s",
        )


def test_criterion_4_curve_reference_shape(capsys):
    """Junction markers at the eight candidate points; concave segments."""
    code = cli_main(
        ["curve", "--n", "15", "--m", "5", "--pi", "0.4", "--format", "csv"]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    junctions = [float(r[0]) for r in rows if r[3] == "true"]
    expected = [0.4 / 10, 0.4 / 9, 0.4 / 8, 0.4 / 7, 0.4 / 6, 0.4 / 5, 0.4 / 4, 0.12]
    assert len(junctions) == 8
    assert np.allclose(junctions, expected, atol=1e-9)
    # interior junction tails are uniform: entropy contribution -pi*log2(p)
    shape = sb.SystemShape(15, 5, 0.4)
    for p_hat in expected[:-1]:
        tail = sb.assemble_min_candidate(shape, p_hat).probs[5:]
        tail_bits = float(batch_entropy(np.asarray(tail)[None, :])[0])
        assert abs(tail_bits - (-0.4 * math.log2(p_hat))) <= 1e-9
    # piecewise concavity: within each segment slopes are non-increasing
    by_segment: dict[int, list[tuple[float, float]]] = {}
    for r in rows:
        by_segment.setdefault(int(r[2]), []).append((float(r[0]), float(r[1])))
    checked_segments = 0
    for points in by_segment.values():
        points.sort()
        if len(points) < 3:
            continue
        checked_segments += 1
        for (x0, y0), (x1, y1), (x2, y2) in zip(points, points[1:], points[2:]):
            assert (y2 - y1) / (x2 - x1) <= (y1 - y0) / (x1 - x0) + 1e-7
    assert checked_segments >= 3
    with capsys.disabled():
        _report(
            4, "entropy curve",
            f"8 junction markers at candidates, {checked_segments} concave segments",
        )


def test_criterion_5_transform_oracle(capsys):
    """Composite probabilities equal total enumeration; counts exact."""
    rng = np.random.default_rng(5)
    worst = 0.0
    combos = 0
    for n in range(1, 7):
        for k in range(1, min(3, n) + 1):
            report = sb.oracle_transform_check(n, k, 100, sb.derive_rng(50 + n, k))
            worst = max(
                worst,
                report["max_abs_deviation_unique"],
                report["max_abs_deviation_repeated"],
            )
            assert report["max_abs_deviation_unique"] <= 1e-12
            assert report["max_abs_deviation_repeated"] <= 1e-12
            combos += 1
            # count identities for a random valid selection size
            m = int(rng.integers(k, n + 1))
            d = sb.make_distribution(rng.random(n) + 1e-3)
            tu = sb.transform_unique(d, m, k)
            assert tu.n_prime == math.comb(n, k)
            assert tu.m_prime == math.comb(m, k) == int(tu.in_selected.sum())
            tr = sb.transform_repeated(d, m, k)
            assert tr.n_prime == math.comb(n + k - 1, k)
            assert tr.m_prime == math.comb(m + k - 1, k) == int(tr.in_selected.sum())
    with capsys.disabled():
        _report(
            5, "transform oracle",
            f"{combos} (n,k) combos x 100 draws, max deviation {worst:.2e}",
        )


def test_criterion_6_end_to_end_requirement_bounds(capsys, monkeypatch):
    """Transformed exact error/merit always inside the analytic bounds."""
    monkeypatch.setenv("SELBOUNDS_MAX_K_UNIQUE", "10")  # cover k up to m <= 10
    monkeypatch.setenv("SELBOUNDS_MAX_K_REPEATED", "10")
    rng = np.random.default_rng(6)
    for case in range(1000):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, m + 1))
        mode = "unique" if rng.random() < 0.5 else "repeated"
        d = sb.make_distribution(rng.random(n) + 1e-6)
        if mode == "unique":
            ts = sb.transform_unique(d, m, k)
        else:
            ts = sb.transform_repeated(d, m, k)
        h_prime = min(sb.entropy(ts.dist), math.log2(ts.n_prime))
        pi_prime = sb.tail_probability(ts.dist, ts.m_prime)
        psi_prime = 1.0 - pi_prime
        lb = sb.pi_lower_bound(ts.n_prime, ts.m_prime, h_prime)
        ub = sb.pi_upper_bound(ts.n_prime, ts.m_prime, h_prime)
        assert lb - 1e-9 <= pi_prime <= ub + 1e-9
        psi_lb, psi_ub = sb.merit_bounds_k1(ts.n_prime, ts.m_prime, h_prime)
        assert psi_lb - 1e-9 <= psi_prime <= psi_ub + 1e-9
        assert psi_prime + pi_prime == pytest.approx(1.0, abs=0.0)
    with capsys.disabled():
        _report(6, "requirement-k bounds", "1000 random (n,m,k,mode) cases enclosed")


def test_criterion_7_scenario_sanity(capsys):
    """Cache and scheduling references match their independent derivations."""
    weights = [mpf(i) ** (-1) for i in range(1, 21)]
    harmonic_exact = float(sum(weights[6:]) / sum(weights))
    cfg = sb.ScenarioConfig(
        kind="cache_single", n=20, m=6, k=1, zipf_s=1.0, trials=100_000, seed=42
    )
    cache = sb.cache_scenario(cfg)
    assert abs(cache.exact_rate - harmonic_exact) <= 1e-4
    se = math.sqrt(harmonic_exact * (1 - harmonic_exact) / cfg.trials)
    assert abs(cache.empirical_rate - harmonic_exact) <= 4 * se
    assert cache.within_bounds

    sched_cfg = sb.ScenarioConfig(
        kind="scheduling", n=3, m=2, k=2,
        weights=np.asarray([0.5, 0.3, 0.2]), trials=100_000, seed=7,
    )
    sched = sb.scheduling_scenario(sched_cfg)
    chain = chain_probability([0.5, 0.3, 0.2], [0, 1]) + chain_probability(
        [0.5, 0.3, 0.2], [1, 0]
    )
    assert abs(sched.exact_rate - chain) <= 1e-12
    assert sched.exact_rate == pytest.approx(0.514286, abs=1e-5)
    assert sched.within_bounds
    with capsys.disabled():
        _report(
            7, "scenario sanity",
            f"cache miss {cache.exact_rate:.6f} (harmonic {harmonic_exact:.6f}), "
            f"scheduling merit {sched.exact_rate:.6f}",
        )


def test_criterion_8_seeded_determinism(capsys, tmp_path):
    """Repeated seeded commands produce byte-identical output."""
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text("shapes = 25:8, 10:6\nscenarios_per_shape = 6\nseed = 13\n")
    scenario_cfg = tmp_path / "scenario.cfg"
    scenario_cfg.write_text(
        "kind = cache_multipage\nn = 8\nm = 4\nk = 2\nzipf_s = 1.1\n"
        "trials = 20000\nseed = 31\n"
    )
    commands = [
        ["sweep", "--config", str(sweep_cfg), "--format", "csv", "--threads", "2"],
        ["scenario", "--config", str(scenario_cfg)],
        ["oracle-check", "--min-entropy", "--n", "6", "--m", "2", "--pi", "0.4"],
        ["oracle-check", "--transform", "--n", "4", "--k", "2", "--trials", "3", "--seed", "5"],
        ["curve", "--n", "15", "--m", "5", "--pi", "0.4", "--format", "csv"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err))
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv[0]}"
    with capsys.disabled():
        _report(8, "seeded determinism", f"{len(commands)} commands byte-identical")
