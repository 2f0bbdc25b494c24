import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

import selbounds as sb
import selbounds.oracle as oracle_mod
from helpers import mp_entropy, mp_h_min, mp_log2, reference_summary, reference_sweep_shape
from selbounds.cli import main
from selbounds.core import ColumnRows


class TestSampling:
    def test_single_state(self):
        d = sb.sample_distribution(1, sb.SamplerSpec(), sb.derive_rng(3, 0, 0))
        assert d.probs.tolist() == [1.0]

    def test_stream_determinism(self):
        a = sb.sample_distribution(12, sb.SamplerSpec(), sb.derive_rng(9, 2, 5))
        b = sb.sample_distribution(12, sb.SamplerSpec(), sb.derive_rng(9, 2, 5))
        assert a.probs.tolist() == b.probs.tolist()

    def test_streams_differ_across_tags(self):
        a = sb.sample_distribution(12, sb.SamplerSpec(), sb.derive_rng(9, 2, 5))
        b = sb.sample_distribution(12, sb.SamplerSpec(), sb.derive_rng(9, 2, 6))
        assert a.probs.tolist() != b.probs.tolist()

    def test_spiky_lowers_entropy(self):
        flat, spiky = [], []
        for i in range(60):
            rng = sb.derive_rng(1, 0, i)
            flat.append(sb.entropy(sb.sample_distribution(30, sb.SamplerSpec(), rng)))
            rng = sb.derive_rng(1, 1, i)
            spiky.append(
                sb.entropy(
                    sb.sample_distribution(30, sb.SamplerSpec("spiky", 0.2), rng)
                )
            )
        assert np.mean(spiky) < np.mean(flat) - 0.5

    def test_sampler_validation(self):
        with pytest.raises(sb.BadConfigError):
            sb.SamplerSpec("gaussian")
        with pytest.raises(sb.BadConfigError):
            sb.SamplerSpec("spiky", 1.5)
        with pytest.raises(sb.BadConfigError):
            sb.SamplerSpec(alpha=0.0)

    def test_feasible_sampler_respects_shape(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, n + 1))
            pi = float(rng.uniform(0, (n - m) / n)) if m < n else 0.0
            shape = sb.SystemShape(n, m, pi)
            d = sb.sample_feasible(shape, rng)
            assert float(d.probs[m:].sum()) == pytest.approx(pi, abs=1e-9)
            assert (np.diff(d.probs) <= 1e-12).all()


class TestSweep:
    def test_single_record(self):
        records, summary = sb.run_sweep(sb.SweepConfig(((9, 3),), 1, 5))
        assert len(records) == 1
        assert summary["total"] == 1 and summary["failures"] == 0

    def test_full_selection_collapses(self):
        records, _ = sb.run_sweep(sb.SweepConfig(((7, 7),), 5, 1))
        for r in records:
            assert r.pi_observed == 0.0
            assert r.pi_ub_analytic == 0.0 and r.pi_ub_tight == 0.0
            assert not r.violation

    @pytest.mark.parametrize("sampler", [sb.SamplerSpec(), sb.SamplerSpec("spiky", 0.2)])
    def test_no_violations_small_shapes(self, sampler):
        config = sb.SweepConfig(((12, 3), (10, 7), (25, 20)), 40, 11, sampler)
        records, summary = sb.run_sweep(config)
        assert summary["violations"] == 0
        for r in records:
            assert r.pi_lb_analytic - 1e-9 <= r.pi_lb_tight <= r.pi_observed + 1e-9
            assert r.pi_observed - 1e-9 <= r.pi_ub_tight <= r.pi_ub_analytic + 1e-9

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_failed_inversion_fails_every_record(self, monkeypatch, bound):
        # one bisection covers every shape, so its failure fails every record
        invert = getattr(oracle_mod, f"_invert_{bound}")

        def flaky(n, m, hs):
            if (n == 8).any():
                raise FloatingPointError("injected")
            return invert(n, m, hs)

        monkeypatch.setattr(oracle_mod, f"_invert_{bound}", flaky)
        config = sb.SweepConfig(((15, 4), (8, 6)), 6, 3)
        records, summary = sb.run_sweep(config)
        assert [r.scenario_id for r in records] == list(range(6)) * 2
        assert all(math.isnan(r.entropy_bits) and r.violation for r in records)
        for r in records:
            values = (r.pi_observed, r.pi_lb_analytic, r.pi_ub_analytic,
                      r.pi_lb_tight, r.pi_ub_tight)
            assert all(math.isnan(v) for v in values)
        assert summary["failures"] == summary["total"] == 12

    def test_one_batched_inversion_per_bound(self, monkeypatch):
        calls = []
        for bound in ("lower", "upper"):
            invert = getattr(oracle_mod, f"_invert_{bound}")

            def counted(n, m, hs, invert=invert, bound=bound):
                calls.append((bound, n.tolist(), m.tolist(), hs.shape))
                return invert(n, m, hs)

            monkeypatch.setattr(oracle_mod, f"_invert_{bound}", counted)
        sb.run_sweep(sb.SweepConfig(((15, 4), (8, 6)), 6, 3))
        shapes = ([15] * 6 + [8] * 6, [4] * 6 + [6] * 6, (12,))
        assert calls == [("lower", *shapes), ("upper", *shapes)]

    @pytest.mark.parametrize("sampler", [sb.SamplerSpec(), sb.SamplerSpec("spiky", 0.05)])
    @pytest.mark.parametrize("fail_calls", [(), (1, 17, 30)])
    def test_records_match_per_record_reference(self, monkeypatch, sampler, fail_calls):
        # Small shapes, then paper shapes whose sums run past numpy's
        # 128-element pairwise block, and n = 4000, which fills a 2**14-cell
        # block with 4 rows, so its 5 scenarios take two blocks.
        configs = [
            sb.SweepConfig(((1, 1), (6, 1), (7, 7), (12, 3), (25, 20), (40, 2)), 8, 4, sampler),
            sb.SweepConfig(((200, 40), (1000, 400), (1500, 1000), (4000, 7)), 5, 8, sampler),
        ]
        real = oracle_mod._draw_weights
        for config in configs:
            calls = itertools.count()

            def flaky(n, sampler, rng):
                if next(calls) in fail_calls:
                    raise RuntimeError("injected")
                return real(n, sampler, rng)

            monkeypatch.setattr(oracle_mod, "_draw_weights", flaky)
            records, _ = sb.run_sweep(config)
            calls = itertools.count()
            expected = [
                rec for i in range(len(config.shapes))
                for rec in reference_sweep_shape(config, i, sb.DEFAULT_TOLERANCE)
            ]
            # repr compares floats bit for bit, NaN equal to NaN, -0.0 apart from 0.0
            assert repr(records) == repr(expected)
            draws = len(config.shapes) * config.scenarios_per_shape
            failed = sum(math.isnan(r.entropy_bits) for r in records)
            assert failed == sum(c < draws for c in fail_calls)
        if sampler.kind == "spiky":
            # the spiky rows hold entries below 1e-15, which entropy counts
            dist = sb.sample_distribution(1500, sampler, sb.derive_rng(8, 2, 0))
            assert dist.probs.min() <= 1e-15

    def test_csv_shape_and_determinism(self):
        config = sb.SweepConfig(((6, 2),), 4, 21)
        records, _ = sb.run_sweep(config)
        text = sb.records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "scenario_id,n,m,entropy_bits,pi_observed,pi_lb_analytic,"
            "pi_ub_analytic,pi_lb_tight,pi_ub_tight,violation"
        )
        assert len(lines) == 5
        again, _ = sb.run_sweep(config)
        assert sb.records_to_csv(again) == text

    def test_summary_gap_split(self):
        config = sb.SweepConfig(((12, 3), (12, 9)), 15, 2)
        _, summary = sb.run_sweep(config)
        gaps = summary["gap_stats"]["analytic"]
        assert gaps["m_lt_half"]["records"] == 15
        assert gaps["m_ge_half"]["records"] == 15
        for regime in ("m_lt_half", "m_ge_half"):
            assert math.isfinite(gaps[regime]["mean"])
            assert math.isfinite(gaps[regime]["median"])
        assert len(summary["gap_stats"]["per_shape"]) == 2

    def test_config_parsing(self):
        cfg = sb.parse_sweep_config(
            "# demo\nshapes = 20:6, 30:20\nscenarios_per_shape = 7\nseed = 5\n"
            "sampler = spiky\nalpha = 0.3\n"
        )
        assert cfg.shapes == ((20, 6), (30, 20))
        assert cfg.scenarios_per_shape == 7
        assert cfg.seed == 5
        assert cfg.sampler == sb.SamplerSpec("spiky", 0.3)

    def test_config_errors(self):
        with pytest.raises(sb.BadConfigError):
            sb.parse_sweep_config("scenarios_per_shape = 7\n")
        with pytest.raises(sb.BadConfigError):
            sb.parse_sweep_config("shapes = 20:6\nbogus = 1\n")
        with pytest.raises(sb.BadConfigError):
            sb.parse_sweep_config("shapes = 20-6\n")

    def test_reference_preset(self):
        cfg = sb.reference_sweep_config()
        assert cfg.shapes == sb.REFERENCE_SWEEP_SHAPES
        assert cfg.scenarios_per_shape == 100
        assert cfg.seed == 42

    def test_row_failures_never_abort(self, monkeypatch):
        # a scenario that blows up becomes a nan row, not an aborted sweep
        real = oracle_mod._draw_weights
        calls = {"n": 0}

        def flaky(n, sampler, rng):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return real(n, sampler, rng)

        monkeypatch.setattr(oracle_mod, "_draw_weights", flaky)
        records, summary = sb.run_sweep(sb.SweepConfig(((6, 2),), 3, 1))
        assert len(records) == 3
        assert summary["failures"] == 1
        nan_rows = [r for r in records if math.isnan(r.entropy_bits)]
        assert len(nan_rows) == 1 and nan_rows[0].violation
        text = sb.records_to_csv(records)
        assert "nan" in text


class TestSweepColumns:
    """The sweep's records stay columns through the summary, the CSV and the JSON."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_sweep_builds_no_records(self, monkeypatch, capsys, fmt):
        built = []
        init = oracle_mod.SweepRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(oracle_mod.SweepRecord, "__init__", counted)
        assert main(["sweep", "--paper-figs", "--seed", "1", "--format", fmt]) == 0
        assert capsys.readouterr().out.count("scenario_id") == (1 if fmt == "csv" else 800)
        assert built == []
        records, _ = sb.run_sweep(sb.SweepConfig(((6, 2),), 2, 1))
        assert records[1].scenario_id == 1 and len(built) == 1  # the patch counts

    @pytest.mark.parametrize("fail_calls", [(), (1, 17, 30)])
    def test_a_list_of_records_reads_as_the_columns(self, monkeypatch, fail_calls):
        # (40, 7) lies above the state cap, so all its records are NaN; (8, 4)
        # sits on the regime boundary m = n/2; (6, 2) appears twice, so its
        # per-shape gaps span two blocks of records
        monkeypatch.setenv("SELBOUNDS_MAX_STATES", "35")
        real = oracle_mod._draw_weights
        calls = itertools.count()

        def flaky(n, sampler, rng):
            if next(calls) in fail_calls:
                raise RuntimeError("injected")
            return real(n, sampler, rng)

        monkeypatch.setattr(oracle_mod, "_draw_weights", flaky)
        config = sb.SweepConfig(((6, 2), (9, 9), (40, 7), (8, 4), (6, 2)), 12, 11,
                                sb.SamplerSpec("spiky", 0.2))
        records, summary = sb.run_sweep(config)
        rows = list(records)
        assert all(type(r) is sb.SweepRecord for r in rows)
        assert summary["failures"] == 12 + len(fail_calls)
        # repr compares floats bit for bit, NaN equal to NaN
        assert repr(sb.summarize(rows)) == repr(summary) == repr(reference_summary(rows))
        assert sb.records_to_csv(rows) == sb.records_to_csv(records)

    def test_no_records(self):
        records, _ = sb.run_sweep(sb.SweepConfig(((6, 2),), 3, 1))
        empty = ColumnRows(sb.SweepRecord, {k: v[:0] for k, v in records.columns.items()})
        for table in ([], empty):
            assert sb.summarize(table) == reference_summary([])
            assert sb.records_to_csv(table) == oracle_mod.SWEEP_CSV_HEADER + "\n"


_EDGE_GAPS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308, -1.7e308]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_GAPS)), min_size=1, max_size=9))
@example([-0.0, -0.0])
@example([-0.0])
@example([math.inf, -math.inf])
@settings(max_examples=500, deadline=None)
def test_median_matches_numpy(values):
    with np.errstate(all="ignore"):
        want = float(np.median(values))
    assert repr(oracle_mod._median(values)) == repr(want)


def _h_min_truth(n, m, pi):
    """50-digit ``H_min``, or ``log2 n`` where the double ``pi`` lies above the rational ceiling."""
    p, q = pi.as_integer_ratio()
    return mp_log2(n) if p * n > (n - m) * q else mp_h_min(n, m, pi)


class TestOracleMinEntropy:
    def test_unique_feasible_point(self):
        found = sb.oracle_min_entropy(sb.SystemShape(4, 2, 0.5))
        assert found == pytest.approx(2.0, abs=1e-9)

    def test_converges_to_staircase(self):
        found = sb.oracle_min_entropy(sb.SystemShape(3, 1, 0.3))
        assert found == pytest.approx(mp_entropy([0.7, 0.3]), abs=1e-6)

    @pytest.mark.parametrize("n, m, pi", [(3, 1, 1e-13), (6, 5, 6e-12)])
    def test_tiny_tail_mass_counts_in_full(self, n, m, pi):
        truth = mp_h_min(n, m, pi)
        found = sb.oracle_min_entropy(sb.SystemShape(n, m, pi))
        assert abs(mpf(found) - truth) <= 4 * 2**-52 * truth

    def test_never_below_exact_minimum(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            pi = float(rng.uniform(0, (n - m) / n)) if m < n else 0.0
            shape = sb.SystemShape(n, m, pi)
            found = sb.oracle_min_entropy(shape)
            exact = sb.min_entropy(shape).min_entropy_bits
            assert found >= exact - 1e-9

    def test_usually_reaches_exact_minimum(self):
        hits = 0
        cases = 0
        for n in range(2, 7):
            for m in range(1, n + 1):
                pi = 0.5 * (n - m) / n
                shape = sb.SystemShape(n, m, pi)
                found = sb.oracle_min_entropy(shape)
                exact = sb.min_entropy(shape).min_entropy_bits
                cases += 1
                hits += found <= exact + 1e-6
        # The vertex scan is exact, so "usually" is now every case.
        assert hits == cases

    def test_within_four_ulps_of_the_truth(self, rng):
        cases = [(n, m, 0.5 * (n - m) / n) for n in range(2, 7) for m in range(1, n + 1)]
        for _ in range(200):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(1, n + 1))
            top = (n - m) / n
            cases += [(n, m, float(rng.uniform(0.0, top))), (n, m, top)]
            if top > 0:
                cases.append((n, m, float(10 ** rng.uniform(-300, math.log10(top)))))
        for n, m, pi in cases:
            shape = sb.SystemShape(n, m, pi)
            truth = _h_min_truth(n, m, shape.pi)
            found = sb.oracle_min_entropy(shape)
            assert abs(mpf(found) - truth) <= 4 * 2**-52 * truth, (n, m, shape.pi)


class TestOracleTransformCheck:
    def test_reference_distribution(self):
        report = sb.oracle_transform_check(3, 2, 5, sb.derive_rng(4))
        assert report["max_abs_deviation_unique"] <= 1e-12
        assert report["max_abs_deviation_repeated"] <= 1e-12

    def test_k1_exact(self):
        report = sb.oracle_transform_check(5, 1, 3, sb.derive_rng(6))
        assert report["max_abs_deviation_unique"] <= 1e-14
        assert report["max_abs_deviation_repeated"] <= 1e-14

    def test_size_guard(self):
        with pytest.raises(sb.TooLargeError):
            sb.oracle_transform_check(8, 2, 1)
        with pytest.raises(sb.TooLargeError):
            sb.oracle_transform_check(4, 4, 1)

    def test_sizes_below_one_are_bad_input(self):
        with pytest.raises(sb.BadMError):
            sb.oracle_transform_check(0, 2, 1)
        with pytest.raises(sb.BadKError):
            sb.oracle_transform_check(4, -1, 1)
