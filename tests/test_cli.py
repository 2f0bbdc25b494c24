import argparse
import json

import pytest

import selbounds as sb
from helpers import mp_min_entropy
from selbounds.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_reference_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "20", "--m", "6", "--entropy", "4.0",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pi"]["lb_analytic"] == pytest.approx(
            sb.pi_lower_bound(20, 6, 4.0), abs=1e-12
        )
        assert doc["pi"]["lb_analytic"] == pytest.approx(0.339529, abs=1e-6)
        assert doc["psi"]["ub"] == pytest.approx(1 - doc["pi"]["lb_analytic"], abs=1e-12)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "9", "--m", "3", "--entropy", "2.0",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("n,m,k,mode,entropy_bits,pi_lb_analytic")
        assert row.split(",")[0] == "9"

    def test_dist_input_with_k(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.5\n0.3\n0.2\n")
        code, out, _ = run_cli(
            capsys, "bounds", "--dist", str(path), "--m", "2", "--k", "2",
            "--mode", "unique",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["m"] == 1 and doc["k"] == 2
        assert doc["pi_observed"] == pytest.approx(1 - 18 / 35, abs=1e-9)

    def test_skewed_dist_with_k_is_valid_input(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1\n1e-9\n1e-9\n3e-10\n2e-10\n")
        code, out, err = run_cli(
            capsys, "bounds", "--dist", str(path), "--m", "2", "--k", "2",
            "--mode", "unique",
        )
        assert code == 0, err
        assert json.loads(out)["pi_observed"] == pytest.approx(0.6, abs=1e-9)

    def test_composite_precision_loss_exits_2(self, capsys, tmp_path, monkeypatch):
        import selbounds.transform as transform

        exact = transform._unique_probabilities
        monkeypatch.setattr(
            transform, "_unique_probabilities",
            lambda probs, members: exact(probs, members) * (1.0 + 1e-6),
        )
        path = tmp_path / "d.txt"
        path.write_text("0.5\n0.3\n0.2\n")
        code, out, err = run_cli(
            capsys, "bounds", "--dist", str(path), "--m", "2", "--k", "2",
            "--mode", "unique",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: internal numeric failure")

    def test_flawed_comparison_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "30", "--m", "20", "--entropy", "4.5",
            "--compare-flawed",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pi"]["lb_flawed"] > doc["pi"]["lb_analytic"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--m", "6"),  # missing inputs
            ("bounds", "--n", "20", "--m", "6", "--entropy", "9.0"),  # H > log2 n
            ("bounds", "--n", "20", "--m", "6", "--entropy", "4.0", "--k", "2"),
            ("bounds", "--n", "20", "--m", "40", "--entropy", "4.0"),
            ("bounds", "--n", "20", "--m", "6", "--entropy", "4.0", "--bogus"),
        ],
    )
    def test_validation_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_one_point_dist_prints_positive_zero_entropy(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1\n0\n0\n")
        code, out, err = run_cli(capsys, "bounds", "--dist", str(path), "--m", "1")
        assert code == 0, err
        assert '"entropy_bits": 0.0,' in out
        assert "-0.0" not in out
        doc = json.loads(out)
        assert doc["pi"]["ub_tight"] == 0.0

    def test_json_integer_too_large_for_float_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(f"[1, 2, {10**400}]")
        code, out, err = run_cli(capsys, "bounds", "--dist", str(path), "--m", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: JSON weight") and len(err.splitlines()) == 1

    def test_entropy_conflicts_with_dist(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1\n1\n")
        code, _, err = run_cli(
            capsys, "bounds", "--dist", str(path), "--m", "1", "--entropy", "0.5"
        )
        assert code == 1 and "--entropy" in err


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--dist", "{tmp}/missing.txt", "--m", "2"),
            ("bounds", "--dist", "{tmp}/binary.txt", "--m", "2"),
            ("scenario", "--config", "{tmp}/missing.cfg"),
            ("sweep", "--config", "{tmp}/missing.cfg"),
            ("transform", "--dist", "{tmp}", "--m", "2", "--k", "2", "--mode", "unique"),
            ("bounds", "--n", "20", "--m", "6", "--entropy", "4", "--out", "{tmp}/no/x.json"),
            ("sweep", "--paper-figs", "--scenarios", "1", "--summary-out", "{tmp}/no/s.json"),
        ],
    )
    def test_missing_or_unreadable_file_is_one_error_line(self, capsys, tmp_path, argv):
        (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00\x81 1\n")
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestBadSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--paper-figs", "--seed", "-1"),
            ("scenario", "--config", "{tmp}/scenario.cfg"),
            ("oracle-check", "--min-entropy", "--n", "10", "--m", "3", "--pi", "0.2",
             "--seed", "-1"),
        ],
    )
    def test_negative_seed_is_one_error_line(self, capsys, tmp_path, argv):
        (tmp_path / "scenario.cfg").write_text(
            "kind = cache_single\nn = 10\nm = 3\nzipf_s = 1.0\ntrials = 10\nseed = -3\n"
        )
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: seed ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("SELBOUNDS_MAX_COMPOSITES", "abc",
             ("transform", "--dist", "{tmp}/w.txt", "--m", "2", "--k", "2",
              "--mode", "unique")),
            ("SELBOUNDS_MAX_STATES", "1.5e7", ("bounds", "--dist", "{tmp}/w.txt", "--m", "1")),
            ("SELBOUNDS_MAX_K_UNIQUE", "0",
             ("transform", "--dist", "{tmp}/w.txt", "--m", "2", "--k", "2",
              "--mode", "unique")),
            ("SELBOUNDS_MAX_K_REPEATED", "-3",
             ("transform", "--dist", "{tmp}/w.txt", "--m", "2", "--k", "2",
              "--mode", "repeated")),
            ("SELBOUNDS_MAX_STATES", "abc", ("sweep", "--paper-figs", "--scenarios", "2")),
        ],
    )
    def test_malformed_cap_variable_is_one_error_line(
        self, capsys, tmp_path, monkeypatch, name, value, argv
    ):
        (tmp_path / "w.txt").write_text("0.5\n0.3\n0.2\n")
        monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--paper-figs", "--scenarios", "2"),
            ("bounds", "--n", "20", "--m", "6", "--entropy", "4"),
        ],
    )
    def test_non_finite_or_negative_tolerance_is_one_error_line(self, capsys, argv, value):
        # such a tolerance fails every bound check: it must read as a bad
        # option, not as violated bounds
        code, out, err = run_cli(capsys, *argv, "--tolerance", value)
        assert code == 1 and out == ""
        assert err.startswith("error: argument --tolerance: ") and len(err.splitlines()) == 1

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--n", "20", "--m", "6", "--entropy", "4", "--tolerance", "0"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["n"] == 20


class TestOptions:
    def test_threads_is_the_only_ignored_option(self):
        parser = build_parser()
        parsers = [parser] + [
            sub
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for sub in action.choices.values()
        ]
        ignored = {
            option
            for p in parsers
            for action in p._actions
            if "ignored" in (action.help or "").lower()
            for option in action.option_strings
        }
        assert ignored == {"--threads"}


class TestExtremaCommand:
    def test_max_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "extrema", "--n", "4", "--m", "2", "--pi", "0.5", "--which", "max"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["probs"] == [0.25, 0.25, 0.25, 0.25]
        assert doc["entropy_bits"] == pytest.approx(2.0, abs=1e-12)

    def test_min_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "extrema", "--n", "15", "--m", "5", "--pi", "0.4", "--which", "min"
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["candidates"]) == 8
        assert doc["entropy_bits"] == pytest.approx(3.120505923987, abs=1e-9)

    def test_csv_round_trips_into_bounds(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "extrema", "--n", "12", "--m", "4", "--pi", "0.3",
            "--format", "csv",
        )
        assert code == 0
        path = tmp_path / "dist.txt"
        path.write_text(out)
        code, out2, _ = run_cli(
            capsys, "bounds", "--dist", str(path), "--m", "4"
        )
        assert code == 0
        doc = json.loads(out2)
        assert doc["entropy_bits"] == pytest.approx(
            sb.max_entropy(sb.SystemShape(12, 4, 0.3)), abs=1e-9
        )
        assert doc["pi_observed"] == pytest.approx(0.3, abs=1e-9)
        assert doc["pi"]["lb_analytic"] - 1e-9 <= 0.3 <= doc["pi"]["ub_analytic"] + 1e-9


class TestCurveCommand:
    def test_csv_header_and_junctions(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--n", "15", "--m", "5", "--pi", "0.4",
            "--samples", "50", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p_hat,entropy_bits,segment_index,is_junction"
        junctions = [l for l in lines[1:] if l.endswith(",true")]
        assert len(junctions) == 8


class TestTransformCommand:
    def test_csv_with_json_header(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.5\n0.3\n0.2\n")
        code, out, _ = run_cli(
            capsys, "transform", "--dist", str(path), "--m", "2", "--k", "2",
            "--mode", "unique", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = json.loads(lines[0][2:])
        assert header == {
            "n_prime": 3, "m_prime": 1, "mode": "unique", "k": 2,
            "entropy_bits": header["entropy_bits"],
        }
        assert lines[1] == "composite_ids,probability,in_selected_set"
        first = lines[2].split(",")
        assert first[0] == "0+1"
        assert float(first[1]) == pytest.approx(18 / 35, abs=1e-9)
        assert first[2] == "true"


class TestSweepCommand:
    def test_config_run_with_summary(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 10:3, 8:6\nscenarios_per_shape = 5\nseed = 3\n")
        code, out, err = run_cli(
            capsys, "sweep", "--config", str(cfg), "--format", "csv", "--threads", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 11
        summary = json.loads(err)
        assert summary["total"] == 10 and summary["violations"] == 0

    def test_summary_out_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 6:2\nscenarios_per_shape = 3\nseed = 1\n")
        dest = tmp_path / "summary.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--format", "csv",
            "--summary-out", str(dest),
        )
        assert code == 0
        assert json.loads(dest.read_text())["total"] == 3

    def test_json_format(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 6:2\nscenarios_per_shape = 2\nseed = 1\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["records"]) == 2 and "summary" in doc

    def test_threads_flag_changes_nothing(self, capsys):
        # the benchmark's sweep argv, at 5 scenarios per shape
        argv = ("sweep", "--paper-figs", "--seed", "3", "--format", "csv", "--scenarios", "5")
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--threads", "1") == plain

    def test_state_cap_below_n_fails_only_those_shapes(self, capsys, monkeypatch):
        argv = ("sweep", "--paper-figs", "--scenarios", "2", "--format", "csv")
        code, free, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("SELBOUNDS_MAX_STATES", "100")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == len(free.splitlines()) == 17
        for row, capped in zip(out.splitlines()[1:], free.splitlines()[1:]):
            cells = row.split(",")
            if int(cells[1]) <= 100:
                assert row == capped
            else:
                assert cells[3:9] == ["nan"] * 6 and cells[9] == "true"
        summary = json.loads(err)
        assert summary["total"] == 16 and summary["failures"] == 8

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 1 and "exactly one" in err

    def test_seed_changes_output(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 6:2\nscenarios_per_shape = 2\nseed = 1\n")
        _, out1, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--format", "csv")
        _, out2, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--format", "csv", "--seed", "2"
        )
        assert out1 != out2


class TestScenarioCommand:
    def test_cache_single_report(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "kind = cache_single\nn = 20\nm = 6\nzipf_s = 1.0\n"
            "trials = 2000\nseed = 42\n"
        )
        code, out, _ = run_cli(capsys, "scenario", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["within_bounds"] is True
        assert doc["selected_ids"] == [0, 1, 2, 3, 4, 5]
        assert doc["exact_rate"] == pytest.approx(0.319017, abs=1e-5)

    def test_weights_file_resolution(self, capsys, tmp_path):
        (tmp_path / "w.txt").write_text("0.5\n0.3\n0.2\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "kind = scheduling\nn = 3\nm = 2\nweights_file = w.txt\n"
            "trials = 0\nseed = 0\n"
        )
        code, out, _ = run_cli(capsys, "scenario", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_rate"] == pytest.approx(18 / 35, abs=1e-9)
        assert doc["empirical_rate"] is None

    def test_csv_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("kind = cache_single\nn = 4\nm = 2\nzipf_s = 1.0\n")
        code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--format", "csv")
        assert code == 1 and "JSON" in err


class TestOracleCheckCommand:
    def test_min_entropy_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--min-entropy", "--n", "5", "--m", "2",
            "--pi", "0.4", "--restarts", "5", "--iters", "100", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_minus_exact"] >= -1e-9
        assert doc["oracle_entropy_bits"] == pytest.approx(
            doc["exact_min_entropy_bits"], abs=1e-6
        )

    def test_min_entropy_check_at_small_pi(self, capsys):
        # at pi = 1e-6 junctions lie closer than 1e-9; merging them left the
        # exact minimum 3.5e-9 bits too high, so the oracle went below it
        code, out, _ = run_cli(
            capsys, "oracle-check", "--min-entropy", "--n", "200", "--m", "10",
            "--pi", "1e-6", "--restarts", "1", "--iters", "1",
        )
        assert code == 0
        doc = json.loads(out)
        truth = mp_min_entropy(200, 10, 1e-6)
        # the head entry 1 - pi - 9*p is within an ulp of 1, where -x*log2(x)
        # has slope 1.44: both sides may round about 3e-16 from the truth
        assert doc["exact_min_entropy_bits"] == pytest.approx(truth, rel=0, abs=1e-15)
        assert doc["oracle_minus_exact"] >= -1e-15

    def test_transform_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--transform", "--n", "4", "--k", "2",
            "--trials", "3", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_deviation_unique"] <= 1e-12
        assert doc["max_abs_deviation_repeated"] <= 1e-12

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "oracle-check", "--min-entropy", "--n", "5")
        assert code == 1 and "--m" in err


class TestDeterminism:
    def test_sweep_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("shapes = 12:5, 9:7\nscenarios_per_shape = 4\nseed = 11\n")
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(
                capsys, "sweep", "--config", str(cfg), "--format", "csv",
                "--threads", "3",
            )
            assert code == 0
            outputs.append((out, err))
        assert outputs[0] == outputs[1]

    def test_scenario_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "kind = cache_multiuser\nn = 5\nm = 3\nk = 2\nzipf_s = 1.2\n"
            "trials = 5000\nseed = 9\n"
        )
        _, out1, _ = run_cli(capsys, "scenario", "--config", str(cfg))
        _, out2, _ = run_cli(capsys, "scenario", "--config", str(cfg))
        assert out1 == out2

    @pytest.mark.parametrize(
        "config, rate",
        [
            ("kind = cache_multiuser\nn = 12\nm = 4\nk = 3\nzipf_s = 0.9\n"
             "trials = 200000\nseed = 17\n", "0.74098"),
            ("kind = cache_single\nn = 20\nm = 6\nzipf_s = 1.0\n"
             "trials = 150000\nseed = 42\n", "0.3196466666666667"),
        ],
    )
    def test_scenario_seeded_rate_golden(self, capsys, tmp_path, config, rate):
        # pinned seeded Monte Carlo output: a sampler change that moves the
        # Philox stream, or how it maps to picks, fails here
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        code, out, _ = run_cli(capsys, "scenario", "--config", str(cfg))
        assert code == 0
        assert f'"empirical_rate": {rate},' in out
        assert json.loads(out)["empirical_rate"] == float(rate)

    def test_reference_preset_golden_stability(self, capsys):
        # reduced scenario count, same seeding architecture as the full preset
        argv = ("sweep", "--paper-figs", "--seed", "42", "--scenarios", "10",
                "--format", "csv", "--threads", "2")
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0
            outputs.append((out, err))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].strip().split("\n")) == 81

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "bounds", "--n", "8", "--m", "2", "--entropy", "2.0",
            "--out", str(dest),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "8", "--m", "2", "--entropy", "2.0",
        )
        assert dest.read_text() == out


class _HeavyDirichlet:
    """A generator whose Dirichlet draws carry a mass defect of 1e-6."""

    def __init__(self, rng):
        self._rng = rng

    def dirichlet(self, alpha):
        return self._rng.dirichlet(alpha) * (1.0 + 1e-6)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestInternalPrecisionLoss:
    """A distribution the package builds itself that fails validation exits 2."""

    def _exits_2(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: internal numeric failure")

    def test_max_entropy_distribution(self, capsys, monkeypatch):
        import selbounds.core as core

        monkeypatch.setattr(
            core.SystemShape, "head_mean",
            property(lambda s: (1.0 - s.pi) / s.m * (1.0 + 1e-6)),
        )
        self._exits_2(capsys, "extrema", "--n", "4", "--m", "2", "--pi", "0.5")

    def test_staircase(self, capsys, monkeypatch):
        import selbounds.extrema as extrema

        exact = extrema._staircase

        def defective(n, pi):
            step, copies, remainder = exact(n, pi)
            return step * (1.0 + 1e-6), copies, remainder

        monkeypatch.setattr(extrema, "_staircase", defective)
        self._exits_2(capsys, "extrema", "--n", "5", "--m", "1", "--pi", "0.3",
                      "--which", "min")

    def test_min_entropy_candidate(self, capsys, monkeypatch):
        import selbounds.extrema as extrema

        exact = extrema._tail_split

        def defective(pi, p_hat):
            copies, remainder = exact(pi, p_hat)
            return copies, remainder + 1e-6

        monkeypatch.setattr(extrema, "_tail_split", defective)
        self._exits_2(capsys, "extrema", "--n", "15", "--m", "5", "--pi", "0.4",
                      "--which", "min")

    @pytest.mark.parametrize("n, m, pi", [("6", "2", "0.3"), ("3", "3", "0")])
    def test_feasible_sample(self, capsys, monkeypatch, n, m, pi):
        import selbounds.cli as cli

        derive = cli.derive_rng
        monkeypatch.setattr(cli, "derive_rng", lambda *key: _HeavyDirichlet(derive(*key)))
        self._exits_2(capsys, "oracle-check", "--min-entropy", "--n", n, "--m", m,
                      "--pi", pi, "--restarts", "1", "--iters", "1")
