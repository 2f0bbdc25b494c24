import argparse
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import selbounds as sb
import selbounds.cli as cli
from helpers import mp_min_entropy
from selbounds.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHARED_OPTIONS = {"--format", "--out", "--seed", "--tolerance", "--threads"}

#: The shared options each command takes: only those it reads.
COMMAND_OPTIONS = {
    "bounds": {"--format", "--out", "--tolerance"},
    "extrema": {"--format", "--out"},
    "curve": {"--format", "--out"},
    "transform": {"--format", "--out", "--tolerance"},
    "sweep": {"--format", "--out", "--seed", "--tolerance", "--threads"},
    "scenario": {"--format", "--out", "--seed", "--tolerance"},
    "oracle-check": {"--format", "--out", "--seed"},
}

#: One small argv per handler branch; ``{tmp}`` holds _write_inputs' files.
SMALL_ARGV = {
    "bounds": [
        ("bounds", "--n", "20", "--m", "6", "--entropy", "4"),
        ("bounds", "--dist", "{tmp}/w.txt", "--m", "1", "--compare-flawed"),
        ("bounds", "--dist", "{tmp}/w.txt", "--m", "2", "--k", "2", "--mode", "unique"),
    ],
    "extrema": [
        ("extrema", "--n", "5", "--m", "2", "--pi", "0.3"),
        ("extrema", "--n", "5", "--m", "2", "--pi", "0.3", "--which", "min"),
    ],
    "curve": [("curve", "--n", "5", "--m", "2", "--pi", "0.3", "--samples", "5")],
    "transform": [
        ("transform", "--dist", "{tmp}/w.txt", "--m", "2", "--k", "2", "--mode", "unique"),
        ("transform", "--dist", "{tmp}/w.txt", "--m", "2", "--k", "2", "--mode", "repeated"),
    ],
    "sweep": [
        ("sweep", "--paper-figs", "--scenarios", "1", "--format", "csv"),
        ("sweep", "--config", "{tmp}/sweep.cfg", "--summary-out", "{tmp}/summary.json"),
    ],
    "scenario": [("scenario", "--config", "{tmp}/scenario.cfg")],
    "oracle-check": [
        ("oracle-check", "--min-entropy", "--n", "5", "--m", "2", "--pi", "0.4"),
        ("oracle-check", "--transform", "--n", "4", "--k", "2", "--trials", "2"),
    ],
}

README_TABLE_HEAD = "| command | `--format` | `--out` | `--seed` | `--tolerance` | `--threads` |"


#: ``sweep --paper-figs --seed 42 --scenarios 2 --format csv``, byte for byte.
PAPER_FIGS_SEED_42_CSV = """\
scenario_id,n,m,entropy_bits,pi_observed,pi_lb_analytic,pi_ub_analytic,pi_lb_tight,pi_ub_tight,violation
0,20,6,3.53344496909,0.271632034289,0,0.7,0.194480559504,0.465906641911,false
1,20,6,3.75767439895,0.366603534203,0.141290059736,0.7,0.27045235523,0.545460042072,false
0,30,20,4.56756773849,0.120276381719,0,0.320981959432,0.0528839172274,0.271050137945,false
1,30,20,4.57524422221,0.0908233068124,0,0.321521417833,0.0553381939323,0.271941539377,false
0,50,15,5.01200562532,0.326973433286,0.0859912315173,0.649341485326,0.245834443821,0.533892139817,false
1,50,15,5.08833536526,0.366426055931,0.148434141512,0.659230553778,0.273757799044,0.558862759574,false
0,100,60,6.12469095944,0.104166946059,0,0.37246781676,0.0397270194187,0.332091760182,false
1,100,60,6.0723020148,0.0974557530602,0,0.369281828118,0.0274567336616,0.327366398747,false
0,200,40,7.05507213682,0.481651595988,0.366572020967,0.74208876615,0.385615999433,0.698815923985,false
1,200,40,7.05596800698,0.490597608155,0.367019956048,0.742182998381,0.38595141141,0.699274302623,false
0,500,300,8.37579140126,0.0989023034709,0,0.374426878359,0.0235113585521,0.350031482178,false
1,500,300,8.38280661129,0.0985759317596,0,0.374740482539,0.0249895871505,0.350487186187,false
0,1000,400,9.30115233723,0.221477700731,0,0.560545715264,0.137255806014,0.52879731087,false
1,1000,400,9.35768189875,0.235705318333,0,0.563952540822,0.155311519768,0.533628561733,false
0,1500,1000,9.93491025661,0.0621859892332,0,0.314086391254,0,0.298899734185,false
1,1500,1000,9.9619681508,0.0657755541742,0,0.314941810792,0,0.300117278519,false
"""

#: ``sweep --config`` on SPIKY_SWEEP_CONFIG, byte for byte.  Every row
#: holds entries below 1e-15, each of which counts in its entropy, and JSON
#: prints each float in full, so a changed bit in a row's entropy shows.
SPIKY_SWEEP_CONFIG = (
    "shapes = 200:40, 1500:1000\nscenarios_per_shape = 3\nseed = 42\n"
    "sampler = spiky\nalpha = 0.05\n"
)
SPIKY_SWEEP_JSON = """\
{
  "records": [
    {
      "scenario_id": 0,
      "n": 200,
      "m": 40,
      "entropy_bits": 3.4923925949603087,
      "pi_observed": 0.00211938439427002,
      "pi_lb_analytic": 0.0,
      "pi_ub_analytic": 0.36734781182179366,
      "pi_lb_tight": 0.0,
      "pi_ub_tight": 0.27066833324825745,
      "violation": false
    },
    {
      "scenario_id": 1,
      "n": 200,
      "m": 40,
      "entropy_bits": 3.2728697098174515,
      "pi_observed": 0.0009494777930241473,
      "pi_lb_analytic": 0.0,
      "pi_ub_analytic": 0.3850218094901334,
      "pi_lb_tight": 0.0,
      "pi_ub_tight": 0.25037569463485404,
      "violation": false
    },
    {
      "scenario_id": 2,
      "n": 200,
      "m": 40,
      "entropy_bits": 4.3990704634090765,
      "pi_observed": 0.01682224022194539,
      "pi_lb_analytic": 0.0,
      "pi_ub_analytic": 0.46271685237082394,
      "pi_lb_tight": 0.0,
      "pi_ub_tight": 0.3587513751600305,
      "violation": false
    },
    {
      "scenario_id": 0,
      "n": 1500,
      "m": 1000,
      "entropy_bits": 6.724444975347783,
      "pi_observed": 2.8210822549027065e-11,
      "pi_lb_analytic": 0.0,
      "pi_ub_analytic": 0.32524678607612556,
      "pi_lb_tight": 0.0,
      "pi_ub_tight": 0.18116134060061062,
      "violation": false
    },
    {
      "scenario_id": 1,
      "n": 1500,
      "m": 1000,
      "entropy_bits": 7.265026031266742,
      "pi_observed": 6.934900603571257e-11,
      "pi_lb_analytic": 0.0,
      "pi_ub_analytic": 0.27100308176968735,
      "pi_lb_tight": 0.0,
      "pi_ub_tight": 0.19893652666222517,
      "violation": false
    },
    {
      "scenario_id": 2,
      "n": 1500,
      "m": 1000,
      "entropy_bits": 6.806186381669933,
      "pi_observed": 6.917011289922871e-11,
      "pi_lb_analytic": 0.0,
      "pi_ub_analytic": 0.31704458101255073,
      "pi_lb_tight": 0.0,
      "pi_ub_tight": 0.18381433731333655,
      "violation": false
    }
  ],
  "summary": {
    "total": 6,
    "violations": 0,
    "failures": 0,
    "gap_stats": {
      "analytic": {
        "m_lt_half": {
          "records": 3,
          "mean": 0.40502882456091704,
          "median": 0.3850218094901334
        },
        "m_ge_half": {
          "records": 3,
          "mean": 0.3044314829527879,
          "median": 0.31704458101255073
        }
      },
      "tight": {
        "m_lt_half": {
          "records": 3,
          "mean": 0.29326513434771395,
          "median": 0.27066833324825745
        },
        "m_ge_half": {
          "records": 3,
          "mean": 0.1879707348587241,
          "median": 0.18381433731333655
        }
      },
      "per_shape": [
        {
          "n": 200,
          "m": 40,
          "regime": "m_lt_half",
          "mean_gap_analytic": 0.40502882456091704,
          "median_gap_analytic": 0.3850218094901334,
          "mean_gap_tight": 0.29326513434771395,
          "median_gap_tight": 0.27066833324825745
        },
        {
          "n": 1500,
          "m": 1000,
          "regime": "m_ge_half",
          "mean_gap_analytic": 0.3044314829527879,
          "median_gap_analytic": 0.31704458101255073,
          "mean_gap_tight": 0.1879707348587241,
          "median_gap_tight": 0.18381433731333655
        }
      ]
    }
  }
}
"""


def _subparsers():
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _write_inputs(tmp_path):
    (tmp_path / "w.txt").write_text("0.5\n0.3\n0.2\n")
    (tmp_path / "sweep.cfg").write_text("shapes = 6:2\nscenarios_per_shape = 2\nseed = 1\n")
    (tmp_path / "scenario.cfg").write_text(
        "kind = cache_single\nn = 10\nm = 3\nzipf_s = 1.0\ntrials = 10\nseed = 3\n"
    )


class _ReadLog(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        self.reads = set()

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if name != "reads" and not name.startswith("__"):
            super().__getattribute__("reads").add(name)
        return value


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

    def test_weights_whose_total_overflows_are_valid(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("1e308\n1e308\n0.5e308\n")
        code, out, err = run_cli(capsys, "bounds", "--dist", str(path), "--m", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["entropy_bits"] == sb.entropy(sb.make_distribution([0.4, 0.4, 0.2]))
        assert doc["pi_observed"] == 0.4 + 0.2

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
            ("oracle-check", "--transform", "--n", "4", "--k", "2", "--seed", "-1"),
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

    def test_shared_options_per_command(self):
        assert {
            name: {o for a in sub._actions for o in a.option_strings} & SHARED_OPTIONS
            for name, sub in _subparsers().items()
        } == COMMAND_OPTIONS
        assert sum(map(len, COMMAND_OPTIONS.values())) == 22

    @pytest.mark.parametrize(
        "command, option",
        sorted((c, o) for c, opts in COMMAND_OPTIONS.items() for o in SHARED_OPTIONS - opts),
    )
    def test_option_of_another_command_is_unrecognized(self, capsys, tmp_path, command, option):
        _write_inputs(tmp_path)
        dest = tmp_path / "out.txt"
        argv = [a.format(tmp=tmp_path) for a in SMALL_ARGV[command][0]]
        code, out, err = run_cli(capsys, *argv, option, "1", "--out", str(dest))
        assert code == 1 and out == "" and not dest.exists()
        assert err == f"error: unrecognized arguments: {option} 1\n"

    def test_every_option_is_read(self, capsys, tmp_path, monkeypatch):
        # each option a command accepts must change what it does: parse a
        # small argv per handler branch and record which attributes the
        # command reads; only sweep's --threads (in the benchmark's sweep
        # argv) goes unread
        _write_inputs(tmp_path)
        unread = {}
        for command, branches in SMALL_ARGV.items():
            dests = {"command"} | {
                a.dest for a in _subparsers()[command]._actions
                if not isinstance(a, argparse._HelpAction)
            }
            for branch in branches:
                args = build_parser().parse_args(
                    [a.format(tmp=tmp_path) for a in branch], namespace=_ReadLog()
                )
                args.reads.clear()
                parsed = SimpleNamespace(parse_args=lambda argv, args=args: args)
                monkeypatch.setattr(cli, "build_parser", lambda parsed=parsed: parsed)
                code, _, err = run_cli(capsys)
                assert code == 0, (branch, err)
                dests -= args.reads
            if dests:
                unread[command] = dests
        assert unread == {"sweep": {"threads"}}

    def test_readme_option_table_matches_parser(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index(README_TABLE_HEAD)
        header = [cell.strip(" `") for cell in lines[start].strip("|").split("|")]
        rows = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            cells = [cell.strip(" `") for cell in line.strip("|").split("|")]
            rows[cells[0]] = dict(zip(header[1:], cells[1:]))
        assert {c: {o for o, v in row.items() if v != "no"} for c, row in rows.items()} == (
            COMMAND_OPTIONS
        )
        assert {c: row["--format"] for c, row in rows.items()} == {
            c: "json only" if c in cli._JSON_ONLY else "json, csv" for c in COMMAND_OPTIONS
        }


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
            "entropy_bits": header["entropy_bits"], "selection_mismatch": False,
        }
        assert lines[1] == "composite_ids,probability,in_selected_set"
        first = lines[2].split(",")
        assert first[0] == "0+1"
        assert float(first[1]) == pytest.approx(18 / 35, abs=1e-9)
        assert first[2] == "true"

    @pytest.mark.parametrize("tolerance, mismatch", [(None, True), ("0.5", False)])
    def test_bounds_k_agrees_on_selection_mismatch(self, capsys, tmp_path, tolerance, mismatch):
        # top composites 0+0 and 0+1 hold 0.36 + 0.24 of the mass, but the
        # selected objects' multisets hold 0.36 + 0.24 + 0.04: the flag
        # depends on --tolerance, which bounds --k must pass to the transform
        path = tmp_path / "d.txt"
        path.write_text("6\n2\n2\n")
        argv = ["--dist", str(path), "--m", "2", "--k", "2", "--mode", "repeated"]
        if tolerance is not None:
            argv += ["--tolerance", tolerance]
        flags = []
        for command in ("bounds", "transform"):
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 0, err
            flags.append(json.loads(out)["selection_mismatch"])
        assert flags == [mismatch, mismatch]


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

    def test_paper_figs_output_is_pinned(self, capsys):
        argv = ("sweep", "--paper-figs", "--seed", "42", "--scenarios", "2", "--format", "csv")
        assert run_cli(capsys, *argv)[:2] == (0, PAPER_FIGS_SEED_42_CSV)

    def test_spiky_config_output_is_pinned(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SPIKY_SWEEP_CONFIG)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[:2] == (0, SPIKY_SWEEP_JSON)

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
            capsys, "oracle-check", "--min-entropy", "--n", "5", "--m", "2", "--pi", "0.4",
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
            capsys, "oracle-check", "--min-entropy", "--n", "200", "--m", "10", "--pi", "1e-6",
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

    def test_csv_rejected(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "oracle-check", "--transform", "--n", "4", "--k", "2", "--trials", "2",
            "--format", "csv", "--out", str(dest),
        )
        assert code == 1 and out == "" and not dest.exists()
        assert err == "error: oracle-check reports are JSON only; use --format json\n"

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("--transform", "--n", "4", "--k", "2", "--trials", "-3"), "--trials"),
            (("--transform", "--n", "4", "--k", "2", "--trials", "two"), "--trials"),
        ],
    )
    def test_counts_below_one_are_one_error_line(self, capsys, argv, option):
        code, out, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: argument {option}: expected an integer >= 1")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("--transform", "--n", "4", "--k", "2", "--m", "2"), "--m"),
            (("--transform", "--n", "4", "--k", "2", "--pi", "0.3"), "--pi"),
            (("--min-entropy", "--n", "5", "--m", "2", "--pi", "0.4", "--seed", "3"),
             "--seed"),
            (("--min-entropy", "--n", "5", "--m", "2", "--pi", "0.4", "--seed", "0"),
             "--seed"),
            (("--min-entropy", "--n", "5", "--m", "2", "--pi", "0.4", "--k", "2"), "--k"),
            (("--min-entropy", "--n", "5", "--m", "2", "--pi", "0.4", "--trials", "2"),
             "--trials"),
        ],
    )
    def test_other_mode_option_is_one_error_line(self, capsys, argv, option):
        code, out, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {option} does not apply to ")
        assert len(err.splitlines()) == 1


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


class TestExactAtEveryMass:
    """Masses and entropies far below 1e-12 keep every bit through the CLI."""

    def test_tiny_weight_stays_under_the_tight_upper_bound(self, capsys, tmp_path):
        # a 1e-15 entropy floor dropped the 2e-15 entry: ub_tight read 0.0
        weights = tmp_path / "w.txt"
        weights.write_text("1\n2e-15\n")
        code, out, _ = run_cli(capsys, "bounds", "--dist", str(weights), "--m", "1")
        doc = json.loads(out)
        assert code == 0 and doc["pi_observed"] > 0.0
        assert doc["pi"]["ub_tight"] >= doc["pi_observed"]

    def test_tiny_entropy_has_a_positive_upper_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--m", "3", "--entropy", "1e-13")
        assert code == 0 and json.loads(out)["pi"]["ub_tight"] > 0.0

    def test_argmin_keeps_a_tiny_tail(self, capsys):
        # a 1e-12 snap made this argmin a point mass
        code, out, _ = run_cli(capsys, "extrema", "--n", "3", "--m", "1", "--pi", "1e-13",
                               "--which", "min")
        probs = json.loads(out)["probs"]
        assert code == 0 and math.fsum(probs[1:]) == 1e-13

    def test_least_positive_entropy(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "10", "--m", "3", "--entropy", "5e-324")
        assert (code, err) == (0, "")
        assert json.loads(out)["pi"]["ub_tight"] > 0.0


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

        exact = extrema._tail_split

        def defective(pi, p_hat):
            copies, remainder = exact(pi, p_hat)
            return copies, remainder * (1.0 + 1e-6)

        monkeypatch.setattr(extrema, "_tail_split", defective)
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

    def test_crossed_certificates(self, capsys, monkeypatch):
        # a kernel off by a bit puts certificates of both sides on one point
        import selbounds.inversion as inversion

        exact = inversion.max_entropy_values

        def noisy(n, m, pi):
            pi = np.asarray(pi, dtype=float)
            return exact(n, m, pi) + np.where(pi.view(np.int64) & 1, 1.0, -1.0)

        monkeypatch.setattr(inversion, "max_entropy_values", noisy)
        self._exits_2(capsys, "bounds", "--n", "200", "--m", "10", "--entropy", "6")

    @pytest.mark.parametrize("n, m, pi", [(6, 2, 0.3), (3, 3, 0)])
    def test_feasible_sample(self, n, m, pi):
        rng = _HeavyDirichlet(sb.derive_rng(0))
        with pytest.raises(sb.NumericFailureError):
            sb.sample_feasible(sb.SystemShape(n, m, pi), rng)
