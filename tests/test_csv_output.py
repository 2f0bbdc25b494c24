"""CSV output written in streamed row blocks stays byte-identical.

The reference formatters below are the per-row loops the CLI and
``records_to_csv`` used before every CSV went through one block writer,
``core.csv_blocks``; every block-written document must equal them byte
for byte, through ``--out`` and through stdout.  The one addition is the
``selection_mismatch`` flag of a composite system, in the ``transform``
``#`` line and as the last ``bounds --k`` column.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selbounds as sb
import selbounds.cli as cli
import selbounds.oracle as oracle_mod
from selbounds.cli import main
from selbounds.core import csv_blocks, format_number, format_numbers


def reference_transform_csv(ts) -> str:
    header = {
        "n_prime": ts.n_prime, "m_prime": ts.m_prime, "mode": ts.mode,
        "k": ts.k, "entropy_bits": sb.entropy(ts.dist),
        "selection_mismatch": ts.selection_mismatch,
    }
    lines = ["# " + json.dumps(header), "composite_ids,probability,in_selected_set"]
    for ids, p, flag in zip(ts.composite_index, ts.dist.probs, ts.in_selected):
        tag = "true" if flag else "false"
        lines.append("+".join(str(int(i)) for i in ids) + f",{format_number(p)},{tag}")
    return "\n".join(lines) + "\n"


def reference_extrema_csv(which, shape, bits, dist) -> str:
    lines = [
        f"# which={which} n={shape.n} m={shape.m} pi={format_number(shape.pi)} "
        f"entropy_bits={format_number(bits)}"
    ]
    lines.extend(format_number(p) for p in dist.probs)
    return "\n".join(lines) + "\n"


def reference_curve_csv(samples) -> str:
    lines = ["p_hat,entropy_bits,segment_index,is_junction"]
    for s in samples:
        flag = "true" if s.is_junction else "false"
        lines.append(
            f"{format_number(s.p_hat)},{format_number(s.entropy_bits)},"
            f"{s.segment_index},{flag}"
        )
    return "\n".join(lines) + "\n"


def reference_bounds_csv(report) -> str:
    d = report.to_dict()
    cols = ["n", "m", "k", "mode", "entropy_bits"]
    vals = [str(d["n"]), str(d["m"]), str(d["k"]), d["mode"], format_number(d["entropy_bits"])]
    for key, value in d["pi"].items():
        cols.append(f"pi_{key}")
        vals.append(format_number(value))
    for key, value in d["psi"].items():
        cols.append(f"psi_{key}")
        vals.append(format_number(value))
    if "pi_observed" in d:
        cols.append("pi_observed")
        vals.append(format_number(d["pi_observed"]))
    cols.append("clamped")
    vals.append(";".join(d["clamped"]))
    if "selection_mismatch" in d:
        cols.append("selection_mismatch")
        vals.append("true" if d["selection_mismatch"] else "false")
    return ",".join(cols) + "\n" + ",".join(vals) + "\n"


def reference_sweep_csv(records) -> str:
    lines = [oracle_mod.SWEEP_CSV_HEADER]
    for r in records:
        values = (r.entropy_bits, r.pi_observed, r.pi_lb_analytic, r.pi_ub_analytic,
                  r.pi_lb_tight, r.pi_ub_tight)
        lines.append(
            f"{r.scenario_id},{r.n},{r.m},"
            + ",".join(format_number(v) for v in values)
            + (",true" if r.violation else ",false")
        )
    return "\n".join(lines) + "\n"


def cli_outputs(capsys, tmp_path, *argv) -> tuple[str, str]:
    """The document written to stdout and the one written to ``--out``."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    dest = tmp_path / "out.csv"
    assert main([*argv, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    return captured.out, dest.read_bytes().decode("utf-8")


def write_weights(tmp_path, weights) -> str:
    path = tmp_path / "weights.txt"
    path.write_text("".join(f"{float(w)!r}\n" for w in weights))
    return str(path)


class TestTransformCsv:
    @pytest.mark.parametrize(
        "weights, m, k, mode",
        [
            ("uniform", 9, 8, "unique"),
            ("uniform", 5, 3, "unique"),
            ("random", 5, 1, "unique"),
            ("random", 5, 2, "unique"),
            ("random", 6, 3, "unique"),
            ("random", 9, 8, "unique"),
            ("uniform", 4, 2, "repeated"),
            ("random", 5, 1, "repeated"),
            ("random", 5, 3, "repeated"),
            ("random", 8, 8, "repeated"),
        ],
    )
    def test_matches_row_loop_across_blocks(
        self, capsys, tmp_path, monkeypatch, weights, m, k, mode
    ):
        n = 12 if mode == "unique" else 11  # ids of two digits
        raw = np.ones(n) if weights == "uniform" else np.random.default_rng(7).random(n)
        path = write_weights(tmp_path, raw)
        dist = sb.make_distribution(raw)
        build = sb.transform_unique if mode == "unique" else sb.transform_repeated
        ts = build(dist, m, k)
        assert ts.composite_index.shape == (ts.n_prime, k)  # k = 1: one id column
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        assert ts.n_prime > cli.CSV_BLOCK_ROWS
        want = reference_transform_csv(ts)
        out, written = cli_outputs(
            capsys, tmp_path, "transform", "--dist", path, "--m", str(m),
            "--k", str(k), "--mode", mode, "--format", "csv",
        )
        assert out == want
        assert written == want

    def test_default_block_size_spans_blocks(self, capsys, tmp_path):
        # uniform weights: every composite ties, so rows stay lexicographic
        n, k = 75, 3
        assert math.comb(n, k) > cli.CSV_BLOCK_ROWS
        path = write_weights(tmp_path, np.ones(n))
        ts = sb.transform_unique(sb.make_distribution(np.ones(n)), 10, k)
        out, written = cli_outputs(
            capsys, tmp_path, "transform", "--dist", path, "--m", "10",
            "--k", str(k), "--mode", "unique", "--format", "csv",
        )
        want = reference_transform_csv(ts)
        assert out == want
        assert written == want

    def test_failure_writes_nothing(self, capsys, tmp_path):
        path = write_weights(tmp_path, [0.5, 0.3, 0.2])
        dest = tmp_path / "never.csv"
        argv = ["transform", "--dist", path, "--m", "2", "--k", "3",
                "--mode", "unique", "--format", "csv"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert main([*argv, "--out", str(dest)]) == 1
        assert capsys.readouterr().out == ""
        assert not dest.exists()


class TestExtremaAndCurveCsv:
    @pytest.mark.parametrize(
        "n, m, pi", [(15, 5, 0.4), (40, 1, 0.3), (23, 7, 0.0), (30, 30, 0.0)]
    )
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_extrema_matches_row_loop(self, capsys, tmp_path, monkeypatch, n, m, pi, which):
        shape = sb.SystemShape(n, m, pi)
        if which == "max":
            dist = sb.max_entropy_distribution(shape)
            bits = sb.entropy(dist)
        else:
            result = sb.min_entropy(shape)
            dist, bits = result.argmin_distribution, result.min_entropy_bits
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        out, written = cli_outputs(
            capsys, tmp_path, "extrema", "--n", str(n), "--m", str(m),
            "--pi", repr(pi), "--which", which, "--format", "csv",
        )
        want = reference_extrema_csv(which, shape, bits, dist)
        assert out == want
        assert written == want

    @pytest.mark.parametrize("n, m, pi", [(15, 5, 0.4), (200, 20, 0.3), (13, 12, 1 / 13)])
    def test_curve_matches_row_loop(self, capsys, tmp_path, monkeypatch, n, m, pi):
        samples = sb.piecewise_curve(sb.SystemShape(n, m, pi), 57)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 5)
        out, written = cli_outputs(
            capsys, tmp_path, "curve", "--n", str(n), "--m", str(m),
            "--pi", repr(pi), "--samples", "57", "--format", "csv",
        )
        want = reference_curve_csv(samples)
        assert out == want
        assert written == want


class TestBoundsCsv:
    @pytest.mark.parametrize("flawed", [False, True])
    def test_entropy_input_matches_row_loop(self, capsys, tmp_path, flawed):
        n, m, h = (30, 20, 3.1) if flawed else (20, 6, 4.0)
        report = sb.build_report(n, m, h, include_flawed=flawed)
        argv = ["bounds", "--n", str(n), "--m", str(m), "--entropy", repr(h), "--format", "csv"]
        out, written = cli_outputs(capsys, tmp_path, *argv, *["--compare-flawed"] * flawed)
        want = reference_bounds_csv(report)
        assert ("pi_lb_flawed" in want) == flawed
        assert "pi_observed" not in want
        assert out == want
        assert written == want

    def test_dist_input_matches_row_loop(self, capsys, tmp_path):
        raw = np.random.default_rng(3).random(9)
        dist = sb.make_distribution(raw)
        report = sb.build_report(9, 4, sb.entropy(dist), pi_observed=sb.tail_probability(dist, 4))
        out, written = cli_outputs(
            capsys, tmp_path, "bounds", "--dist", write_weights(tmp_path, raw), "--m", "4",
            "--format", "csv",
        )
        want = reference_bounds_csv(report)
        assert "selection_mismatch" not in want
        assert out == want
        assert written == want

    @pytest.mark.parametrize(
        "weights, m, k, mode, flawed, mismatch",
        [
            ([6, 2, 2], 2, 2, "repeated", False, True),
            ([0.5, 0.3, 0.2], 2, 2, "unique", False, False),
            ([0.4, 0.25, 0.15, 0.1, 0.06, 0.04], 3, 2, "unique", True, True),
        ],
    )
    def test_k_report_ends_with_selection_mismatch(
        self, capsys, tmp_path, weights, m, k, mode, flawed, mismatch
    ):
        dist = sb.make_distribution(weights)
        report = sb.bounds_for_k(dist, m, k, mode, include_flawed=flawed)
        assert report.selection_mismatch is mismatch
        out, written = cli_outputs(
            capsys, tmp_path, "bounds", "--dist", write_weights(tmp_path, weights),
            "--m", str(m), "--k", str(k), "--mode", mode, "--format", "csv",
            *["--compare-flawed"] * flawed,
        )
        want = reference_bounds_csv(report)
        header, row = want.splitlines()
        assert header.endswith(",clamped,selection_mismatch")
        assert row.endswith(",true" if mismatch else ",false")
        assert out == want
        assert written == want


def flaky_draws(monkeypatch, failing_call: int) -> None:
    """Make the ``failing_call``-th scenario draw of the sweep raise, so its record is NaN."""
    real = oracle_mod._draw_weights
    calls = {"n": 0}

    def flaky(n, sampler, rng):
        calls["n"] += 1
        if calls["n"] == failing_call:
            raise RuntimeError("boom")
        return real(n, sampler, rng)

    monkeypatch.setattr(oracle_mod, "_draw_weights", flaky)


class TestSweepCsv:
    @pytest.mark.parametrize("failing_call", [None, 2])
    def test_records_to_csv_matches_row_loop(self, monkeypatch, failing_call):
        if failing_call:
            flaky_draws(monkeypatch, failing_call)
        sampler = sb.SamplerSpec("spiky", 0.3)
        records, _ = sb.run_sweep(sb.SweepConfig(((6, 2), (9, 9), (40, 7)), 4, 11, sampler))
        assert any(math.isnan(r.entropy_bits) for r in records) == bool(failing_call)
        assert sb.records_to_csv(records) == reference_sweep_csv(records)

    def test_no_records_is_the_header(self):
        assert sb.records_to_csv([]) == reference_sweep_csv([])

    @pytest.mark.parametrize("failing_call", [None, 3])
    def test_cli_matches_row_loop(self, capsys, tmp_path, monkeypatch, failing_call):
        if failing_call:
            flaky_draws(monkeypatch, failing_call)
        records, _ = sb.run_sweep(sb.reference_sweep_config(seed=5, scenarios=2))
        if failing_call:
            flaky_draws(monkeypatch, failing_call)  # a fresh call count for the CLI run
        out = cli_outputs(
            capsys, tmp_path, "sweep", "--paper-figs", "--seed", "5", "--scenarios", "2",
            "--format", "csv",
        )[0]
        want = reference_sweep_csv(records)
        assert ("nan" in want) == bool(failing_call)
        assert out == want


class TestBlocks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["extrema", "--n", "15", "--m", "5", "--pi", "0.4"],
            ["curve", "--n", "15", "--m", "5", "--pi", "0.4", "--samples", "20"],
            ["transform", "--m", "2", "--k", "1", "--mode", "unique"],
        ],
    )
    def test_patched_block_rows_split_the_document(self, tmp_path, monkeypatch, argv):
        chunks = []
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        monkeypatch.setattr(cli, "_emit", lambda body, out: chunks.extend(body))
        if argv[0] == "transform":
            argv += ["--dist", write_weights(tmp_path, [6, 5, 4, 3, 2, 1])]
        assert main([*argv, "--format", "csv"]) == 0
        rows = [chunk.count("\n") for chunk in chunks[1:]]  # chunks[0] is the head
        assert len(rows) > 1 and set(rows[:-1]) == {4} and 0 < rows[-1] <= 4


#: One column of each kind the writer formats, with the row loop's text of each cell.
_COLUMNS = [
    ([-0.0, math.nan, math.inf, -math.inf, 0.0, 1e16, 0.1, 5e-324, 1000000000005.0], format_number),
    ([0, -3, 7, 10**15, 12, 1, 2, 3, 4], str),
    ([True, False, True, True, False, False, True, False, True], lambda f: "true" if f else "false"),
    (["direct", "", "a;b", "x", "y", "z", "unique", "repeated", "-0"], str),
    ([[0, 10], [3, 3], [11, 0], [0, 0], [1, 2], [2, 1], [9, 9], [10, 1], [5, 7]],
     lambda ids: "+".join(map(str, ids))),
    ([[0], [10], [3], [1], [2], [4], [5], [6], [7]], lambda ids: "+".join(map(str, ids))),
]


@pytest.mark.parametrize("rows", [1, 2, 4, 9, 65_536])
def test_writer_cells_match_row_loop(rows):
    arrays = [np.asarray(values) for values, _ in _COLUMNS]
    assert [a.dtype.kind for a in arrays] == ["f", "i", "b", "U", "i", "i"]
    want = "head\n" + "".join(
        ",".join(cell(value) for value, cell in zip(row, (c for _, c in _COLUMNS))) + "\n"
        for row in zip(*(values for values, _ in _COLUMNS))
    )
    chunks = list(csv_blocks("head\n", arrays, rows))
    assert "".join(chunks) == want
    assert len(chunks) == 1 + math.ceil(9 / rows)
    assert want.splitlines()[1] == "-0,0,true,direct,0+10,0"


# 13-digit integers ending in 5 are exact doubles that sit on a 12-digit
# rounding tie.
_ties = st.integers(min_value=10**11, max_value=10**12 - 1).map(lambda i: float(10 * i + 5))
_subnormals = st.floats(min_value=-2.2e-308, max_value=2.2e-308, allow_subnormal=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.one_of(_finite, _ties, _subnormals), max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-16, 1000000000005.0,
          1000000000015.0, 1234567890.125, 0.5, 1.7976931348623157e308])
@settings(max_examples=300, deadline=None)
def test_format_numbers_matches_format_number(values):
    want = [format_number(v) for v in values]
    assert format_numbers(values) == want
    assert format_numbers(np.asarray(values, dtype=float)) == want
