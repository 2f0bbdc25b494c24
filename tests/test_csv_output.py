"""CSV output written in streamed row blocks stays byte-identical.

The reference formatters below are the per-row loops the CLI used before
it wrote CSV in blocks; every block-written document must equal them byte
for byte, through ``--out`` and through stdout.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selbounds as sb
import selbounds.cli as cli
from selbounds.cli import main
from selbounds.core import format_number, format_numbers


def reference_transform_csv(ts) -> str:
    header = {
        "n_prime": ts.n_prime, "m_prime": ts.m_prime, "mode": ts.mode,
        "k": ts.k, "entropy_bits": sb.entropy(ts.dist),
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
