"""JSON output written by the streamed writer equals ``json.dumps(indent=2)``.

Every JSON command builds its document and ``cli._json_blocks`` writes it,
long arrays a block of rows at a time.  The writer is checked against
``json.dumps(doc, indent=2) + "\\n"`` on generated documents, and each
command's output against ``json.dumps`` of the same document built from
the public API, with blocks small enough that every array spans several.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selbounds as sb
import selbounds.cli as cli
from selbounds.cli import main
from selbounds.core import ColumnRows
from selbounds.rng import derive_rng


def plain(doc):
    """``doc`` with every array and ``ColumnRows`` as the lists ``json`` can write."""
    if isinstance(doc, ColumnRows):  # its rows, each built on access
        return [plain(row) for row in doc]
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(value) for value in doc]
    return doc


def written(doc, block_rows=3) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        return "".join(cli._json_blocks(doc))


def expected(doc) -> str:
    return json.dumps(plain(doc), indent=2) + "\n"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7e308, 1e16, 1e-5]
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(10**40), max_value=10**40),
    _floats, st.text(),
)
_ROW_COUNT = st.integers(min_value=0, max_value=10)


@st.composite
def _columns(draw, rows=None):
    """A 1-D float, int or bool array, or a 2-D int array, of ``rows`` rows."""
    rows = draw(_ROW_COUNT) if rows is None else rows
    kind = draw(st.sampled_from(["float", "int", "bool", "ids"]))
    if kind == "float":
        return np.array(draw(st.lists(_floats, min_size=rows, max_size=rows)), dtype=float)
    if kind == "int":
        ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
        return np.array(draw(st.lists(ints, min_size=rows, max_size=rows)), dtype=np.int64)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    width = draw(st.integers(min_value=1, max_value=3))
    ids = st.lists(st.integers(min_value=0, max_value=10**6), min_size=width, max_size=width)
    return np.array(draw(st.lists(ids, min_size=rows, max_size=rows)), dtype=np.int64
                    ).reshape(rows, width)


@st.composite
def _rows(draw):
    """``ColumnRows`` of dicts over one to four equal-length columns."""
    rows = draw(_ROW_COUNT)
    keys = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    return ColumnRows(dict, {key: draw(_columns(rows)) for key in keys})


_docs = st.recursive(
    st.one_of(_scalars, _columns(), _rows()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=8),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=6),
    ),
    max_leaves=25,
)


@given(_docs, st.integers(min_value=1, max_value=4))
@example({"a": [], "b": {}, "c": np.zeros(0), "d": ["\"\\\né퟿\x00"]}, 1)
@example({"%s": ColumnRows(dict, {"%d": np.arange(7), "x": np.ones((7, 2), dtype=np.int64)})}, 2)
@example([float("nan"), np.array([math.inf, -math.inf, -0.0, 5e-324, 1.7e308]), 10**30], 2)
@settings(max_examples=400, deadline=None)
def test_writer_matches_json_dumps(doc, block_rows):
    assert written(doc, block_rows) == expected(doc)


def test_arrays_are_written_in_blocks(monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
    chunks = cli._json_blocks({"probs": np.linspace(0.0, 1.0, 10)})
    blocks = [chunk for chunk in chunks if chunk.startswith(("[\n", ",\n"))]
    assert [block.count("\n") for block in blocks] == [4, 4, 2]


# ------------------------------------------------------------------ CLI


def cli_json(capsys, tmp_path, *argv) -> str:
    """The document a command writes to stdout, checked equal to its ``--out`` file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        dest = tmp_path / "out.json"
        assert main([*argv, "--out", str(dest)]) == 0
    assert dest.read_text(encoding="utf-8") == out
    return out


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture
def weights(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0.3\n0.25\n0.2\n0.12\n0.08\n0.05\n")
    return path


class TestCommandsMatchJsonDumps:
    def test_bounds(self, capsys, tmp_path, weights):
        report = sb.build_report(100, 10, 3.5, k=1, mode="direct")
        out = cli_json(capsys, tmp_path, "bounds", "--n", "100", "--m", "10", "--entropy", "3.5")
        assert out == dumps(report.to_dict())
        dist = sb.make_distribution(sb.read_weights(str(weights)))
        report = sb.bounds_for_k(dist, 3, 3, "unique")
        out = cli_json(capsys, tmp_path, "bounds", "--dist", str(weights), "--m", "3",
                       "--k", "3", "--mode", "unique")
        assert out == dumps(report.to_dict())

    @pytest.mark.parametrize("n, m, pi", [(15, 5, 0.4), (200, 20, 0.3), (12, 1, 0.3), (12, 4, 0.0)])
    def test_extrema(self, capsys, tmp_path, n, m, pi):
        shape = sb.SystemShape(n, m, pi)
        argv = ("extrema", "--n", str(n), "--m", str(m), "--pi", repr(pi), "--which")
        dist = sb.max_entropy_distribution(shape)
        assert cli_json(capsys, tmp_path, *argv, "max") == dumps({
            "which": "max", "n": n, "m": m, "pi": shape.pi,
            "entropy_bits": sb.entropy(dist), "probs": dist.probs.tolist(),
        })
        result = sb.min_entropy(shape)
        assert cli_json(capsys, tmp_path, *argv, "min") == dumps({
            "which": "min", "n": n, "m": m, "pi": shape.pi,
            "entropy_bits": result.min_entropy_bits,
            "probs": result.argmin_distribution.probs.tolist(),
            "index_bound": result.index_bound,
            "argmin_index": result.argmin_index,
            "candidates": [
                {"p_hat": c.p_hat, "entropy_bits": c.entropy_bits} for c in result.candidates
            ],
        })

    @pytest.mark.parametrize("n, m, pi", [(15, 5, 0.4), (4, 2, 0.5), (200, 20, 0.3)])
    def test_curve(self, capsys, tmp_path, n, m, pi):
        shape = sb.SystemShape(n, m, pi)
        samples = sb.piecewise_curve(shape, 31)
        out = cli_json(capsys, tmp_path, "curve", "--n", str(n), "--m", str(m),
                       "--pi", repr(pi), "--samples", "31")
        assert out == dumps({
            "n": n, "m": m, "pi": shape.pi,
            "samples": [dataclasses.asdict(s) for s in samples],
        })

    @pytest.mark.parametrize("mode, k", [("unique", 3), ("repeated", 2), ("unique", 1)])
    def test_transform(self, capsys, tmp_path, weights, mode, k):
        dist = sb.make_distribution(sb.read_weights(str(weights)))
        transform = sb.transform_unique if mode == "unique" else sb.transform_repeated
        ts = transform(dist, 3, k)
        out = cli_json(capsys, tmp_path, "transform", "--dist", str(weights), "--m", "3",
                       "--k", str(k), "--mode", mode)
        assert out == dumps({
            "n_prime": ts.n_prime, "m_prime": ts.m_prime, "mode": ts.mode, "k": ts.k,
            "entropy_bits": sb.entropy(ts.dist),
            "selection_mismatch": ts.selection_mismatch,
            "composites": [
                {"ids": ids, "probability": p, "in_selected_set": flag}
                for ids, p, flag in zip(ts.composite_index.tolist(), ts.dist.probs.tolist(),
                                        ts.in_selected.tolist())
            ],
        })

    def test_sweep(self, capsys, tmp_path):
        records, summary = sb.run_sweep(sb.reference_sweep_config(seed=7, scenarios=3))
        out = cli_json(capsys, tmp_path, "sweep", "--paper-figs", "--scenarios", "3",
                       "--seed", "7")
        assert out == dumps({
            "records": [dataclasses.asdict(r) for r in records], "summary": summary,
        })

    @pytest.mark.parametrize("kind, extra", [
        ("cache_single", ""), ("cache_multipage", "k = 2\n"),
        ("cache_multiuser", "k = 2\n"), ("scheduling", ""),
    ])
    def test_scenario(self, capsys, tmp_path, kind, extra):
        path = tmp_path / "scenario.cfg"
        path.write_text(f"kind = {kind}\nn = 8\nm = 3\n{extra}zipf_s = 1.0\n"
                        "trials = 500\nseed = 5\n")
        report = sb.run_scenario(sb.parse_scenario_config(path.read_text(), base_dir=tmp_path))
        out = cli_json(capsys, tmp_path, "scenario", "--config", str(path))
        assert out == dumps(report.to_dict())

    def test_oracle_check(self, capsys, tmp_path):
        shape = sb.SystemShape(12, 4, 0.3)
        found = sb.oracle_min_entropy(shape)
        exact = sb.min_entropy(shape).min_entropy_bits
        out = cli_json(capsys, tmp_path, "oracle-check", "--min-entropy", "--n", "12",
                       "--m", "4", "--pi", "0.3")
        assert out == dumps({
            "check": "min_entropy", "n": 12, "m": 4, "pi": 0.3,
            "oracle_entropy_bits": found, "exact_min_entropy_bits": exact,
            "oracle_minus_exact": found - exact,
        })
        report = sb.oracle_transform_check(5, 2, 3, derive_rng(9, 2))
        out = cli_json(capsys, tmp_path, "oracle-check", "--transform", "--n", "5",
                       "--k", "2", "--trials", "3", "--seed", "9")
        assert out == dumps({"check": "transform", "seed": 9, **report})
