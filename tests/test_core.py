import math

import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import mp, mpf
from hypothesis import strategies as st

import selbounds as sb
from helpers import mp_entropy
from selbounds.core import ColumnRows, entropy_rows, entropy_terms, sorted_rows

weight_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
).filter(lambda ws: sum(ws) > 1e-9)


class TestMakeDistribution:
    def test_normalizes_integer_weights(self):
        d = sb.make_distribution([2, 1, 1])
        assert np.allclose(d.probs, [0.5, 0.25, 0.25])
        assert d.original_index.tolist() == [0, 1, 2]

    def test_stable_sort_keeps_tie_order(self):
        d = sb.make_distribution([0.25, 0.5, 0.25])
        assert np.allclose(d.probs, [0.5, 0.25, 0.25])
        assert d.original_index.tolist() == [1, 0, 2]

    def test_all_zero_rejected(self):
        with pytest.raises(sb.AllZeroError):
            sb.make_distribution([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [float("nan"), 1.0], [float("inf")]])
    def test_invalid_entries_rejected(self, bad):
        with pytest.raises(sb.InvalidEntryError):
            sb.make_distribution(bad)

    @given(weight_lists)
    @settings(max_examples=150, deadline=None)
    def test_normalized_sorted_and_invertible(self, weights):
        d = sb.make_distribution(weights)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-9
        assert (np.diff(d.probs) <= 1e-12).all()
        expected = np.asarray(weights, dtype=float) / sum(weights)
        assert np.allclose(d.restore_input_order(), expected, atol=1e-12)


class TestEntropy:
    def test_fair_coin(self):
        assert sb.entropy(sb.make_distribution([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert sb.entropy(sb.make_distribution([1.0, 0.0, 0.0])) == 0.0

    def test_skewed_pair_matches_high_precision(self):
        got = sb.entropy(sb.make_distribution([0.7, 0.3]))
        assert got == pytest.approx(mp_entropy([0.7, 0.3]), abs=1e-12)
        assert got == pytest.approx(0.881290899231, abs=1e-9)

    @given(weight_lists)
    @settings(max_examples=100, deadline=None)
    def test_matches_high_precision_and_range(self, weights):
        d = sb.make_distribution(weights)
        h = sb.entropy(d)
        assert h == pytest.approx(mp_entropy(d.probs), abs=1e-10)
        assert -1e-12 <= h <= math.log2(d.n) + 1e-9

    def test_extremes_attained(self):
        n = 17
        assert sb.entropy(sb.make_distribution(np.ones(n))) == pytest.approx(
            math.log2(n), abs=1e-12
        )
        point = np.zeros(n)
        point[0] = 1.0
        assert sb.entropy(sb.make_distribution(point)) == 0.0

    @pytest.mark.parametrize("tail", [2e-15, 1e-300, 3e-10])
    def test_dominant_entry_takes_its_term_from_the_rest(self, tail):
        # the stored 1 - 2e-15 is 1.6e-18 off, which moved the entropy of
        # [1, 2e-15] (about 1e-13 bits) by 2.3e-5 relative
        d = sb.make_distribution([1.0, tail])
        rest = mpf(float(d.probs[1]))
        want = -(1 - rest) * mp.log1p(-rest) / mp.log(2) - rest * mp.log(rest) / mp.log(2)
        assert sb.entropy(d) == pytest.approx(float(want), rel=2**-50)

    def test_mass_transfer_strictly_lowers_entropy(self, rng):
        # moving delta from a smaller entry onto a larger one concentrates
        # the distribution, so entropy must strictly drop
        for _ in range(200):
            n = int(rng.integers(2, 12))
            d = sb.make_distribution(rng.random(n) + 1e-3)
            probs = np.array(d.probs)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            delta = min(1.0 - probs[i], probs[j]) * rng.uniform(0.1, 0.9)
            if delta < 1e-6:
                continue
            moved = probs.copy()
            moved[i] += delta
            moved[j] -= delta
            before = sb.entropy(d)
            after = float(
                -(moved[moved > 1e-15] * np.log2(moved[moved > 1e-15])).sum()
            )
            assert after < before - 1e-14


class TestTailProbability:
    def test_head_complement(self):
        d = sb.make_distribution([0.5, 0.25, 0.25])
        assert sb.tail_probability(d, 1) == pytest.approx(0.5, abs=1e-12)

    def test_full_selection_has_zero_tail(self):
        d = sb.make_distribution([0.5, 0.25, 0.25])
        assert sb.tail_probability(d, 3) == 0.0

    def test_uniform_twenty(self):
        d = sb.make_distribution(np.ones(20))
        assert sb.tail_probability(d, 6) == pytest.approx(0.7, abs=1e-12)

    def test_bad_m(self):
        d = sb.make_distribution([1, 1])
        for m in (0, 3, -1):
            with pytest.raises(sb.BadMError):
                sb.tail_probability(d, m)

    @given(weight_lists, st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_tail_inside_feasible_range(self, weights, m):
        d = sb.make_distribution(weights)
        m = min(m, d.n)
        lo, hi = sb.feasible_pi_range(d.n, m)
        assert lo - 1e-12 <= sb.tail_probability(d, m) <= hi + 1e-12


class TestFeasiblePiRange:
    @pytest.mark.parametrize(
        "n,m,hi", [(4, 2, 0.5), (10, 10, 0.0), (15, 5, 2.0 / 3.0)]
    )
    def test_examples(self, n, m, hi):
        assert sb.feasible_pi_range(n, m) == (0.0, pytest.approx(hi, abs=1e-12))

    def test_bad_m(self):
        with pytest.raises(sb.BadMError):
            sb.feasible_pi_range(4, 5)


class TestSystemShape:
    def test_snaps_to_interval(self):
        assert sb.SystemShape(10, 10, 1e-12).pi == 0.0
        assert sb.SystemShape(4, 2, 0.5 + 1e-12).pi == 0.5

    def test_infeasible_rejected(self):
        with pytest.raises(sb.InfeasibleError):
            sb.SystemShape(4, 2, 0.6)
        with pytest.raises(sb.InfeasibleError):
            sb.SystemShape(3, 3, 0.1)

    def test_means_dominate(self):
        s = sb.SystemShape(15, 5, 0.4)
        assert s.head_mean >= s.tail_mean
        assert s.pi_max == pytest.approx(2.0 / 3.0)


class TestWeightParsing:
    def test_lines_with_comments(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# popularity\n0.5\n0.3 # trailing\n\n0.2\n")
        assert np.allclose(sb.read_weights(path), [0.5, 0.3, 0.2])

    def test_json_array(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[3, 2, 1]")
        assert np.allclose(sb.read_weights(path), [3, 2, 1])

    def test_bad_line(self):
        with pytest.raises(sb.InvalidEntryError):
            sb.parse_weights("0.5\npotato\n")

    def test_bad_json(self):
        with pytest.raises(sb.InvalidEntryError):
            sb.parse_weights('["a", 1]')

    def test_empty(self):
        with pytest.raises(sb.InvalidEntryError):
            sb.parse_weights("# nothing here\n")


class TestKeyValueConfig:
    """Both config formats share one key=value reader and its messages."""

    @pytest.mark.parametrize(
        "parse", [sb.parse_sweep_config, sb.parse_scenario_config],
        ids=["sweep", "scenario"],
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 1\nno equals sign\n", "line 2: expected key=value"),
            ("# dup\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed'"),
            ("seed = 1\nbogus = 1 # trailing\n", r"unknown config keys: \['bogus'\]"),
        ],
        ids=["no-equals", "duplicate", "unknown"],
    )
    def test_malformed_input_rejected(self, parse, text, message):
        with pytest.raises(sb.BadConfigError, match=message):
            parse(text)


class TestEntropyTerms:
    def test_matches_the_masked_formula_bit_for_bit(self, rng):
        edges = [0.0, -0.0, -1e-13, 1e-16, 1e-15, np.nextafter(1e-15, 1.0), 0.5,
                 1.0, np.nan, 5e-324, 1e-300, -np.inf, np.inf]
        x = np.concatenate([edges, 10.0 ** rng.uniform(-320, 0, 5000), -rng.random(100)])
        # -x*log2(x) clipped at 0 and masked with np.where: the same values, by temporaries
        clipped = np.maximum(x, 0.0)
        live = clipped > 0.0
        want = np.where(live, -clipped * np.log2(np.where(live, clipped, 1.0)), 0.0)
        got = entropy_terms(x)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[~(x > 0.0)]).any()  # +0.0 at zeros, negatives, NaN
        assert (got[(x > 0.0) & (x < 1.0)] > 0.0).all()  # every probability counts, subnormals too
        assert float(entropy_terms(0.5)) == 0.5  # scalars too


class TestRowsMatchOneDimensionalPath:
    """``sorted_rows``/``entropy_rows`` give what ``make_distribution``/``entropy`` give."""

    #: (weights, error class and message make_distribution raises, or None)
    EDGE_ROWS = [
        ([1.0, np.nan, 2.0], (sb.InvalidEntryError, "raw weights contain NaN or infinite")),
        ([1.0, np.inf, 2.0], (sb.InvalidEntryError, "raw weights contain NaN or infinite")),
        ([1.0, -np.inf, 2.0], (sb.InvalidEntryError, "raw weights contain NaN or infinite")),
        ([1e308, 1e308, np.inf], (sb.InvalidEntryError, "raw weights contain NaN or infinite")),
        ([1.0, -1e-300, 2.0], (sb.InvalidEntryError, "raw weights contain negative")),
        ([1e308, -1e308, 1e-300], (sb.InvalidEntryError, "raw weights contain negative")),
        ([1.0, -0.0, 2.0], None),
        ([0.0, 0.0, 0.0], (sb.AllZeroError, "raw weights carry no positive mass")),
        ([-0.0, -0.0, -0.0], (sb.AllZeroError, "raw weights carry no positive mass")),
        ([1e308, 1e308, 0.5e308], None),
        ([1.7e308, 1.7e308, 1.7e308], None),
        ([5e-324, 1e-323, 5e-324], None),
        ([2.0, 1.0, 2.0], None),
        ([1.0, 1.0, 1.0], None),
        ([0.0, 3.0, 0.0], None),
        ([1.0, 1e-20, 1e-17], None),
    ]

    @staticmethod
    def _check_block(rows, errors):
        probs, ok = sorted_rows(np.array(rows, dtype=float))
        assert ok.tolist() == [e is None for e in errors]
        passed = [row for row, e in zip(rows, errors) if e is None]
        dists = [sb.make_distribution(row) for row in passed]
        for got, dist in zip(probs[ok], dists):
            assert got.tobytes() == dist.probs.tobytes()
        want = np.array([sb.entropy(d) for d in dists])
        assert entropy_rows(probs[ok]).tobytes() == want.tobytes()
        # the masked formula summed over the whole row, every positive entry
        # counted; a first entry above 1/2 takes its term from the rest of the row
        live = [(d.probs, d.probs > 0.0) for d in dists]
        ref = []
        for p, k in live:
            terms = np.where(k, -p * np.log2(np.where(k, p, 1.0)), 0.0)
            if p[0] > 0.5:
                rest = p[1:].sum()
                terms[0] = -(1.0 - rest) * np.log1p(-rest) * (1.0 / math.log(2.0))
            ref.append(max(0.0, float(terms.sum())))
        assert want.tobytes() == np.array(ref).tobytes()
        for row, error in zip(rows, errors):
            if error is not None:
                with pytest.raises(sb.SelboundsError, match=error[1]) as info:
                    sb.make_distribution(row)
                assert type(info.value) is error[0]

    def test_edge_rows(self):
        rows, errors = zip(*self.EDGE_ROWS)
        self._check_block(list(rows), list(errors))

    def test_single_entry_rows(self):
        self._check_block([[3.0], [5e-324], [0.0], [np.nan]], [
            None, None, self.EDGE_ROWS[7][1], self.EDGE_ROWS[0][1],
        ])

    @pytest.mark.parametrize("n", [20, 300, 3000])
    def test_rows_with_entries_at_or_below_the_floor(self, n):
        rows = np.random.default_rng(n).gamma(0.02, size=(40, n))
        probs, ok = sorted_rows(rows)
        # entries at or below 1e-15, once an entropy floor, count like any other
        assert ok.all() and (probs <= 1e-15).any(axis=1).sum() >= 10
        self._check_block(rows.tolist(), [None] * len(rows))


class TestOverflowingTotal:
    WEIGHTS = [1e308, 1e308, 0.5e308]

    def test_one_dimensional_path_normalizes(self):
        d = sb.make_distribution(self.WEIGHTS)
        assert d.probs.tolist() == [0.4, 0.4, 0.2]
        scaled = sb.make_distribution(np.array(self.WEIGHTS) * 2.0**-64)
        assert d.probs.tobytes() == scaled.probs.tobytes()

    def test_row_path_scales_only_the_overflowing_row(self):
        rows = np.array([self.WEIGHTS, [3.0, 1.0, 1.0]])
        probs, ok = sorted_rows(rows)
        assert ok.all()
        assert probs[0].tolist() == [0.4, 0.4, 0.2]
        assert probs[1].tobytes() == sb.make_distribution([3.0, 1.0, 1.0]).probs.tobytes()


class TestColumnRows:
    """The one table type reads as the list of its rows, each built on access."""

    @pytest.fixture(params=["sweep records", "candidates"])
    def table(self, request):
        if request.param == "sweep records":
            return sb.run_sweep(sb.SweepConfig(((6, 2), (9, 9)), 3, 1))[0]
        return sb.min_entropy(sb.SystemShape(15, 5, 0.4)).candidates

    def test_reads_as_the_list_of_rows(self, table):
        rows = list(table)
        assert isinstance(table, ColumnRows) and len(rows) == len(table) > 3
        assert all(type(row) is table.row for row in rows)
        assert repr(table) == repr(rows)
        assert table == rows and rows == table and table == table[:]
        assert table != rows[:-1] and table != rows[::-1]
        assert table[1:3] == rows[1:3] and type(table[1:3]) is list
        assert table[::-2] == rows[::-2] and table[-1] == rows[-1]
        with pytest.raises(IndexError):
            table[len(rows)]

    def test_columns_are_read_only(self, table):
        for column in table.columns.values():
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]
