import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selbounds as sb
from helpers import chain_probability, mp_chain, mp_unique_composite

weight_lists = st.lists(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestSequentialProbability:
    def test_uniform_pair(self):
        d = sb.make_distribution(np.ones(3))
        assert sb.sequential_probability(d, [0, 1]) == pytest.approx(1 / 6, abs=1e-15)

    def test_chain_examples(self):
        d = sb.make_distribution([0.5, 0.3, 0.2])
        assert sb.sequential_probability(d, [0, 1]) == pytest.approx(0.3, abs=1e-12)
        assert sb.sequential_probability(d, [1, 0]) == pytest.approx(
            0.3 * 0.5 / 0.7, abs=1e-12
        )

    def test_duplicate_rejected(self):
        d = sb.make_distribution([1, 1, 1])
        with pytest.raises(sb.DuplicateIdError):
            sb.sequential_probability(d, [0, 0])

    def test_out_of_range(self):
        d = sb.make_distribution([1, 1])
        with pytest.raises(sb.InvalidEntryError):
            sb.sequential_probability(d, [0, 5])

    def test_zero_probability_member_kills_chain(self):
        d = sb.make_distribution([1.0, 1.0, 0.0])
        assert sb.sequential_probability(d, [0, 2]) == 0.0

    def test_matches_plain_chain(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            d = sb.make_distribution(rng.random(n) + 1e-3)
            k = int(rng.integers(1, n + 1))
            order = list(rng.permutation(n)[:k])
            expected = chain_probability(list(d.probs), order)
            assert sb.sequential_probability(d, order) == pytest.approx(
                expected, abs=1e-13
            )

    def test_tiny_members_keep_their_mass(self):
        # 1 - drawn cancels after the heavy member, and members at or below
        # 1e-15 are real mass, not zeros
        d = sb.make_distribution([1.0, 1e-14, 1e-15])
        for order in ([0, 2], [0, 1], [2, 0], [1, 2, 0]):
            exact = mp_chain(d.probs, order)
            assert sb.sequential_probability(d, order) == pytest.approx(
                exact, rel=1e-13, abs=0.0
            )

    @given(
        st.floats(min_value=3.0, max_value=14.0),
        st.integers(min_value=1, max_value=2),
        st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=2, max_size=5),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_skewed_chains_match_exact_chain(self, skew, heavy, light, k):
        weights = [1.0 - 0.1 * i for i in range(heavy)]
        weights += [u * 10.0 ** -skew for u in light]
        d = sb.make_distribution(weights)
        for order in itertools.permutations(range(d.n), min(k, d.n)):
            exact = mp_chain(d.probs, order)
            assert sb.sequential_probability(d, order) == pytest.approx(
                exact, rel=1e-13, abs=0.0
            )


class TestTransformUnique:
    def test_uniform_pairs(self):
        ts = sb.transform_unique(sb.make_distribution(np.ones(3)), 2, 2)
        assert np.allclose(ts.dist.probs, 1 / 3, atol=1e-12)
        assert ts.n_prime == 3 and ts.m_prime == 1

    def test_reference_values(self):
        ts = sb.transform_unique(sb.make_distribution([0.5, 0.3, 0.2]), 2, 2)
        by_members = {
            tuple(row): float(p)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs)
        }
        assert by_members[(0, 1)] == pytest.approx(0.3 + 0.3 * 0.5 / 0.7, abs=1e-12)
        assert by_members[(0, 2)] == pytest.approx(0.2 + 0.2 * 0.5 / 0.8, abs=1e-12)
        assert by_members[(1, 2)] == pytest.approx(
            0.3 * 0.2 / 0.7 + 0.2 * 0.3 / 0.8, abs=1e-12
        )
        assert float(ts.dist.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_selected_count(self):
        ts = sb.transform_unique(sb.make_distribution([0.5, 0.3, 0.2]), 2, 2)
        assert int(ts.in_selected.sum()) == 1  # C(2, 2)

    def test_insufficient_support(self):
        d = sb.make_distribution([1.0, 0.0, 0.0])
        with pytest.raises(sb.ZeroDenominatorError):
            sb.transform_unique(d, 3, 2)

    def test_dp_matches_permutation_sum(self, rng):
        # the subset DP must agree with brute-force k! enumeration
        for _ in range(60):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(n, 4) + 1))
            d = sb.make_distribution(rng.random(n) + 1e-3)
            ts = sb.transform_unique(d, n, k)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs):
                brute = sum(
                    chain_probability(list(d.probs), perm)
                    for perm in itertools.permutations(row)
                )
                assert float(p) == pytest.approx(brute, abs=1e-12)


class TestTransformRepeated:
    def test_uniform_multisets(self):
        ts = sb.transform_repeated(sb.make_distribution(np.ones(3)), 2, 2)
        sets = {
            tuple(row): float(p)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs)
        }
        assert set(sets) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
        for key, value in sets.items():
            expected = 1 / 9 if key[0] == key[1] else 2 / 9
            assert value == pytest.approx(expected, abs=1e-12)

    def test_binomial_expansion(self):
        ts = sb.transform_repeated(sb.make_distribution([0.6, 0.4]), 2, 2)
        sets = {
            tuple(row): float(p)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs)
        }
        assert sets[(0, 0)] == pytest.approx(0.36, abs=1e-12)
        assert sets[(0, 1)] == pytest.approx(0.48, abs=1e-12)
        assert sets[(1, 1)] == pytest.approx(0.16, abs=1e-12)

    def test_multinomial_triple(self):
        ts = sb.transform_repeated(sb.make_distribution([0.5, 0.3, 0.2]), 3, 3)
        sets = {
            tuple(row): float(p)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs)
        }
        assert sets[(0, 0, 1)] == pytest.approx(3 * 0.5**2 * 0.3, abs=1e-12)
        # verify against enumeration of all 27 ordered triples
        brute = {}
        probs = [0.5, 0.3, 0.2]
        for tup in itertools.product(range(3), repeat=3):
            key = tuple(sorted(tup))
            brute[key] = brute.get(key, 0.0) + math.prod(probs[i] for i in tup)
        for key, value in sets.items():
            assert value == pytest.approx(brute[key], abs=1e-13)


class TestTransformInvariants:
    @given(weight_lists, st.integers(min_value=1, max_value=4), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_mass_conserved_and_counts(self, weights, k, repeated):
        d = sb.make_distribution(weights)
        n = d.n
        if k > n:
            k = n
        m = k  # smallest valid selection
        if repeated:
            ts = sb.transform_repeated(d, m, k)
            assert ts.n_prime == math.comb(n + k - 1, k)
            assert int(ts.in_selected.sum()) == math.comb(m + k - 1, k)
        else:
            ts = sb.transform_unique(d, m, k)
            assert ts.n_prime == math.comb(n, k)
            assert int(ts.in_selected.sum()) == math.comb(m, k)
        assert ts.m_prime == int(ts.in_selected.sum())
        assert float(ts.dist.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_k1_identity(self, rng):
        for mode_fn in (sb.transform_unique, sb.transform_repeated):
            d = sb.make_distribution(rng.random(6) + 1e-3)
            ts = mode_fn(d, 3, 1)
            assert ts.n_prime == 6 and ts.m_prime == 3
            assert np.allclose(ts.dist.probs, d.probs, atol=1e-12)
            assert ts.composite_members.ravel().tolist() == list(range(6))

    def test_equal_probability_symmetry(self):
        # permuting equally-probable objects permutes composite masses
        d = sb.make_distribution([0.3, 0.3, 0.2, 0.2])
        ts = sb.transform_unique(d, 2, 2)
        sets = {
            tuple(row): float(p)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs)
        }
        assert sets[(0, 2)] == pytest.approx(sets[(1, 2)], abs=1e-12)
        assert sets[(0, 3)] == pytest.approx(sets[(1, 3)], abs=1e-12)
        assert sets[(0, 2)] == pytest.approx(sets[(0, 3)], abs=1e-12)

    def test_zero_probability_objects_participate(self):
        d = sb.make_distribution([2.0, 1.0, 0.0])
        ts = sb.transform_repeated(d, 2, 2)
        assert ts.n_prime == 6  # count identity holds even with zero mass
        sets = {
            tuple(row): float(p)
            for row, p in zip(ts.composite_members.tolist(), ts.dist.probs)
        }
        assert sets[(2, 2)] == 0.0
        assert float(ts.dist.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_descending_with_lexicographic_ties(self):
        d = sb.make_distribution(np.ones(4))
        ts = sb.transform_unique(d, 2, 2)
        assert (np.diff(ts.dist.probs) <= 1e-15).all()
        assert ts.composite_members.tolist() == sorted(ts.composite_members.tolist())

    @given(
        st.floats(min_value=3.0, max_value=14.0),
        st.integers(min_value=1, max_value=2),
        st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=2, max_size=5),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_skewed_composites_match_exact_chain(self, skew, heavy, light, k):
        # a few heavy objects and light ones 10^-skew smaller: drawing the
        # heavy ones first leaves a remainder that 1 - mass would cancel
        weights = [1.0 - 0.1 * i for i in range(heavy)]
        weights += [u * 10.0 ** -skew for u in light]
        d = sb.make_distribution(weights)
        k = min(k, d.n)
        ts = sb.transform_unique(d, k, k)
        for row, p in zip(ts.composite_members.tolist(), ts.dist.probs):
            exact = mp_unique_composite(d.probs, row)
            assert float(p) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_caps(self, monkeypatch):
        d = sb.make_distribution(np.ones(30))
        with pytest.raises(sb.TooLargeError):
            sb.transform_unique(d, 30, 9)  # k beyond the unique-mode cap
        monkeypatch.setenv("SELBOUNDS_MAX_COMPOSITES", "100")
        with pytest.raises(sb.TooLargeError):
            sb.transform_unique(d, 30, 8)
        with pytest.raises(sb.BadKError):
            sb.transform_unique(d, 5, 6)

    def test_mismatch_flag_near_uniform_repeated(self):
        # near-uniform repeated systems select composites that are not the
        # most probable ones (doubles lose to mixed pairs)
        d = sb.make_distribution([0.35, 0.33, 0.32])
        ts = sb.transform_repeated(d, 2, 2)
        assert ts.selection_mismatch
        assert ts.selected_probability < ts.sorted_head_probability

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("SELBOUNDS_MAX_COMPOSITES", "3")
        d = sb.make_distribution(np.ones(5))
        with pytest.raises(sb.TooLargeError):
            sb.transform_unique(d, 3, 2)
