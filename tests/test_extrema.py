import math
import tracemalloc

import numpy as np
import pytest

import selbounds as sb
from selbounds.core import entropy_terms
from selbounds.oracle import oracle_min_entropy
from helpers import (
    batch_entropy,
    branch_head_entropy,
    branch_tail_entropy,
    feasible_batch,
    mp_entropy,
    mp_max_entropy,
    mp_min_entropy,
    mp_min_entropy_m1,
    near_min_slots,
    scan_min_entropy_values,
)


def random_shape(rng, n_max=40):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, n + 1))
    pi = float(rng.uniform(0.0, (n - m) / n)) if m < n else 0.0
    return sb.SystemShape(n, m, pi)


class TestMaxEntropy:
    def test_boundary_forces_uniform(self):
        d = sb.max_entropy_distribution(sb.SystemShape(4, 2, 0.5))
        assert np.allclose(d.probs, 0.25, atol=1e-12)

    def test_flat_segments(self):
        d = sb.max_entropy_distribution(sb.SystemShape(5, 2, 0.4))
        assert np.allclose(d.probs, [0.3, 0.3, 0.4 / 3, 0.4 / 3, 0.4 / 3], atol=1e-12)

    def test_full_selection_uniform(self):
        d = sb.max_entropy_distribution(sb.SystemShape(3, 3, 0.0))
        assert np.allclose(d.probs, 1.0 / 3.0, atol=1e-15)

    def test_closed_form_examples(self):
        assert sb.max_entropy(sb.SystemShape(4, 2, 0.5)) == pytest.approx(2.0, abs=1e-12)
        assert sb.max_entropy(sb.SystemShape(15, 5, 0.4)) == pytest.approx(
            mp_max_entropy(15, 5, 0.4), abs=1e-12
        )
        assert sb.max_entropy(sb.SystemShape(10, 3, 0.0)) == pytest.approx(
            math.log2(3), abs=1e-12
        )

    def test_closed_form_matches_construction(self, rng):
        for _ in range(300):
            shape = random_shape(rng)
            built = sb.entropy(sb.max_entropy_distribution(shape))
            assert built == pytest.approx(sb.max_entropy(shape), abs=1e-10)

    def test_random_feasible_never_exceed(self, rng):
        # hill-climbing pressure: no feasible sample may beat the closed form
        for _ in range(30):
            shape = random_shape(rng, n_max=60)
            rows = feasible_batch(shape.n, shape.m, shape.pi, 400, rng)
            assert (batch_entropy(rows) <= sb.max_entropy(shape) + 1e-9).all()


class TestMinEntropyM1:
    def test_first_branch(self):
        d = sb.min_entropy_m1(3, 0.3)
        assert np.allclose(d.probs, [0.7, 0.3, 0.0], atol=1e-12)

    def test_second_branch(self):
        d = sb.min_entropy_m1(4, 0.6)
        assert np.allclose(d.probs, [0.4, 0.4, 0.2, 0.0], atol=1e-12)

    def test_boundary_unique_point(self):
        d = sb.min_entropy_m1(2, 0.5)
        assert np.allclose(d.probs, [0.5, 0.5], atol=1e-15)

    def test_infeasible(self):
        with pytest.raises(sb.InfeasibleError):
            sb.min_entropy_m1(3, 0.9)

    def test_tiny_pi_keeps_the_remainder(self, rng):
        # The remainder must carry pi's precision: taken as 1 - (1 - pi) it
        # cancelled, was snapped to 0 at pi = 1e-12 (1.4e-12 bits instead of
        # 4.1e-11) and was off by 1.5e-5 relative at pi = 3e-12.  The step
        # 1 - pi is rounded (up to 2**-54); both the reported bits and the
        # entropy of the stored staircase take its term from pi instead.
        pis = np.concatenate([[1e-12, 3e-12, 1e-9], 10 ** rng.uniform(-12, -9, 60)])
        for n in (2, 5, 1000):
            for pi in pis:
                result = sb.min_entropy(sb.SystemShape(n, 1, float(pi)))
                exact = mp_min_entropy_m1(n, pi)
                assert result.min_entropy_bits == pytest.approx(exact, rel=2**-50, abs=0)
                assert result.min_entropy_bits == pytest.approx(
                    sb.min_entropy_value(n, 1, float(pi)), rel=1e-12
                )
                stair = result.argmin_distribution.probs
                assert stair[1] == float(pi)
                assert sb.entropy(result.argmin_distribution) == result.min_entropy_bits

    @pytest.mark.parametrize("n, m", [(13, 1), (5, 1), (9, 2), (10, 6), (11, 9)])
    def test_not_above_the_maximum_at_the_ceiling(self, n, m):
        # at the double (n-m)/n, above the rational one for these shapes,
        # the staircase's remainder has no slot left; counted, it put
        # H_min(13, 1) at 3.7004397181411246, above log2 13
        pi = (n - m) / n
        h_max = sb.max_entropy_value(n, m, pi)
        assert sb.min_entropy_value(n, m, pi) <= h_max
        assert sb.min_entropy(sb.SystemShape(n, m, pi)).min_entropy_bits <= h_max
        assert sb.min_entropy_value(13, 1, 12 / 13) <= math.log2(13)

    def test_matches_general_assembly_exactly(self, rng):
        # forcing p_hat = 1 - pi through the generic construction must
        # reproduce the staircase
        for n in range(2, 9):
            for pi in np.linspace(0.0, (n - 1) / n, 50):
                shape = sb.SystemShape(n, 1, float(pi))
                stair = sb.min_entropy_m1(n, float(pi))
                if shape.pi <= 0.0:
                    continue
                rebuilt = sb.assemble_min_candidate(shape, 1.0 - shape.pi)
                assert np.allclose(stair.probs, rebuilt.probs, atol=1e-12, rtol=0)


class TestCandidateSet:
    def test_reference_shape(self):
        cands = sb.candidate_set(sb.SystemShape(15, 5, 0.4))
        expected = [0.4 / 10, 0.4 / 9, 0.4 / 8, 0.4 / 7, 0.4 / 6, 0.4 / 5, 0.1, 0.12]
        assert len(cands) == 8
        assert np.allclose(cands, expected, atol=1e-12)

    def test_boundary_single_point(self):
        cands = sb.candidate_set(sb.SystemShape(4, 2, 0.5))
        assert np.allclose(cands, [0.25], atol=1e-12)

    def test_small_interior(self):
        cands = sb.candidate_set(sb.SystemShape(6, 2, 0.5))
        assert np.allclose(cands, [0.125, 1.0 / 6.0, 0.25], atol=1e-12)

    def test_m1_rejected(self):
        with pytest.raises(sb.BadMError):
            sb.candidate_set(sb.SystemShape(5, 1, 0.3))

    def test_values_inside_interval(self, rng):
        for _ in range(200):
            shape = random_shape(rng)
            if shape.m < 2 or shape.pi <= 0.0:
                continue
            cands = sb.candidate_set(shape)
            lo = shape.pi / (shape.n - shape.m)
            hi = (1.0 - shape.pi) / shape.m
            assert (cands >= lo - 1e-12).all() and (cands <= hi + 1e-12).all()
            assert (np.diff(cands) > 0).all()

    def test_junctions_closer_than_tolerance_are_kept(self):
        # at pi = 4.55e-9 neighbouring junctions pi/s lie about 4e-14 apart;
        # merging them within 1e-9 dropped the minimum (7% too high)
        shape = sb.SystemShape(346, 2, 4.55e-9)
        cands = sb.candidate_set(shape)
        assert len(cands) == sb.min_entropy(shape).index_bound + 1
        bits = sb.min_entropy(shape).min_entropy_bits
        assert bits == sb.min_entropy_value(346, 2, shape.pi)
        assert bits == pytest.approx(mp_min_entropy(346, 2, shape.pi), rel=1e-12, abs=1e-15)

    def test_min_entropy_equals_fast_path_exactly(self):
        # the search and the vectorized H_min that the tight bounds invert
        # agree bit for bit (every pi > 0: TestOneJunctionRule)
        rng = np.random.default_rng(7)
        for _ in range(1500):
            n = int(rng.integers(3, 1001))
            m = int(rng.integers(2, n))
            top = (n - m) / n
            shape = sb.SystemShape(n, m, float(top * 10 ** rng.uniform(-9, 0)))
            exact = sb.min_entropy(shape).min_entropy_bits
            assert exact == sb.min_entropy_value(n, m, shape.pi), (n, m, shape.pi)


class TestOneJunctionRule:
    """``min_entropy`` and ``min_entropy_value`` evaluate every junction alike."""

    @staticmethod
    def _agree(n, m, pi) -> bool:
        """Whether the two agree bit for bit; where not, they must be within the head's rounding.

        The head entry ``(1-pi) - (m-1)*pi/s`` is rounded before its term is
        taken, which can move a junction's value by up to
        ``log2(e)*min(m*pi, 2**-52)`` bits.  Where that exceeds the gaps
        between junctions far from the root, a scan over every junction can
        find a lower rounded value than the few around the root.
        """
        shape = sb.SystemShape(n, m, pi)
        assert shape.pi > 0.0
        exact = sb.min_entropy(shape).min_entropy_bits
        fast = sb.min_entropy_value(n, m, shape.pi)
        assert abs(exact - fast) <= 2 * math.log2(math.e) * min(m * pi, 2**-52), (n, m, pi)
        return exact == fast

    def test_shape_where_a_snapped_slot_once_split_them(self):
        # 4.66004e-8 from the search against 4.66169e-8 from the kernel
        assert self._agree(1970, 188, 1.0012e-9)

    @pytest.mark.parametrize("decades, count", [(14, 3000), (300, 1500)])
    def test_bit_for_bit_on_random_shapes(self, decades, count):
        rng = np.random.default_rng(decades)
        unequal = []
        for _ in range(count):
            n = int(rng.integers(2, 2001))
            m = int(rng.integers(1, n))
            pi = float((n - m) / n * 10 ** rng.uniform(-decades, 0))
            if not self._agree(n, m, pi):
                unequal.append(pi / ((n - m) / n))
        assert unequal == []

    def test_argmin_keeps_the_whole_tail_mass(self, rng):
        # below pi = 1e-12 the argmin was a point mass; above it its tail
        # was off by up to 1.5e-12
        for pi in np.concatenate([[1e-13, 1e-300, 5e-324], 10 ** rng.uniform(-15, -9, 20)]):
            for n, m in ((3, 1), (50, 1), (50, 3), (2000, 188)):
                dist = sb.min_entropy(sb.SystemShape(n, m, float(pi))).argmin_distribution
                tail = math.fsum(dist.probs[m:])
                assert tail == pytest.approx(float(pi), rel=4 * (n - m) * 2**-53), (n, m, pi)

    def test_junction_that_underflows_to_zero_is_skipped(self):
        # at (4, 2, 5e-324) the junction pi/2 rounds to 0: that point holds no
        # tail mass, and it scored 0 bits; the minimum is the junction pi/1
        shape = sb.SystemShape(4, 2, 5e-324)
        tail = 2 * float(entropy_terms(np.array([5e-324]))[0])
        result = sb.min_entropy(shape)
        assert 0.0 not in result.candidates.columns["p_hat"].tolist()
        assert result.min_entropy_bits == sb.min_entropy_value(4, 2, 5e-324)
        assert math.fsum(result.argmin_distribution.probs[2:]) == 5e-324
        # the head entry's 2*pi*log2(e), taken through log1p, adds 3 ulps
        assert result.min_entropy_bits == tail + 3 * 5e-324 == oracle_min_entropy(shape)


class TestFewJunctionKernel:
    """``min_entropy_values`` against the scan over every junction."""

    #: n' and m' of the k = 3 unique composite system of 200 objects, m = 20
    COMPOSITE = (1_313_400, 1140)

    @staticmethod
    def _pis(rng, n, m):
        top = (n - m) / n
        return np.concatenate([
            rng.uniform(0.0, top, 8),
            top * 10.0 ** rng.uniform(-12, 0, 8),
            [0.0, 1e-12, 2e-12, 1e-11, top],
        ])

    def _cases(self, rng):
        shapes = []
        for _ in range(300):
            n = int(rng.integers(2, 3000))
            shapes.append((n, int(rng.integers(1, n))))
        for n in (2, 3, 10, 101, 2999):
            shapes += [(n, 1), (n, n - 1)] + ([(n, 2)] if n > 2 else [])
        cases = [(n, m, self._pis(rng, n, m)) for n, m in shapes]
        # only the n-m junction is valid for pi above (n-m-1)/(n-1)
        n, m = 50, 10
        single = np.array([(n - m) / n, 0.5 * ((n - m - 1) / (n - 1) + (n - m) / n)])
        assert (single / (n - m - 1) > (1.0 - single) / m).all()
        cases.append((n, m, single))
        n, m = self.COMPOSITE
        cases.append((n, m, self._pis(rng, n, m)))
        return cases

    def test_matches_scan(self, rng):
        points = same = 0
        for n, m, pis in self._cases(rng):
            got = sb.min_entropy_values(n, m, pis)
            want = scan_min_entropy_values(n, m, pis)
            points += pis.size
            same += int((got == want).sum())
            assert np.abs(got - want).max() <= 2.5e-16, (n, m)
            for pi, g, w in zip(pis[got != want], got[got != want], want[got != want]):
                slots = near_min_slots(n, m, pi).tolist() if n - m > 10_000 else None
                exact = mp_min_entropy(n, m, pi, slots)
                assert abs(g - exact) <= 5e-16 and abs(w - exact) <= 5e-16, (n, m, pi)
        assert same >= 0.999 * points, (same, points)

    def test_composite_size_memory_is_bounded(self):
        n, m = self.COMPOSITE
        pis = np.linspace(0.0, (n - m) / n, 100)
        tracemalloc.start()
        try:
            sb.min_entropy_values(n, m, pis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


class TestAssembleMinCandidate:
    def test_reference_assembly(self):
        d = sb.assemble_min_candidate(sb.SystemShape(15, 5, 0.4), 0.1)
        assert np.allclose(d.probs, [0.2] + [0.1] * 8 + [0.0] * 6, atol=1e-12)
        assert sb.entropy(d) == pytest.approx(
            mp_entropy([0.2] + [0.1] * 8), abs=1e-12
        )

    def test_boundary_uniform(self):
        d = sb.assemble_min_candidate(sb.SystemShape(4, 2, 0.5), 0.25)
        assert np.allclose(d.probs, 0.25, atol=1e-12)

    def test_zero_remainder(self):
        d = sb.assemble_min_candidate(sb.SystemShape(6, 2, 0.5), 0.25)
        assert np.allclose(d.probs, [0.25] * 4 + [0.0] * 2, atol=1e-12)

    def test_out_of_interval(self):
        with pytest.raises(sb.BadPHatError):
            sb.assemble_min_candidate(sb.SystemShape(15, 5, 0.4), 0.2)

    def test_candidates_are_feasible(self, rng):
        # every assembled candidate satisfies the head/tail mass split and
        # the global ordering
        for _ in range(200):
            shape = random_shape(rng, n_max=30)
            if shape.m < 2 or shape.pi <= 0.0:
                continue
            for p_hat in sb.candidate_set(shape):
                d = sb.assemble_min_candidate(shape, float(p_hat))
                head = float(d.probs[: shape.m].sum())
                tail = float(d.probs[shape.m :].sum())
                assert head == pytest.approx(1.0 - shape.pi, abs=1e-9)
                assert tail == pytest.approx(shape.pi, abs=1e-9)
                assert (np.diff(d.probs) <= 1e-12).all()


class TestMinEntropy:
    def test_m1_delegates(self):
        res = sb.min_entropy(sb.SystemShape(3, 1, 0.3))
        assert res.min_entropy_bits == pytest.approx(mp_entropy([0.7, 0.3]), abs=1e-12)

    def test_boundary_uniform(self):
        res = sb.min_entropy(sb.SystemShape(4, 2, 0.5))
        assert res.min_entropy_bits == pytest.approx(2.0, abs=1e-12)

    def test_zero_pi_point_mass(self):
        res = sb.min_entropy(sb.SystemShape(7, 3, 0.0))
        assert res.min_entropy_bits == 0.0
        assert res.argmin_distribution.probs[0] == 1.0

    def test_reference_shape(self):
        res = sb.min_entropy(sb.SystemShape(15, 5, 0.4))
        assert len(res.candidates) == 8
        assert res.index_bound == 7
        assert res.min_entropy_bits <= mp_entropy([0.2] + [0.1] * 8) + 1e-12
        assert res.min_entropy_bits >= sb.entropy_lower_bound(sb.SystemShape(15, 5, 0.4)) - 1e-9
        assert res.min_entropy_bits == pytest.approx(3.120505923987, abs=1e-9)

    def test_recorded_entropies_match_distributions(self, rng):
        for _ in range(100):
            shape = random_shape(rng, n_max=25)
            res = sb.min_entropy(shape)
            for cand in res.candidates:
                assert cand.entropy_bits == pytest.approx(
                    sb.entropy(cand.distribution), abs=1e-12
                )
            assert res.min_entropy_bits == min(c.entropy_bits for c in res.candidates)

    def test_fast_path_agrees_with_assembly(self, rng):
        for _ in range(300):
            shape = random_shape(rng, n_max=60)
            fast = sb.min_entropy_value(shape.n, shape.m, shape.pi)
            exact = sb.min_entropy(shape).min_entropy_bits
            assert fast == pytest.approx(exact, abs=1e-9)

    def test_merged_level_dominates_split_levels(self, rng):
        # head at p_prime > p_hat with tail at p_hat never beats the merged
        # assembly at p_hat
        for _ in range(50):
            shape = random_shape(rng, n_max=20)
            n, m, pi = shape.n, shape.m, shape.pi
            if m < 2 or pi <= 1e-6:
                continue
            lo = pi / (n - m)
            hi = (1.0 - pi) / m
            for _ in range(20):
                p_hat = float(rng.uniform(lo, hi))
                p_prime = float(rng.uniform(p_hat, hi))
                merged = sb.entropy(sb.assemble_min_candidate(shape, p_hat))
                head = [(1.0 - pi) - (m - 1) * p_prime] + [p_prime] * (m - 1)
                tail = list(
                    sb.assemble_min_candidate(shape, p_hat).probs[m:]
                )
                split = batch_entropy(np.asarray([head + tail]))[0]
                assert split >= merged - 1e-9


def _edge_shapes(rng):
    """Random shapes plus n = 2, m = n-1, pi at (n-m)/n and tiny pi."""
    shapes = [random_shape(rng, n_max=40) for _ in range(150)]
    for n in (2, 3, 9, 40):
        for m in range(1, n):
            shapes.append(sb.SystemShape(n, m, (n - m) / n))
            shapes.append(sb.SystemShape(n, m, float(rng.uniform(0, (n - m) / n))))
    for n in (5, 60, 2000):
        for pi in (1e-12, 3e-11, 1e-9):
            shapes.extend(sb.SystemShape(n, m, pi) for m in (1, 2, n - 1))
    return shapes


class TestCandidateEntropyKernel:
    def test_kernel_matches_assembled_entropy(self, rng):
        from selbounds.curves import _candidate_entropies

        for shape in _edge_shapes(rng):
            n, m, pi = shape.n, shape.m, shape.pi
            res = sb.min_entropy(shape)
            for cand in res.candidates:
                assert cand.entropy_bits == pytest.approx(
                    sb.entropy(cand.distribution), abs=1e-12
                )
            if pi <= 0.0:
                continue
            p_hats = [c.p_hat for c in res.candidates]
            kernel = _candidate_entropies(n, m, pi, p_hats)
            for p_hat, bits in zip(p_hats, kernel):
                d = sb.assemble_min_candidate(shape, p_hat)
                assert bits == pytest.approx(sb.entropy(d), abs=1e-12)
            if m < 2:
                continue
            assert [c.entropy_bits for c in res.candidates] == kernel.tolist()
            for s in sb.piecewise_curve(shape, 25):
                d = sb.assemble_min_candidate(shape, s.p_hat)
                assert s.entropy_bits == pytest.approx(sb.entropy(d), abs=1e-12)
                full_slots = int(np.count_nonzero(d.probs[m:] == s.p_hat))
                assert s.segment_index == (n - m) - full_slots

    def test_min_entropy_builds_only_the_argmin_distribution(self, monkeypatch):
        import selbounds.extrema as extrema

        built = []

        class Counting(sb.SortedDistribution):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(extrema, "SortedDistribution", Counting)
        for shape in (
            sb.SystemShape(15, 5, 0.4),
            sb.SystemShape(2000, 200, 0.3),
            sb.SystemShape(3, 1, 0.3),
            sb.SystemShape(7, 3, 0.0),
        ):
            built.clear()
            res = sb.min_entropy(shape)
            assert built == []
            dist = res.argmin_distribution
            assert len(built) == 1
            assert sb.entropy(dist) == pytest.approx(res.min_entropy_bits, abs=1e-12)


class TestMinimalityAgainstSampling:
    def test_no_feasible_sample_goes_below(self, rng):
        for _ in range(40):
            shape = random_shape(rng, n_max=8)
            rows = feasible_batch(shape.n, shape.m, shape.pi, 300, rng)
            h_min = sb.min_entropy(shape).min_entropy_bits
            assert (batch_entropy(rows) >= h_min - 1e-9).all()


class TestPiecewiseCurve:
    def test_junction_markers_and_values(self):
        shape = sb.SystemShape(15, 5, 0.4)
        samples = sb.piecewise_curve(shape, 200)
        junctions = [s for s in samples if s.is_junction]
        assert len(junctions) == 8
        cands = sb.candidate_set(shape)
        assert np.allclose([s.p_hat for s in junctions], cands, atol=1e-12)
        # curve values decompose into the head + tail branch closed forms
        for s in samples:
            expected = branch_head_entropy(s.p_hat, 5, 0.4) + branch_tail_entropy(
                s.p_hat, 15, 5, 0.4
            )
            assert s.entropy_bits == pytest.approx(expected, abs=1e-9)

    def test_interior_junction_tail_entropy(self):
        # at an interior junction the tail is exactly uniform over its
        # support, contributing -pi*log2(p_hat)
        shape = sb.SystemShape(15, 5, 0.4)
        for p_hat in sb.candidate_set(shape)[:-1]:
            d = sb.assemble_min_candidate(shape, float(p_hat))
            tail = d.probs[5:]
            tail_bits = batch_entropy(tail[None, :])[0]
            assert tail_bits == pytest.approx(-0.4 * math.log2(p_hat), abs=1e-9)

    def test_piecewise_concavity(self):
        samples = sb.piecewise_curve(sb.SystemShape(15, 5, 0.4), 400)
        by_segment: dict[int, list] = {}
        for s in samples:
            by_segment.setdefault(s.segment_index, []).append(s)
        for seg in by_segment.values():
            seg.sort(key=lambda s: s.p_hat)
            xs = np.array([s.p_hat for s in seg])
            ys = np.array([s.entropy_bits for s in seg])
            if len(xs) < 3:
                continue
            # second difference of a concave function is non-positive
            for i in range(1, len(xs) - 1):
                left = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
                right = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                assert right <= left + 1e-7

    def test_left_endpoint_uniform_tail(self, rng):
        for _ in range(50):
            shape = random_shape(rng, n_max=20)
            if shape.m < 2 or shape.pi <= 1e-9 or shape.m == shape.n:
                continue
            lo = shape.pi / (shape.n - shape.m)
            d = sb.assemble_min_candidate(shape, lo)
            tail = d.probs[shape.m :]
            assert np.allclose(tail, lo, atol=1e-12)

    def test_every_grid_point_off_a_junction_is_kept(self):
        # three of these grid points lie within 1e-12 of a junction
        shape = sb.SystemShape(20000, 10000, 0.4)
        samples = sb.piecewise_curve(shape, 5000)
        is_junction = samples.columns["is_junction"]
        junctions = sb.candidate_set(shape)
        grid = np.linspace(0.4 / 10000, 0.6 / 10000, 5000)
        kept = grid[~np.isin(grid, junctions)]
        assert samples.columns["p_hat"][~is_junction].tolist() == kept.tolist()

    def test_degenerate_interval(self):
        samples = sb.piecewise_curve(sb.SystemShape(4, 2, 0.5), 2)
        values = {round(s.entropy_bits, 12) for s in samples}
        assert values == {2.0}

    def test_bad_args(self):
        with pytest.raises(sb.BadMError):
            sb.piecewise_curve(sb.SystemShape(5, 1, 0.3), 10)
        with pytest.raises(sb.InfeasibleError):
            sb.piecewise_curve(sb.SystemShape(5, 2, 0.0), 10)
        with pytest.raises(sb.BadConfigError):
            sb.piecewise_curve(sb.SystemShape(15, 5, 0.4), 1)


def reference_candidates(shape):
    """The candidate tuple :func:`min_entropy` built before it kept columns."""
    from selbounds.curves import _candidate_entropies

    n, m, pi = shape.n, shape.m, shape.pi
    if pi == 0.0:
        return (sb.CandidateEvaluation(0.0, 0.0, shape),)
    p_hats = sb.candidate_set(shape) if m > 1 else np.array([1.0 - pi])
    bits = _candidate_entropies(n, m, pi, p_hats)
    return tuple(sb.CandidateEvaluation(float(p), float(b), shape) for p, b in zip(p_hats, bits))


def reference_curve(shape, samples):
    """:func:`piecewise_curve` as a distance matrix and one dataclass per point."""
    from selbounds.curves import _candidate_entropies, _tail_split

    n, m, pi = shape.n, shape.m, shape.pi
    junctions = sb.candidate_set(shape)
    lo, hi = pi / (n - m), (1.0 - pi) / m
    grid = np.linspace(lo, hi, samples)
    keep = np.abs(grid[:, None] - junctions[None, :]).min(axis=1) > 0
    points = np.concatenate([junctions, grid[keep]])
    flags = np.concatenate([np.ones(junctions.size, bool), np.zeros(int(keep.sum()), bool)])
    order = np.argsort(points, kind="stable")
    points = np.clip(points[order], lo, hi)
    copies, _ = _tail_split(pi, points)
    bits = _candidate_entropies(n, m, pi, points)
    return [
        sb.CurveSample(float(p), float(b), (n - m) - int(c), bool(f))
        for p, b, c, f in zip(points, bits, copies, flags[order])
    ]


def _exact_fields(row):
    """A row's fields with their Python types, so 1 == 1.0 == True cannot pass."""
    return [(type(v), v) for v in vars(row).values()]


class TestColumnBackedResults:
    SHAPES = [(15, 5, 0.4), (4, 2, 0.5), (200, 20, 0.3), (13, 12, 1 / 13), (12, 1, 0.3),
              (12, 4, 0.0), (8, 8, 0.0), (50, 3, 1e-13), (5000, 40, 2e-6)]

    @pytest.mark.parametrize("n, m, pi", SHAPES)
    def test_candidates_equal_the_dataclass_tuple(self, n, m, pi):
        shape = sb.SystemShape(n, m, pi)
        res, want = sb.min_entropy(shape), reference_candidates(shape)
        assert len(res.candidates) == len(want)
        assert [_exact_fields(c) for c in res.candidates] == [_exact_fields(c) for c in want]
        for i in (0, len(want) // 2, -1):
            assert res.candidates[i] == want[i]
            assert np.array_equal(res.candidates[i].distribution.probs, want[i].distribution.probs)
        assert list(res.candidates[1:3]) == list(want[1:3])
        best = want[res.argmin_index]
        assert res.min_entropy_bits == best.entropy_bits == min(c.entropy_bits for c in want)
        assert np.array_equal(res.argmin_distribution.probs, best.distribution.probs)
        with pytest.raises(IndexError):
            res.candidates[len(want)]

    @pytest.mark.parametrize("n, m, pi", [s for s in SHAPES if s[1] >= 2 and s[2] > 0])
    @pytest.mark.parametrize("samples", [2, 25, 200])
    def test_curve_equals_the_dataclass_list(self, n, m, pi, samples):
        shape = sb.SystemShape(n, m, pi)
        got, want = sb.piecewise_curve(shape, samples), reference_curve(shape, samples)
        assert len(got) == len(want)
        assert [_exact_fields(s) for s in got] == [_exact_fields(s) for s in want]
        assert got == want and got[-1] == want[-1]

    def test_results_compare_and_hash_by_value(self):
        shape = sb.SystemShape(200, 20, 0.3)
        a, b = sb.min_entropy(shape), sb.min_entropy(shape)
        assert a == b and hash(a) == hash(b)
        assert a.candidates == reference_candidates(shape)
        assert a != sb.min_entropy(sb.SystemShape(200, 20, 0.31))

    def test_columns_are_read_only(self):
        res = sb.min_entropy(sb.SystemShape(15, 5, 0.4))
        with pytest.raises(ValueError):
            res.candidates.columns["p_hat"][0] = 1.0

    @pytest.mark.parametrize("build", [
        lambda shape: sb.piecewise_curve(shape, 200),
        sb.min_entropy,
    ], ids=["piecewise_curve", "min_entropy"])
    def test_memory_is_linear_in_n(self, build):
        # One float per candidate or point costs 8 B x n; the distance
        # matrix of 200 samples by ~n junctions alone took 3,100 B x n.
        n = 50_000
        tracemalloc.start()
        try:
            build(sb.SystemShape(n, 1_000, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * n, peak
