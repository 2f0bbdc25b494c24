import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mpf

import selbounds as sb
import selbounds.inversion as inversion
from helpers import (
    batch_entropy,
    feasible_batch,
    mp_entropy,
    mp_h_max,
    mp_h_min,
    mp_invert_lower,
    mp_invert_upper,
    mp_log2,
    mp_min_entropy,
    reference_analytic,
)
from selbounds.curves import max_entropy_values
from selbounds.inversion import _analytic_bounds
from selbounds.oracle import (
    REFERENCE_SWEEP_SHAPES,
    _observe_shape,
    reference_sweep_config,
    run_sweep,
)


def mp_pi_lower(n, m, h) -> float:
    return float((mpf(h) - 1 - mp_log2(m)) / mp_log2(mpf(n) / m - 1))


def mp_invert_max_entropy(n, m, h) -> float:
    return float(mp_invert_lower(n, m, h))


class TestEntropyLowerBound:
    def test_reference_shape_under_minimum(self):
        shape = sb.SystemShape(15, 5, 0.4)
        assert sb.entropy_lower_bound(shape) <= sb.min_entropy(shape).min_entropy_bits

    def test_boundary(self):
        assert sb.entropy_lower_bound(sb.SystemShape(4, 2, 0.5)) <= 2.0

    def test_vanishes_with_pi(self):
        assert sb.entropy_lower_bound(sb.SystemShape(12, 4, 1e-7)) <= 1e-4
        assert sb.entropy_lower_bound(sb.SystemShape(12, 4, 0.0)) == 0.0

    def test_under_exact_minimum_everywhere(self, rng):
        for n in range(2, 9):
            for m in range(1, n + 1):
                top = (n - m) / n
                for pi in np.linspace(0.0, top, 25):
                    shape = sb.SystemShape(n, m, float(pi))
                    floor = sb.entropy_lower_bound(shape)
                    exact = sb.min_entropy(shape).min_entropy_bits
                    assert floor <= exact + 1e-9


class TestPiLowerBound:
    def test_narrow_selection_formula(self):
        assert sb.pi_lower_bound(20, 6, 4.0) == pytest.approx(
            mp_pi_lower(20, 6, 4.0), abs=1e-12
        )

    def test_wide_selection_zero(self):
        assert sb.pi_lower_bound(30, 20, 4.5) == 0.0

    def test_negative_formula_clamped(self):
        assert sb.pi_lower_bound(20, 6, 1.0) == 0.0

    def test_bad_entropy(self):
        with pytest.raises(sb.BadEntropyError):
            sb.pi_lower_bound(20, 6, math.log2(20) + 1e-3)
        with pytest.raises(sb.BadEntropyError):
            sb.pi_lower_bound(20, 6, -0.5)

    def test_monotone_in_entropy(self):
        n, m = 50, 12
        hs = np.linspace(0.0, math.log2(n), 200)
        vals = [sb.pi_lower_bound(n, m, float(h)) for h in hs]
        assert (np.diff(vals) >= -1e-12).all()


class TestPiUpperBound:
    def test_zero_entropy(self):
        # the 1 - h/log2(m) entry saturates, so only the feasibility clamp
        # remains for m >= 2; m = 1 has no such entry and collapses to 0
        assert sb.pi_upper_bound(12, 4, 0.0) == pytest.approx(8 / 12, abs=1e-12)
        assert sb.pi_upper_bound(12, 1, 0.0) == 0.0

    def test_two_state_boundary(self):
        assert sb.pi_upper_bound(2, 1, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_reference_interval(self):
        ub = sb.pi_upper_bound(20, 6, 4.0)
        assert sb.pi_lower_bound(20, 6, 4.0) <= ub <= 0.7 + 1e-12

    def test_never_below_lower(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 80))
            m = int(rng.integers(1, n + 1))
            h = float(rng.uniform(0, math.log2(n)))
            assert sb.pi_upper_bound(n, m, h) >= sb.pi_lower_bound(n, m, h) - 1e-12


class TestFlawedBound:
    def test_wide_selection_blows_up(self):
        # for m >= n/2 the uncorrected formula can exceed the feasible
        # ceiling, which is exactly why it is comparison-only
        flawed = sb.flawed_pi_lower_bound(30, 20, 4.5)
        assert flawed > (30 - 20) / 30
        assert sb.pi_lower_bound(30, 20, 4.5) == 0.0

    def test_undefined_at_half(self):
        assert math.isnan(sb.flawed_pi_lower_bound(10, 5, 2.0))

    def test_matches_corrected_when_narrow(self):
        assert sb.flawed_pi_lower_bound(20, 6, 4.0) == pytest.approx(
            sb.pi_lower_bound(20, 6, 4.0), abs=1e-12
        )


class TestTightBounds:
    def test_uniform_boundary_collapse(self):
        assert sb.pi_bounds_tight(4, 2, 2.0) == (0.5, 0.5)

    def test_zero_entropy_point(self):
        assert sb.pi_bounds_tight(9, 4, 0.0) == (0.0, 0.0)

    def test_lower_is_zero_up_to_log2_m(self):
        # np.log2 rounds log2(m) one ulp away from math.log2 at these m; the
        # edge of the flat zero is taken from math.log2, as for one shape
        ms = np.array([1621, 3242, 6484, 12968])
        hs = np.array([math.log2(m) for m in ms.tolist()])
        assert inversion._invert_lower(2 * ms + 1, ms, hs).tolist() == [0.0] * 4
        assert [sb.pi_bounds_tight(2 * m + 1, m, h)[0] for m, h in zip(ms, hs)] == [0.0] * 4

    def test_binary_entropy_point(self):
        h = mp_entropy([0.7, 0.3])
        lo, hi = sb.pi_bounds_tight(3, 1, h)
        assert lo == pytest.approx(mp_invert_max_entropy(3, 1, h), abs=1e-9)
        # [0.7, 0.3, 0] attains this entropy with tail mass 0.3, and no
        # feasible tail above 0.3 can reach an entropy this low
        assert hi == pytest.approx(0.3, abs=1e-9)

    def test_degenerate_full_entropy(self):
        for n, m in [(6, 2), (9, 5), (30, 17)]:
            lo, hi = sb.pi_bounds_tight(n, m, math.log2(n))
            assert lo == pytest.approx((n - m) / n, abs=1e-12)
            assert hi == pytest.approx((n - m) / n, abs=1e-12)

    def test_lower_matches_high_precision_inversion(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(1, n))
            h = float(rng.uniform(math.log2(m) + 0.05, math.log2(n) - 0.05))
            if h <= 0:
                continue
            got, _ = sb.pi_bounds_tight(n, m, h)
            assert got == pytest.approx(mp_invert_max_entropy(n, m, h), abs=1e-8)


class TestTightUpperInversion:
    """The upper tight bound bisects H_min, which must be non-decreasing."""

    @staticmethod
    def _shapes(rng):
        shapes = [(2, 1), (9, 1), (60, 1), (9, 8), (60, 59), (300, 1), (300, 299)]
        for _ in range(10):
            n = int(rng.integers(3, 200))
            shapes.append((n, int(rng.integers(1, n))))
        return shapes

    def test_min_entropy_non_decreasing(self, rng):
        for n, m in self._shapes(rng):
            pis = np.linspace(0.0, (n - m) / n, 20001)
            steps = np.diff(sb.min_entropy_values(n, m, pis))
            # float noise below the inversion tolerance would be harmless
            assert steps.min() >= -1e-12, (n, m)

    def test_upper_inside_brute_force_bracket(self, rng):
        for n in range(2, 13):
            for m in range(1, n + 1):
                top = (n - m) / n
                pis = np.linspace(0.0, top, 20001)
                hmin = sb.min_entropy_values(n, m, pis)
                hs = [0.0, math.log2(n), *rng.uniform(0.0, math.log2(n), 6)]
                inverter = sb.TightInverter(n, m)
                for h in hs:
                    idx = int(np.flatnonzero(hmin <= h + 1e-12)[-1])
                    lo = pis[idx]
                    hi = pis[idx + 1] if idx + 1 < pis.size else top
                    got = inverter.upper(float(h))
                    assert lo - 1e-12 <= got <= hi + 1e-12, (n, m, h)

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_batched_equals_scalar(self, rng, bound):
        mixed = []  # (n, m, h, scalar answer) over every shape
        for n, m in self._shapes(rng) + [(7, 7), (1, 1)]:
            top = math.log2(n)
            edges = [0.0, 1e-13, math.log2(m), math.log2(m) + 1e-13, top - 1e-13, top]
            hs = np.concatenate([edges, rng.uniform(0.0, top, 20)])
            invert = getattr(sb.TightInverter(n, m), bound)
            batch = invert(hs)
            assert isinstance(batch, np.ndarray) and batch.shape == hs.shape
            scalar = [invert(float(h)) for h in hs]
            assert all(isinstance(v, float) for v in scalar)
            assert batch.tolist() == scalar, (n, m)
            mixed += [(n, m, h, v) for h, v in zip(hs.tolist(), scalar)]
        # one call over every shape at once, in shuffled order, as the sweep makes it
        ns, ms, hs, want = (np.array(c) for c in zip(*rng.permutation(np.array(mixed))))
        got = getattr(inversion, f"_invert_{bound}")(ns.astype(int), ms.astype(int), hs)
        assert got.tolist() == want.tolist()


def paper_figs_inputs(seed):
    """The ``(n, m, h)`` arrays ``sweep --paper-figs --seed seed`` inverts."""
    config = reference_sweep_config(seed)
    count = config.scenarios_per_shape
    h, _ = np.concatenate([_observe_shape(config, i) for i in range(len(config.shapes))], axis=1)
    ns, ms = np.repeat(np.array(config.shapes).T, count, axis=1)
    ok = ~np.isnan(h)
    return ns[ok], ms[ok], np.clip(h[ok], 0.0, np.log2(ns[ok]))


class TestCertifiedWalk:
    """The tight bounds are certificates, tight ones, from few kernel calls."""

    @pytest.mark.parametrize("seed", [1, 2, 42])
    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_paper_figs_inputs(self, seed, bound):
        ns, ms, hs = paper_figs_inputs(seed)
        assert_side_tight(ns, ms, hs, getattr(inversion, f"_invert_{bound}")(ns, ms, hs), bound)

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_edge_entropies(self, rng, bound):
        # near log2 n and down to the least subnormal, every shape in one call,
        # as the sweep makes it: the certificates of one call per shape
        rows = []
        for n in (2, 3, 50, 3000, 34_220):
            for m in {1, n - 1}:
                top = math.log2(n)
                near_top = [top - k * 1e-16 for k in range(11)] + [float(np.nextafter(top, 0.0))]
                tiny = [1e-300, 5e-324, *(10 ** rng.uniform(-300, -1, 8))]
                rows += [(n, m, h) for h in near_top + tiny]
        ns, ms, hs = (np.array(c) for c in zip(*rows))
        hs = np.clip(hs, 0.0, np.log2(ns))
        got = getattr(inversion, f"_invert_{bound}")(ns, ms, hs)
        assert_side_tight(ns, ms, hs, got, bound)
        want = [getattr(sb.TightInverter(n, m), bound)(h) for n, m, h in zip(ns.tolist(), ms.tolist(), hs.tolist())]
        assert got.tolist() == want

    @staticmethod
    def _count_calls(monkeypatch):
        """Count the inversions' kernel calls, per curve, into the returned dict."""
        calls = {"H_min": 0, "H_max": 0}
        for name, curve in (("min_entropy_values", "H_min"), ("max_entropy_values", "H_max")):
            def counted(*args, kernel=getattr(inversion, name), curve=curve):
                calls[curve] += 1
                return kernel(*args)
            monkeypatch.setattr(inversion, name, counted)
        return calls

    def test_sweep_takes_few_kernel_calls(self, monkeypatch):
        # a kernel call at every midpoint took 62 for the paper figures' sweep,
        # on either curve, and the certified walk 19-20 and 29
        calls = self._count_calls(monkeypatch)
        for seed in (1, 2, 42):
            calls.update(H_min=0, H_max=0)
            run_sweep(reference_sweep_config(seed))
            assert calls["H_min"] <= 8 and calls["H_max"] <= 8, (seed, calls)

    @pytest.mark.parametrize("n, m", [(34_220, 120), (11_480, 120), (20, 6), (1500, 1000)])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_single_inversion_takes_few_kernel_calls(self, monkeypatch, n, m, s):
        # the composite shapes of ``bounds --k 3`` on 60 objects and of a
        # 40-object cache scenario, and two paper shapes, at power-law entropies
        h = sb.entropy(sb.make_distribution(np.arange(1, n + 1) ** -s))
        calls = self._count_calls(monkeypatch)
        sb.pi_bounds_tight(n, m, h)
        assert calls["H_min"] <= 8 and calls["H_max"] <= 8

    @pytest.mark.parametrize("n, m", [(34_220, 120), (20, 6)])
    @pytest.mark.parametrize("h", [1e-6, 1e-3, 0.01, 0.1, 0.29])
    def test_single_inversion_at_small_entropy_takes_few_kernel_calls(self, monkeypatch, n, m, h):
        # the certified walk took 35-36 H_min calls at 1e-6 bits; the
        # relative kernel error bound keeps the certificates tight here too
        calls = self._count_calls(monkeypatch)
        sb.pi_bounds_tight(n, m, h)
        assert calls["H_min"] <= 8


class TestKernelErrorBound:
    """Both kernels lie within ``eps/2`` of their 50-digit curves: the premise of the certificates."""

    @staticmethod
    def _points(rng):
        """``(n, m, pi)``: random shapes up to n = 2000 and the paper's, at every kind of tail mass.

        The kinds include ``pi`` at 1e-300 of the ceiling and next to the
        corners ``c/(m+c)`` of the right endpoint's arc, where its remainder
        vanishes and the kernel's error is largest.
        """
        shapes = [*REFERENCE_SWEEP_SHAPES, (2, 1), (2000, 1), (2000, 1999), (4, 2), (7, 2)]
        for _ in range(40):
            n = int(rng.integers(2, 2001))
            shapes.append((n, int(rng.integers(1, n))))
        for n, m in shapes:
            # the search evaluates only doubles below the rounded ceiling
            top = float(np.nextafter((n - m) / n, 0.0))
            corner = float(np.nextafter(c := int(rng.integers(1, n - m + 1)), 0.0)) / (m + c)
            pis = [
                top * rng.uniform(),
                top * 10 ** rng.uniform(-300, 0),
                top * 1e-300,
                top * 10 ** rng.uniform(-16, 0),
                top * (1 - 10 ** rng.uniform(-16, -1)),
                top,
                *(float(corner + k * np.spacing(corner)) for k in (-1, 1, 2)),
            ]
            yield from ((n, m, min(pi, top)) for pi in pis)

    @staticmethod
    def _within_half_eps(kernel, truth, n, m, pi):
        got = float(kernel(n, m, np.array([pi]))[0])
        want = truth(n, m, pi)
        half_eps = float(inversion._kernel_error(np.array([float(want)]))[0]) / 2
        return abs(mpf(got) - want) <= half_eps

    def test_minimum_entropy_kernel(self, rng):
        bad = [p for p in self._points(rng)
               if not self._within_half_eps(sb.min_entropy_values, mp_h_min, *p)]
        assert not bad

    def test_maximum_entropy_kernel(self, rng):
        bad = [p for p in self._points(rng)
               if not self._within_half_eps(max_entropy_values, mp_h_max, *p)]
        assert not bad


class TestCrossedCertificates:
    """A kernel off by more than its error bound fails loudly, not with an uncertified bound."""

    @staticmethod
    def _noisy(monkeypatch):
        # one bit of noise, up or down with the last bit of pi: far past eps/2
        for name in ("min_entropy_values", "max_entropy_values"):
            def noisy(n, m, pi, kernel=getattr(inversion, name)):
                pi = np.asarray(pi, dtype=float)
                return kernel(n, m, pi) + np.where(pi.view(np.int64) & 1, 1.0, -1.0)
            monkeypatch.setattr(inversion, name, noisy)

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_raise(self, monkeypatch, bound):
        self._noisy(monkeypatch)
        with pytest.raises(sb.NumericFailureError, match="crossed certificates"):
            getattr(sb.TightInverter(200, 40), bound)(np.linspace(1.0, 7.0, 50))


class TestMeritBounds:
    def test_complement_of_reference(self):
        lb, ub = sb.merit_bounds_k1(20, 6, 4.0)
        assert ub == pytest.approx(1.0 - sb.pi_lower_bound(20, 6, 4.0), abs=1e-12)
        assert lb == pytest.approx(1.0 - sb.pi_upper_bound(20, 6, 4.0), abs=1e-12)

    def test_uniform_boundary(self):
        # at full entropy the lower error bound is the wide-selection 0, so
        # the merit ceiling is the vacuous 1.0; only the floor is informative
        lb, ub = sb.merit_bounds_k1(4, 2, 2.0)
        assert lb == pytest.approx(0.5, abs=1e-12)
        assert ub == pytest.approx(1.0, abs=1e-12)

    def test_full_selection(self):
        lb, ub = sb.merit_bounds_k1(7, 7, 1.3)
        assert lb == 1.0 and ub == 1.0

    def test_closed_form_upper_when_narrow(self, rng):
        for _ in range(100):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(1, max(2, (n - 1) // 2)))
            if 2 * m >= n:
                continue
            h = float(rng.uniform(1.0 + math.log2(m), math.log2(n)))
            _, ub = sb.merit_bounds_k1(n, m, h)
            closed = (math.log2(n - m) - h + 1.0) / math.log2(n / m - 1.0)
            assert ub == pytest.approx(min(max(closed, m / n), 1.0), abs=1e-9)


class TestSandwichAndNesting:
    def test_random_distributions_respect_all_bounds(self, rng):
        # analytic encloses tight encloses every observed tail mass at the
        # observed entropy
        for _ in range(40):
            n = int(rng.integers(2, 50))
            m = int(rng.integers(1, n + 1))
            pi = float(rng.uniform(0, (n - m) / n)) if m < n else 0.0
            inverter = sb.TightInverter(n, m)
            rows = feasible_batch(n, m, pi, 25, rng)
            hs = np.array([float(batch_entropy(row[None, :])[0]) for row in rows])
            hs = np.clip(hs, 0.0, math.log2(n))
            # one batched call per bound; batched equals scalar bit for bit
            tight = zip(inverter.lower(hs).tolist(), inverter.upper(hs).tolist())
            for row, h, (lt, ut) in zip(rows, hs.tolist(), tight):
                pi_obs = float(row[m:].sum())
                lb = sb.pi_lower_bound(n, m, h)
                ub = sb.pi_upper_bound(n, m, h)
                assert lb - 1e-9 <= lt <= pi_obs + 1e-9
                assert pi_obs - 1e-9 <= ut <= ub + 1e-9


class TestBoundReport:
    def test_json_schema_keys(self):
        report = sb.build_report(20, 6, 4.0, include_flawed=True)
        d = report.to_dict()
        assert set(d) == {"n", "m", "k", "mode", "entropy_bits", "pi", "psi", "clamped"}
        assert set(d["pi"]) == {
            "lb_analytic", "ub_analytic", "lb_tight", "ub_tight",
            "lb_raw", "ub_raw", "lb_flawed",
        }
        assert set(d["psi"]) == {"lb", "ub"}

    def test_nesting_invariant(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, n + 1))
            h = float(rng.uniform(0, math.log2(n)))
            r = sb.build_report(n, m, h)
            assert r.pi_lb_analytic - 1e-9 <= r.pi_lb_tight
            assert r.pi_lb_tight <= r.pi_ub_tight + 1e-9
            assert r.pi_ub_tight <= r.pi_ub_analytic + 1e-9
            assert 0.0 <= r.pi_lb_analytic <= r.pi_ub_analytic <= (n - m) / n + 1e-12

    def test_psi_complements(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, n + 1))
            h = float(rng.uniform(0, math.log2(n)))
            r = sb.build_report(n, m, h)
            assert r.psi_lb == pytest.approx(1.0 - r.pi_ub_analytic, abs=1e-12)
            assert r.psi_ub == pytest.approx(1.0 - r.pi_lb_analytic, abs=1e-12)
            assert m / n - 1e-12 <= r.psi_lb <= r.psi_ub <= 1.0 + 1e-12

    def test_clamp_flags_recorded(self):
        r = sb.build_report(12, 4, 0.0)
        assert "pi_ub_analytic_at_ceiling" in r.clamped
        assert r.pi_ub_raw == pytest.approx(1.0)
        assert r.pi_ub_analytic == pytest.approx(8 / 12)


class TestBoundsForK:
    def test_k1_identity_both_modes(self):
        d = sb.make_distribution([0.4, 0.3, 0.2, 0.1])
        h = sb.entropy(d)
        direct = sb.build_report(4, 2, h)
        for mode in ("unique", "repeated"):
            r = sb.bounds_for_k(d, 2, 1, mode)
            assert r.n == 4 and r.m == 2
            assert r.entropy_bits == pytest.approx(h, abs=1e-12)
            assert r.pi_lb_analytic == pytest.approx(direct.pi_lb_analytic, abs=1e-12)
            assert r.pi_ub_analytic == pytest.approx(direct.pi_ub_analytic, abs=1e-12)

    def test_uniform_unique(self):
        d = sb.make_distribution(np.ones(5))
        r = sb.bounds_for_k(d, 3, 2, "unique")
        assert (r.n, r.m) == (10, 3)
        assert r.entropy_bits == pytest.approx(math.log2(10), abs=1e-12)
        assert r.pi_observed == pytest.approx(0.7, abs=1e-12)

    def test_uniform_repeated(self):
        d = sb.make_distribution(np.ones(3))
        r = sb.bounds_for_k(d, 2, 2, "repeated")
        assert (r.n, r.m) == (6, 3)
        expected_h = mp_entropy([2 / 9, 2 / 9, 2 / 9, 1 / 9, 1 / 9, 1 / 9])
        assert r.entropy_bits == pytest.approx(expected_h, abs=1e-12)

    def test_tolerance_reaches_the_transform(self):
        d = sb.make_distribution([6, 2, 2])
        assert sb.bounds_for_k(d, 2, 2, "repeated").selection_mismatch is True
        loose = sb.bounds_for_k(d, 2, 2, "repeated", tol=0.5)
        assert loose.selection_mismatch is False
        assert sb.transform_repeated(d, 2, 2, 0.5).selection_mismatch is False

    def test_bad_mode(self):
        d = sb.make_distribution([1, 1])
        with pytest.raises(sb.BadKError):
            sb.bounds_for_k(d, 2, 2, "both")


class TestAnalyticReference:
    """The batched analytic helper against the scalar reference, bit for bit."""

    @staticmethod
    def _cases(rng, shapes_drawn, entropies_drawn):
        shapes = [(1, 1), (2, 1), (2, 2), (4, 2), (9, 9), (9, 1), (10, 5), (2000, 1000), (2000, 1)]
        for _ in range(shapes_drawn):
            n = int(rng.integers(1, 2001))
            shapes.append((n, int(rng.integers(1, n + 1))))
        for n, m in shapes:
            top = math.log2(n)
            edges = [0.0, -0.0, -1e-10, math.log2(m), top, top + 1e-10]
            yield n, m, edges + rng.uniform(0.0, top, entropies_drawn).tolist()

    def test_scalar_api_matches_reference(self, rng):
        for n, m, hs in self._cases(rng, 25, 4):  # each report also inverts
            for h in hs:
                h_c = min(max(h, 0.0), math.log2(n))
                lb, ub, lb_raw, ub_raw, clamped, psi = reference_analytic(n, m, h_c)
                r = sb.build_report(n, m, h)
                got = (r.pi_lb_analytic, r.pi_ub_analytic, r.pi_lb_raw, r.pi_ub_raw,
                       r.clamped, (r.psi_lb, r.psi_ub))
                assert repr(got) == repr((lb, ub, lb_raw, ub_raw, clamped, psi)), (n, m, h)
                assert repr(sb.pi_lower_bound(n, m, h)) == repr(lb)
                assert repr(sb.pi_upper_bound(n, m, h)) == repr(ub)
                assert repr(sb.merit_bounds_k1(n, m, h)) == repr(psi)

    def test_batched_matches_reference(self, rng):
        for n, m, hs in self._cases(rng, 200, 50):
            hs = np.clip(hs, 0.0, math.log2(n))
            got = [a.tolist() for a in _analytic_bounds(n, m, hs)]
            want = [reference_analytic(n, m, h)[:4] for h in hs.tolist()]
            assert repr(list(zip(*got))) == repr(want), (n, m)

    @staticmethod
    def _row_loop(n, m, hs):
        """``ub_raw`` as the helper took it before: every junction's entry, one row per entropy."""
        slots = np.arange(n - m, 0, -1, dtype=float)
        den = (n - np.arange(1, n - m + 1)) * np.log2(n * slots / (n - m))
        junction = np.array([((h * slots) / den).max() for h in hs.tolist()])
        if m == 1:
            return junction
        entry = 1.0 - hs / math.log2(m)
        return np.where(entry > junction, entry, junction)

    def test_equals_the_row_of_every_junction(self, rng):
        # only the junctions whose ratio is within 2**-48 of the best are evaluated
        cases = [(n, m, np.clip(hs, 0.0, math.log2(n))) for n, m, hs in self._cases(rng, 60, 40)]
        for n, m in ((34_220, 120), (11_480, 120), (31_600, 7), (2, 1)):
            hs = [0.0, -0.0, 5e-324, 1e-300, 1e-12, math.log2(n), *rng.uniform(0, math.log2(n), 30)]
            cases.append((n, m, np.array(hs)))
        for n, m, hs in cases:
            if m < n:
                got = _analytic_bounds(n, m, hs)[3]
                assert got.tobytes() == self._row_loop(n, m, hs).tobytes(), (n, m)

    def test_memory_does_not_grow_with_entropies(self):
        n, m = 50_010, 10  # a (1000 x 50,000) matrix would take 400 MB
        hs = np.linspace(0.0, math.log2(n), 1000)
        tracemalloc.start()
        try:
            _analytic_bounds(n, m, hs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def assert_side_tight(ns, ms, hs, bound, side):
    """Each ``side`` bound is its certificate, as tight as the kernels' error bound allows.

    The certificate: ``K(lb) <= h - _MARGIN*eps`` or ``K(ub) >= h +
    _MARGIN*eps`` (``eps`` of the ``inversion`` docstring), unless the
    bound is 0 or the ceiling.  Tight: ``K(lb) >= h - 3*eps`` or ``K(ub) <=
    h + 3*eps``, unless the bound is 0 or the ceiling, or the next double
    towards the crossing does not certify its side (no tighter double
    does), or one within 4 ulps certifies the other side.
    """
    ns, ms, hs, bound = np.broadcast_arrays(ns, ms, hs, bound)
    kernel, sign = (max_entropy_values, 1) if side == "lower" else (sb.min_entropy_values, -1)
    eps = inversion._kernel_error(hs)
    top = (ns - ms) / ns
    end = (bound == 0.0) | (bound == top)
    steps = bound.view(np.int64)[None, :] + sign * np.array([0, 1, 4])[:, None]
    at = np.clip(steps, 0, top.view(np.int64)).view(float)
    k = np.stack([kernel(ns, ms, x) for x in at]) - hs  # kernel minus h, signed outward
    k = -k if sign == 1 else k
    certified = end | (k[0] >= inversion._MARGIN * eps)
    assert certified.all(), list(zip(ns[~certified], ms[~certified], hs[~certified], bound[~certified]))
    ok = end | (k[0] <= 3 * eps) | (k[1] < 0.75 * eps) | (k[2] <= -0.75 * eps)
    assert ok.all(), list(zip(ns[~ok], ms[~ok], hs[~ok], bound[~ok]))


def assert_tight(ns, ms, hs, lb, ub):
    """Both tight bounds pass :func:`assert_side_tight`."""
    assert_side_tight(ns, ms, hs, lb, "lower")
    assert_side_tight(ns, ms, hs, ub, "upper")


class TestTightBoundsEncloseTheTrueInverse:
    """Both tight bounds against 50-digit bisections of the 50-digit curves, with no allowance."""

    @staticmethod
    def _check(n, m, h):
        inverter = sb.TightInverter(n, m)
        lb, ub = inverter.lower(h), inverter.upper(h)
        if h >= math.log2(n):  # entropies are clamped to this double: the maximum
            assert lb == ub == (n - m) / n
            return
        lower, upper = mp_invert_lower(n, m, h), mp_invert_upper(n, m, h)
        top = mpf(n - m) / n
        # flat at 0 or at the ceiling, the answer is that end as a double
        assert lb == float(lower) if lower in (0, top) else lb <= lower, (n, m, h, lb, lower)
        assert ub == float(upper) if upper in (0, top) else upper <= ub, (n, m, h, ub, upper)
        assert_tight(n, m, h, np.array([lb]), np.array([ub]))

    def test_log_uniform_tail_masses(self):
        rng = np.random.default_rng(20)
        shapes = [(10**6, 1), (10**6, 999_000), (10**6, 999_999), (2, 1), (3, 2)]
        for _ in range(36):
            n = int(10 ** rng.uniform(0.31, 4))
            shapes.append((n, int(rng.integers(1, n))))
        for n, m in shapes:
            top = (n - m) / n
            pi = float(10 ** rng.uniform(-300, math.log10(0.9 * top)))
            for h in (float(mp_h_min(n, m, pi)), float(mp_h_max(n, m, pi))):
                self._check(n, m, min(h, math.log2(n)))

    @pytest.mark.parametrize("n", [2, 3, 50, 3000])
    def test_single_selection_down_to_tiny_entropies(self, n):
        # the head entry's term once dropped pi/ln 2 below pi ~ 1e-16, which put
        # the m = 1 lower bound 2.2% above the truth at (2, 1, 3.04e-19)
        for h in [10.0 ** -e for e in range(1, 301, 23)] + [1e-300, 3.039486235708936e-19]:
            self._check(n, 1, h)

    def test_edge_entropies(self, rng):
        for n in (2, 3, 50, 3000, 34_220):
            for m in {1, n - 1}:
                top = math.log2(n)
                near_top = [top - k * 1e-16 for k in range(0, 11, 2)] + [float(np.nextafter(top, 0.0))]
                tiny = [1e-300, 5e-324, *(10 ** rng.uniform(-300, -1, 3))]
                for h in near_top + tiny:
                    self._check(n, m, min(max(h, 0.0), top))

    def test_random_queries(self):
        # before the certificates, 5 lower and 3 upper bounds of these lay on
        # the wrong side of the truth, by up to 2.5e-15 relative
        rng = np.random.default_rng(150)
        for _ in range(150):
            n = int(rng.integers(2, 1001))
            m = int(rng.integers(1, n))
            self._check(n, m, float(rng.uniform(0.0, math.log2(n))))

    def test_single_selection_reproducer(self):
        lb, ub = sb.pi_bounds_tight(2, 1, 3.039486235708936e-19)
        truth = mp_invert_lower(2, 1, 3.039486235708936e-19)
        assert truth == pytest.approx(4.4009e-21, rel=1e-4)
        assert lb <= truth <= ub

    def test_binary_shape_at_one_millibit(self):
        # both bounds once missed the 50-digit root 6.515314290334e-05 by
        # about 2e-13
        self._check(2, 1, 0.001)
        lb, ub = sb.pi_bounds_tight(2, 1, 0.001)
        assert lb == pytest.approx(6.515314290334e-05, rel=1e-12)
        assert ub == pytest.approx(6.515314290334e-05, rel=1e-12)

    @pytest.mark.parametrize("n, m, pi, bits", [(3000, 2, 1e-12, 4.78e-11),
                                                (200, 10, 1e-14, 5.8e-13)])
    def test_minimum_entropy_at_tiny_tail_mass(self, n, m, pi, bits):
        # an entropy floor of 1e-15 once dropped these junctions' tails
        # (1.44e-12 and 0.0 bits)
        exact = mp_min_entropy(n, m, pi)
        assert exact == pytest.approx(bits, rel=0.01)
        got = sb.min_entropy_value(n, m, pi)
        assert abs(got - exact) <= 2 * math.log2(math.e) * 2**-52, (got, exact)
        self._check(n, m, got)

    def test_floor_case_entropy_and_upper_bound(self):
        # one weight 1 and 20,000 weights 1e-16: the floor reported 2.884e-12
        # bits and an upper bound of 1.819e-12, below the observed 2.0e-12
        weights = np.concatenate([[1.0], np.full(20_000, 1e-16)])
        dist = sb.make_distribution(weights)
        h = sb.entropy(dist)
        assert h == pytest.approx(mp_entropy(dist.probs), rel=1e-12)
        assert h == pytest.approx(1.092e-10, rel=1e-3)
        report = sb.build_report(dist.n, 1, h, pi_observed=sb.tail_probability(dist, 1))
        assert report.pi_observed == pytest.approx(2.0e-12, rel=1e-9)
        assert report.pi_lb_tight <= report.pi_observed <= report.pi_ub_tight
        self._check(dist.n, 1, h)


class TestTightBoundGrid:
    """The tight bounds over 2,001 entropies from 0 to log2 n, per shape."""

    SHAPES = [(2, 1), (3, 1), (7, 7), (10_000, 3), *REFERENCE_SWEEP_SHAPES]

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_sandwich_monotone_and_ends(self, n, m):
        hs = np.linspace(0.0, math.log2(n), 2001)
        hs[-1] = math.log2(n)
        inverter = sb.TightInverter(n, m)
        lb, ub = inverter.lower(hs), inverter.upper(hs)
        lb_analytic, ub_analytic = _analytic_bounds(n, m, hs)[:2]
        top = (n - m) / n
        assert (lb_analytic <= lb).all() and (ub <= ub_analytic).all()
        # at (2, 1) H_min = H_max, so the two bounds meet up to their rounding
        crossing = 1e-15 if (n, m) == (2, 1) else 0.0
        assert (lb <= ub + crossing).all(), float((lb - ub).max())
        assert (np.diff(lb) >= 0).all() and (np.diff(ub) >= 0).all()
        assert lb[0] == ub[0] == 0.0 and lb[-1] == ub[-1] == top
        assert (lb[hs <= math.log2(m)] == 0.0).all()
