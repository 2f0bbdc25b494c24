import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mpf

import selbounds as sb
import selbounds.scenarios as scenarios
from helpers import chain_probability
from selbounds.rng import derive_rng


def harmonic_tail_fraction(n, m, s) -> float:
    """Exact power-law tail mass via high-precision partial sums."""
    weights = [mpf(i) ** (-mpf(repr(float(s)))) for i in range(1, n + 1)]
    return float(sum(weights[m:]) / sum(weights))


class TestZipfWeights:
    def test_exact_power_law(self):
        w = sb.zipf_weights(20, 1.0)
        assert np.allclose(w, 1.0 / np.arange(1, 21), atol=1e-15)
        d = sb.make_distribution(w)
        total = sum(1.0 / i for i in range(1, 21))
        assert np.allclose(d.probs, (1.0 / np.arange(1, 21)) / total, atol=1e-12)

    def test_validation(self):
        with pytest.raises(sb.BadConfigError):
            sb.zipf_weights(10, 0.0)
        with pytest.raises(sb.BadConfigError):
            sb.zipf_weights(0, 1.0)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5\n0.3\n0.2\n")
        text = (
            "kind = scheduling\nn = 3\nm = 2\n"
            f"weights_file = {weights.name}\ntrials = 100\nseed = 4\n"
        )
        cfg = sb.parse_scenario_config(text, base_dir=tmp_path)
        assert cfg.kind == "scheduling" and cfg.k == 2  # defaults to m
        assert np.allclose(cfg.weights, [0.5, 0.3, 0.2])

    def test_defaults_and_zipf(self):
        cfg = sb.parse_scenario_config("kind=cache_single\nn=20\nm=6\nzipf_s=1.0\n")
        assert cfg.k == 1 and cfg.trials == 0 and cfg.seed == 0

    @pytest.mark.parametrize(
        "text",
        [
            "kind=cache_single\nn=20\nm=6\n",  # no popularity source
            "kind=cache_single\nn=20\nm=6\nzipf_s=1.0\nbogus=1\n",
            "kind=cache_single\nn=20\nm=30\nzipf_s=1.0\n",
            "kind=cache_single\nn=20\nm=6\nk=2\nzipf_s=1.0\n",  # k fixed at 1
            "kind=scheduling\nn=5\nm=3\nk=2\nzipf_s=1.0\n",  # k must equal m
            "kind=mystery\nn=5\nm=3\nzipf_s=1.0\n",
        ],
    )
    def test_rejects_bad_configs(self, text):
        with pytest.raises(sb.BadConfigError):
            sb.parse_scenario_config(text)


class TestCacheSingle:
    def test_zipf_reference(self):
        cfg = sb.ScenarioConfig(
            kind="cache_single", n=20, m=6, k=1, zipf_s=1.0, trials=100_000, seed=42
        )
        report = sb.cache_scenario(cfg)
        exact = harmonic_tail_fraction(20, 6, 1.0)
        assert report.exact_rate == pytest.approx(exact, abs=1e-12)
        se = math.sqrt(exact * (1 - exact) / cfg.trials)
        assert abs(report.empirical_rate - exact) <= 4 * se
        assert report.within_bounds
        assert report.selected_ids == (0, 1, 2, 3, 4, 5)

    def test_full_cache_never_misses(self):
        cfg = sb.ScenarioConfig(
            kind="cache_single", n=3, m=3, k=1, zipf_s=2.0, trials=1000, seed=1
        )
        report = sb.cache_scenario(cfg)
        assert report.exact_rate == 0.0
        assert report.empirical_rate == 0.0

    def test_empirical_matches_exact_across_seeds(self):
        exact = harmonic_tail_fraction(12, 4, 0.8)
        trials = 20_000
        se = math.sqrt(exact * (1 - exact) / trials)
        for seed in range(8):
            cfg = sb.ScenarioConfig(
                kind="cache_single", n=12, m=4, k=1, zipf_s=0.8, trials=trials, seed=seed
            )
            report = sb.cache_scenario(cfg)
            assert abs(report.empirical_rate - exact) <= 4 * se


class TestCacheMulti:
    def test_multiuser_uniform_reference(self):
        cfg = sb.ScenarioConfig(
            kind="cache_multiuser", n=3, m=2, k=2,
            weights=np.ones(3), trials=50_000, seed=7,
        )
        report = sb.cache_scenario(cfg)
        assert report.exact_rate == pytest.approx(5 / 9, abs=1e-12)
        # the bound check applies to the transformed sorted tail, which here
        # differs from the achievable cache miss because of composite ties
        assert report.bound_report.pi_observed == pytest.approx(1 / 3, abs=1e-12)
        assert report.bound_report.selection_mismatch
        assert report.within_bounds
        se = math.sqrt(5 / 9 * 4 / 9 / cfg.trials)
        assert abs(report.empirical_rate - 5 / 9) <= 4 * se

    def test_multipage_exact_via_chain_enumeration(self):
        import itertools

        weights = [0.4, 0.3, 0.2, 0.1]
        cfg = sb.ScenarioConfig(
            kind="cache_multipage", n=4, m=3, k=2,
            weights=np.asarray(weights), trials=50_000, seed=11,
        )
        report = sb.cache_scenario(cfg)
        hit = sum(
            chain_probability(weights, perm)
            for perm in itertools.permutations(range(3), 2)
        )
        assert report.exact_rate == pytest.approx(1.0 - hit, abs=1e-12)
        se = math.sqrt(report.exact_rate * (1 - report.exact_rate) / cfg.trials)
        assert abs(report.empirical_rate - report.exact_rate) <= 4 * se
        assert report.within_bounds

    def test_complementary_accounting(self):
        cfg = sb.ScenarioConfig(
            kind="cache_multiuser", n=4, m=2, k=2,
            weights=np.asarray([4.0, 3.0, 2.0, 1.0]), trials=5_000, seed=3,
        )
        d = sb.cache_scenario(cfg).to_dict()
        assert d["empirical_rate"] + d["empirical_complement"] == pytest.approx(1.0)


class TestScheduling:
    def test_uniform_symmetry(self):
        cfg = sb.ScenarioConfig(
            kind="scheduling", n=3, m=2, k=2, weights=np.ones(3), trials=0, seed=0
        )
        report = sb.scheduling_scenario(cfg)
        assert report.exact_rate == pytest.approx(1 / 3, abs=1e-12)
        assert report.orientation == "merit"

    def test_reference_weights(self):
        cfg = sb.ScenarioConfig(
            kind="scheduling", n=3, m=2, k=2,
            weights=np.asarray([0.5, 0.3, 0.2]), trials=100_000, seed=5,
        )
        report = sb.scheduling_scenario(cfg)
        expected = chain_probability([0.5, 0.3, 0.2], [0, 1]) + chain_probability(
            [0.5, 0.3, 0.2], [1, 0]
        )
        assert report.exact_rate == pytest.approx(expected, abs=1e-12)
        assert report.exact_rate == pytest.approx(0.51429, abs=1e-5)
        se = math.sqrt(expected * (1 - expected) / cfg.trials)
        assert abs(report.empirical_rate - expected) <= 4 * se
        assert report.within_bounds

    def test_all_channels(self):
        cfg = sb.ScenarioConfig(
            kind="scheduling", n=4, m=4, k=4, weights=np.ones(4), trials=100, seed=2
        )
        report = sb.scheduling_scenario(cfg)
        assert report.exact_rate == pytest.approx(1.0, abs=1e-12)
        assert report.empirical_rate == 1.0


class TestReportShape:
    def test_json_extension_keys(self):
        cfg = sb.ScenarioConfig(
            kind="cache_single", n=6, m=2, k=1, zipf_s=1.0, trials=10, seed=0
        )
        d = sb.cache_scenario(cfg).to_dict()
        for key in ("empirical_rate", "exact_rate", "within_bounds", "selected_ids",
                    "pi", "psi", "kind", "orientation", "trials"):
            assert key in d

    def test_zero_trials_reports_null_empirical(self):
        cfg = sb.ScenarioConfig(
            kind="cache_single", n=6, m=2, k=1, zipf_s=1.0, trials=0, seed=0
        )
        d = sb.cache_scenario(cfg).to_dict()
        assert d["empirical_rate"] is None
        assert d["empirical_complement"] is None

    def test_exact_inside_bounds_when_no_mismatch(self, rng):
        # without composite ties the achievable rate and the transformed
        # tail coincide, so the bounds enclose the achievable rate directly
        for _ in range(20):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(2, n + 1))
            k = int(rng.integers(1, min(m, 3) + 1))
            cfg = sb.ScenarioConfig(
                kind="cache_multipage", n=n, m=m, k=k,
                weights=rng.random(n) + 0.05, trials=0, seed=1,
            )
            report = sb.cache_scenario(cfg)
            assert report.within_bounds
            if not report.bound_report.selection_mismatch:
                assert (
                    report.bound_report.pi_lb_analytic - 1e-9
                    <= report.exact_rate
                    <= report.bound_report.pi_ub_analytic + 1e-9
                )


# The samplers as they were before trials were drawn in blocks: one
# ``rng.choice`` index array, or one Gumbel key matrix, for all trials.  The
# block-wise threshold counts must return the same floats bit for bit.


def reference_misses_single(dist, m, trials, rng):
    draws = rng.choice(dist.n, size=trials, p=np.asarray(dist.probs))
    return float(np.mean(draws >= m))


def reference_hits_unique(dist, m, k, trials, rng):
    n = dist.n
    if m == n:
        return 1.0
    with np.errstate(divide="ignore"):
        keys = np.log(np.asarray(dist.probs)) + rng.gumbel(size=(trials, n))
    head_kth = np.partition(keys[:, :m], m - k, axis=1)[:, m - k]
    tail_max = keys[:, m:].max(axis=1)
    return float(np.mean(head_kth > tail_max))


def reference_hits_repeated(dist, m, k, trials, rng):
    n = dist.n
    if m == n:
        return 1.0
    draws = rng.choice(n, size=(trials, k), p=np.asarray(dist.probs))
    return float(np.mean((draws < m).all(axis=1)))


def reference_empirical_rate(cfg):
    dist = sb.make_distribution(cfg.popularity())
    rng = derive_rng(cfg.seed, 0)
    if cfg.kind == "cache_single":
        return reference_misses_single(dist, cfg.m, cfg.trials, rng)
    if cfg.kind == "cache_multiuser":
        return 1.0 - reference_hits_repeated(dist, cfg.m, cfg.k, cfg.trials, rng)
    if cfg.kind == "cache_multipage":
        return 1.0 - reference_hits_unique(dist, cfg.m, cfg.k, cfg.trials, rng)
    return reference_hits_unique(dist, cfg.m, cfg.m, cfg.trials, rng)


SAMPLED_KINDS = [
    ("cache_single", 9, 4, 1),
    ("cache_single", 6, 6, 1),
    ("cache_multiuser", 9, 4, 3),
    ("cache_multiuser", 9, 4, 1),
    ("cache_multiuser", 5, 5, 2),
    ("cache_multipage", 9, 4, 2),
    ("cache_multipage", 6, 6, 3),
    ("scheduling", 7, 3, 3),
    ("scheduling", 4, 4, 4),
]


def assert_same_rate(cfg):
    got = sb.run_scenario(cfg).empirical_rate
    assert got.hex() == reference_empirical_rate(cfg).hex()


class TestSamplersMatchUnblockedDraws:
    @pytest.mark.parametrize("kind, n, m, k", SAMPLED_KINDS)
    @pytest.mark.parametrize("trials", [1, 7, 25])
    def test_small_blocks(self, monkeypatch, kind, n, m, k, trials):
        # 7 fills one block exactly; 25 spans four blocks, the last partial
        monkeypatch.setattr(scenarios, "TRIAL_BLOCK_ROWS", 7)
        for seed in (0, 5, 42):
            weights = np.random.default_rng(seed).random(n) + 0.05
            assert_same_rate(sb.ScenarioConfig(
                kind=kind, n=n, m=m, k=k, weights=weights, trials=trials, seed=seed,
            ))

    @pytest.mark.parametrize("kind, n, m, k", SAMPLED_KINDS[::2])
    def test_default_block_size_spans_blocks(self, kind, n, m, k):
        trials = scenarios.TRIAL_BLOCK_ROWS + 1
        for seed in (3, 11):
            assert_same_rate(sb.ScenarioConfig(
                kind=kind, n=n, m=m, k=k, zipf_s=0.9, trials=trials, seed=seed,
            ))

    def test_zero_weights(self, monkeypatch):
        # zero-probability tail entries: flat cdf steps and -inf Gumbel keys
        monkeypatch.setattr(scenarios, "TRIAL_BLOCK_ROWS", 7)
        dist = sb.make_distribution([3.0, 0.0, 2.0, 1.0, 0.0, 0.5])
        for seed in (1, 2):
            for m, k in ((2, 2), (3, 1), (4, 3)):
                rng, ref = derive_rng(seed, 0), derive_rng(seed, 0)
                got = scenarios._sample_hits_repeated(dist, m, k, 30, rng)
                assert got.hex() == reference_hits_repeated(dist, m, k, 30, ref).hex()
                rng, ref = derive_rng(seed, 0), derive_rng(seed, 0)
                got = scenarios._sample_hits_unique(dist, m, k, 30, rng)
                assert got.hex() == reference_hits_unique(dist, m, k, 30, ref).hex()
                rng, ref = derive_rng(seed, 0), derive_rng(seed, 0)
                got = scenarios._sample_misses_single(dist, m, 30, rng)
                assert got.hex() == reference_misses_single(dist, m, 30, ref).hex()


def philox_state(rng):
    """The generator's Philox state with its arrays as lists, comparable with ``==``."""
    state = rng.bit_generator.state
    return {
        key: {k: v.tolist() for k, v in value.items()} if isinstance(value, dict)
        else value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


#: (sampler, its unblocked reference, k): the samplers that count raw words.
RAW_SAMPLERS = [
    (lambda d, m, k, t, r: scenarios._sample_misses_single(d, m, t, r),
     lambda d, m, k, t, r: reference_misses_single(d, m, t, r), 1),
    (scenarios._sample_hits_repeated, reference_hits_repeated, 3),
    (scenarios._sample_hits_repeated, reference_hits_repeated, 2),
]
RAW_IDS = ["single", "repeated-k3", "repeated-k2"]


class TestRawWordSegments:
    """Raw Philox words in stream segments give the uniform draw's count and end state."""

    @pytest.mark.parametrize("sampler, reference, k", RAW_SAMPLERS, ids=RAW_IDS)
    @pytest.mark.parametrize("trials", [1, 7, 11, 13, 25, 2 * 65_536 + 1])
    def test_segment_splits(self, monkeypatch, sampler, reference, k, trials):
        # with k=3, 7, 11 and 13 trials split at word offsets 9, 15 and 18
        monkeypatch.setattr(scenarios, "TRIAL_BLOCK_ROWS", 7)
        dist = sb.make_distribution(sb.zipf_weights(9, 0.9))
        for seed in (0, 5):
            rng, ref = derive_rng(seed, 0), derive_rng(seed, 0)
            got = sampler(dist, 4, k, trials, rng)
            assert got.hex() == reference(dist, 4, k, trials, ref).hex()
            assert philox_state(rng) == philox_state(ref)

    @pytest.mark.parametrize("segments", [1, 2, 3])
    @pytest.mark.parametrize("sampler, reference, k", RAW_SAMPLERS, ids=RAW_IDS)
    def test_rate_does_not_depend_on_segments(self, monkeypatch, segments, sampler, reference, k):
        monkeypatch.setattr(scenarios, "TRIAL_SEGMENTS", segments)
        monkeypatch.setattr(scenarios, "TRIAL_BLOCK_ROWS", 7)
        dist = sb.make_distribution(sb.zipf_weights(9, 0.9))
        for trials in (1, 2, 3, 25, 1_001):
            rng, ref = derive_rng(3, 0), derive_rng(3, 0)
            got = sampler(dist, 4, k, trials, rng)
            assert got.hex() == reference(dist, 4, k, trials, ref).hex()
            assert philox_state(rng) == philox_state(ref)

    @pytest.mark.parametrize("sampler, reference, k", RAW_SAMPLERS, ids=RAW_IDS)
    @pytest.mark.parametrize("weights, m, c", [
        ([3.0, 0.0, 2.0, 1.0, 0.0, 0.5], 4, 1.0),  # zero-mass tail: every draw hits
        ([1.0, 1.0, 1.0, 1.0], 2, 0.5),
        ([3.0, 1.0], 1, 0.75),
    ])
    def test_threshold_edges(self, monkeypatch, sampler, reference, k, weights, m, c):
        # c * 2**53 is an integer, so the ceiling in the word limit rounds nothing
        monkeypatch.setattr(scenarios, "TRIAL_BLOCK_ROWS", 7)
        dist = sb.make_distribution(weights)
        assert scenarios._head_threshold(dist, m) == c
        assert (c * 2**53).is_integer()
        for trials in (1, 30, 1_000):
            rng, ref = derive_rng(2, 0), derive_rng(2, 0)
            got = sampler(dist, m, k, trials, rng)
            assert got.hex() == reference(dist, m, k, trials, ref).hex()
            assert philox_state(rng) == philox_state(ref)

    def test_raw_limit_decides_as_the_uniform(self):
        # numpy maps the word r to (r >> 11) * 2**-53; probe words at and next to
        # the limit and at both ends of the word range
        for c in (2**-53, 0.1, 0.5, 0.75, 1 - 2**-53, np.nextafter(0.3, 1.0), 1.0):
            limit = scenarios._raw_limit(c)
            assert 0 <= limit < 2**64
            for r in {0, 1, limit - 2048, limit - 1, limit, limit + 1, limit + 2048, 2**64 - 1}:
                if 0 <= r < 2**64:
                    assert (r <= limit) == ((r >> 11) * 2.0**-53 < c), (c, r)
        assert scenarios._raw_limit(1.0) == 2**64 - 1

    @pytest.mark.parametrize("drawn", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("half_word", [False, True])
    def test_caller_state_after_earlier_draws(self, monkeypatch, drawn, half_word):
        # a caller that already drew words, or a buffered 32-bit half word
        monkeypatch.setattr(scenarios, "TRIAL_BLOCK_ROWS", 7)
        dist = sb.make_distribution(sb.zipf_weights(9, 0.9))
        rng, ref = derive_rng(4, 0), derive_rng(4, 0)
        for g in (rng, ref):
            g.random(drawn)
            if half_word:
                g.integers(0, 2**32, dtype=np.uint32)
        for trials in (1, 4, 13):
            got = scenarios._sample_hits_repeated(dist, 4, 3, trials, rng)
            assert got.hex() == reference_hits_repeated(dist, 4, 3, trials, ref).hex()
            assert philox_state(rng) == philox_state(ref)
        assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == (
            ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist())
        assert rng.random(5).tolist() == ref.random(5).tolist()


class TestChoiceInputChecks:
    """What reaches the samplers already passes the checks ``choice`` made.

    ``Generator.choice`` rejected negative ``p`` and sums more than
    ``sqrt(eps)`` (about 1.5e-8) from 1.  A ``SortedDistribution`` clips
    entries down to -1e-12 to 0 and rejects sums more than 1e-9 from 1, so
    every distribution it accepts is one ``choice`` accepts.
    """

    @pytest.mark.parametrize("defect", [-0.99e-9, 0.99e-9])
    def test_accepted_edges_pass_choice(self, defect):
        dist = sb.SortedDistribution([0.5, 0.3, 0.2 + defect, 0.0, -1e-13])
        assert (dist.probs >= 0.0).all()
        assert 1e-9 < math.sqrt(np.finfo(float).eps)
        np.random.default_rng(0).choice(dist.n, size=4, p=dist.probs)  # no raise

    @pytest.mark.parametrize(
        "probs", [[0.5, 0.3, 0.2 + 2e-9], [0.5, 0.3, 0.2 - 2e-9], [0.6, 0.4, -2e-12]]
    )
    def test_beyond_edges_rejected(self, probs):
        with pytest.raises(sb.InvalidEntryError):
            sb.SortedDistribution(probs)


def test_repeated_sampler_memory_does_not_grow_with_trials():
    dist = sb.make_distribution(sb.zipf_weights(40, 0.8))
    rng = derive_rng(1, 0)
    tracemalloc.start()
    try:
        scenarios._sample_hits_repeated(dist, 8, 3, 2_000_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (trials, 3) array of doubles would be 48 MB; one block is 1.5 MB
    assert peak < 4 * 2**20


@pytest.mark.parametrize("cells", [1, 20, 63])
@pytest.mark.parametrize(
    "kind, n, m, k", [s for s in SAMPLED_KINDS if s[0] in ("cache_multipage", "scheduling")]
)
def test_gumbel_blocks_sized_by_cells(monkeypatch, cells, kind, n, m, k):
    # blocks of max(1, cells // n) trials, one trial per block when cells < n
    monkeypatch.setattr(scenarios, "GUMBEL_BLOCK_CELLS", cells)
    for seed in (0, 5):
        weights = np.random.default_rng(seed).random(n) + 0.05
        assert_same_rate(sb.ScenarioConfig(
            kind=kind, n=n, m=m, k=k, weights=weights, trials=25, seed=seed,
        ))


def test_gumbel_sampler_memory_does_not_grow_with_trials():
    dist = sb.make_distribution(sb.zipf_weights(200, 0.9))
    rng = derive_rng(2, 0)
    tracemalloc.start()
    try:
        scenarios._sample_hits_unique(dist, 20, 2, 10_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (trials, n) array of keys would be 16 MB; one block is 2 MB
    assert peak < 8 * 2**20
