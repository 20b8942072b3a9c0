"""Tests for approximate top-k extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsketch.heavyhitters import KSparseVector, heavymix, top_pk_candidates, topk_indices
from gradsketch.sketch import CountSketch, SketchConfig, size_for, sketch_vector
from oracles import contraction_ratio, gaussian_vector, ksparse_vector, zipf_vector


class TestKSparseVector:
    def test_valid_round_trip(self):
        v = KSparseVector(d=10, indices=np.array([1, 4, 7]), values=np.array([1.0, -2.0, 0.5]))
        dense = v.to_dense()
        assert dense[4] == -2.0 and np.count_nonzero(dense) == 3
        assert len(v) == 3

    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            KSparseVector(d=10, indices=np.array([4, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            KSparseVector(d=10, indices=np.array([4, 4]), values=np.array([1.0, 2.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            KSparseVector(d=10, indices=np.array([-1]), values=np.array([1.0]))
        with pytest.raises(ValueError):
            KSparseVector(d=10, indices=np.array([10]), values=np.array([1.0]))

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            KSparseVector(d=10, indices=np.array([1, 2]), values=np.array([1.0]))


class TestTopkSelection:
    def test_ties_resolve_to_lower_index(self):
        assert list(topk_indices(np.array([1.0, 1.0, 1.0]), 2)) == [0, 1]
        assert list(topk_indices(np.array([-2.0, 2.0, 2.0]), 2)) == [0, 1]

    def test_magnitude_not_sign(self):
        assert list(topk_indices(np.array([1.0, -5.0, 3.0]), 1)) == [1]

    def test_bounds(self):
        vals = np.arange(6.0)
        assert list(topk_indices(vals, 0)) == []
        assert list(topk_indices(vals, 6)) == list(range(6))
        with pytest.raises(ValueError):
            topk_indices(vals, 7)


def _stable_argsort_topk(values, k):
    # The selection topk_indices must reproduce: the first k of a stable
    # sort by descending magnitude, NaNs last.
    return np.sort(np.argsort(-np.abs(values), kind="stable")[:k])


class TestTopkOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_stable_argsort(self, data):
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf, np.nan])
        values = np.array(data.draw(st.lists(special | st.floats(-3, 3), max_size=60)), dtype=np.float64)
        edges = sorted({0, min(1, values.size), values.size})
        k = data.draw(st.sampled_from(edges) | st.integers(0, values.size))
        got = topk_indices(values, k)
        assert got.dtype == np.intp
        assert np.array_equal(got, _stable_argsort_topk(values, k))

    def test_cases(self):
        rng = np.random.default_rng(0)
        ties = rng.integers(-3, 4, size=5000).astype(np.float64)
        with_nans = ties.copy()
        with_nans[rng.random(ties.size) < 0.9] = np.nan
        zeros = np.where(rng.random(100) < 0.5, 0.0, -0.0)
        for values in (ties, with_nans, zeros, rng.standard_normal(10_000)):
            for k in {0, 1, 7, min(500, values.size), values.size // 2, values.size - 1, values.size}:
                assert np.array_equal(topk_indices(values, k), _stable_argsort_topk(values, k))

    def test_fills_with_lowest_index_nans(self):
        values = np.array([np.nan, 1.0, np.nan, np.nan, -2.0])
        assert list(topk_indices(values, 3)) == [0, 1, 4]
        assert list(topk_indices(values, 4)) == [0, 1, 2, 4]


class TestTopPkCandidates:
    def test_clamps_to_dimension(self):
        cfg = SketchConfig(d=12, r=5, c=16, seed=0)
        s = sketch_vector(cfg, np.arange(12.0))
        cand = top_pk_candidates(s, p=4, k=5)
        assert list(cand) == list(range(12))

    def test_finds_planted_heavies(self):
        d = 256
        rng = np.random.default_rng(3)
        g = zipf_vector(rng, d)
        heavy = topk_indices(g, 4)
        r, c = size_for(8, d, 0.01)
        cand = top_pk_candidates(sketch_vector(SketchConfig(d=d, r=r, c=c, seed=5), g), p=2, k=8)
        assert cand.size == 16
        assert set(heavy) <= set(cand)

    def test_rejects_bad_parameters(self):
        s = sketch_vector(SketchConfig(d=8, r=3, c=4, seed=0), np.ones(8))
        with pytest.raises(ValueError):
            top_pk_candidates(s, p=0, k=2)
        with pytest.raises(ValueError):
            top_pk_candidates(s, p=2, k=0)
        with pytest.raises(ValueError):
            top_pk_candidates(s, p=2, k=9)


class TestHeavymix:
    def _recover(self, g, k, cfg, seed=0):
        return heavymix(sketch_vector(cfg, g), k, seed)

    def test_output_is_a_sorted_distinct_int64_support(self):
        d = 64
        g = np.random.default_rng(0).standard_normal(d)
        cfg = SketchConfig(d=d, r=9, c=48, seed=1)
        out = self._recover(g, 8, cfg)
        assert out.dtype == np.int64
        assert out.size == 8
        assert np.all(np.diff(out) > 0)
        assert 0 <= out[0] and out[-1] < d

    def test_dominant_coordinates_always_nominated(self):
        # 10*e3 - 8*e12 plus tiny noise: with k=3 both spikes clear the
        # 1/k share of the norm estimate, so they sit in the heavy set for
        # any hash seed; the third slot is the uniform fill.
        d = 16
        g = np.zeros(d)
        g[3], g[12] = 10.0, -8.0
        g += np.random.default_rng(1).normal(0.0, 0.01, d)
        for seed in range(30):
            out = self._recover(g, 3, SketchConfig(d=d, r=7, c=32, seed=seed), seed)
            assert {3, 12} <= set(out)

    def test_zero_vector_gives_a_full_random_fill(self):
        d = 16
        z = np.zeros(d)
        out = self._recover(z, 3, SketchConfig(d=d, r=5, c=8, seed=2), seed=9)
        assert out.size == 3
        assert np.all(np.diff(out) > 0)

    def test_deterministic_given_seed(self):
        d = 64
        g = np.random.default_rng(2).standard_normal(d)
        cfg = SketchConfig(d=d, r=7, c=24, seed=3)
        s = sketch_vector(cfg, g)
        assert np.array_equal(heavymix(s, 6, rng_seed=11), heavymix(s, 6, rng_seed=11))

    def test_equal_magnitude_sparse_recovery(self):
        # With exactly k equal-magnitude nonzeros every support coordinate is
        # (1/k)-heavy against the true norm, so recovery is exact whenever the
        # norm estimate does not overshoot the truth; overshoots can demote
        # boundary coordinates to the random-fill pool.  Assert exactness in
        # the non-overshoot case and a high success rate overall.
        d, k = 64, 8
        r, c = size_for(k, d, 0.01)
        rng = np.random.default_rng(7)
        exact = 0
        trials = 200
        for trial in range(trials):
            g = ksparse_vector(rng, d, k)
            sk = sketch_vector(SketchConfig(d=d, r=r, c=c, seed=trial), g)
            ok = np.array_equal(heavymix(sk, k, trial), np.flatnonzero(g))
            exact += int(ok)
            if sk.l2_squared_estimate() <= float(g @ g):
                assert ok
        assert exact / trials >= 0.9

    def test_k_equals_d_recovers_everything(self):
        d = 32
        g = np.random.default_rng(4).standard_normal(d)
        out = self._recover(g, d, SketchConfig(d=d, r=3, c=4, seed=0))
        assert np.array_equal(out, np.arange(d))

    def test_overflowing_heavy_set_keeps_lowest_index_ties(self):
        # Tables of +-1 and +-2 cells make the estimates heavily tied and put
        # more than k coordinates over the heavy threshold (all of them for
        # the +-1 table); the k kept must be those a stable sort by
        # descending magnitude keeps.
        d, k = 64, 4
        cases = [(seed, [-2.0, -1.0, 1.0, 2.0]) for seed in (1, 2, 3, 4, 5, 9)] + [(0, [-1.0, 1.0])]
        for seed, cells in cases:
            cfg = SketchConfig(d=d, r=5, c=4, seed=seed)
            table = np.random.default_rng(seed).choice(cells, size=(cfg.r, cfg.c))
            s = CountSketch(cfg, _table=table)
            est = s.estimate_all()
            heavy_idx = np.flatnonzero((est * est >= s.l2_squared_estimate() / k) & (est != 0.0))
            assert heavy_idx.size > k
            expected = heavy_idx[_stable_argsort_topk(est[heavy_idx], k)]
            assert np.array_equal(heavymix(s, k, seed), expected)

    def test_rejects_bad_k(self):
        s = sketch_vector(SketchConfig(d=8, r=3, c=4, seed=0), np.ones(8))
        for bad in (0, 9):
            with pytest.raises(ValueError):
                heavymix(s, bad, 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 16))
    def test_output_invariants_property(self, seed, k):
        d = 32
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(d)
        out = self._recover(g, k, SketchConfig(d=d, r=5, c=12, seed=seed), seed)
        assert out.dtype == np.int64
        assert out.size == k
        assert np.all(np.diff(out) > 0)


class TestContraction:
    def test_gaussian_meets_bound(self):
        ratio = contraction_ratio(256, 16, gaussian_vector, trials=300, rng_seed=0)
        assert ratio <= (1 - 16 / 256) + 0.02

    def test_zipf_beats_gaussian(self):
        # Heavy-tailed vectors have recoverable heavy hitters, so the
        # residual should shrink well below the random-fill baseline.
        zipf = contraction_ratio(256, 16, zipf_vector, trials=300, rng_seed=0)
        assert zipf < 0.5

    def test_deterministic(self):
        a = contraction_ratio(128, 8, gaussian_vector, trials=50, rng_seed=5)
        b = contraction_ratio(128, 8, gaussian_vector, trials=50, rng_seed=5)
        assert a == b

    def test_rejects_k_beyond_half(self):
        with pytest.raises(ValueError):
            contraction_ratio(64, 33, gaussian_vector, trials=10, rng_seed=0)
        with pytest.raises(ValueError):
            contraction_ratio(64, 0, gaussian_vector, trials=10, rng_seed=0)
