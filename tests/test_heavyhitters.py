"""Tests for approximate top-k extraction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsketch import OptimizerConfig, QuadraticProblem, heavyhitters
from gradsketch.cluster import run_training
from gradsketch.heavyhitters import KSparseVector, heavymix, top_pk_candidates, topk_indices
from gradsketch.sketch import CountSketch, SketchConfig, size_for, sketch_vector
from oracles import (
    contraction_ratio,
    dense,
    gaussian_vector,
    ksparse_vector,
    top_pk_from_every_estimate,
    unsigned_hashes,
    zipf_vector,
)


class TestKSparseVector:
    def test_valid_round_trip(self):
        v = KSparseVector(d=10, indices=np.array([1, 4, 7]), values=np.array([1.0, -2.0, 0.5]))
        written = dense(v)
        assert written[4] == -2.0 and np.count_nonzero(written) == 3
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


class TestSelectorArguments:
    # topk_indices, top_pk_candidates and heavymix check k and p by one rule:
    # an integer, not a bool, in range, over a 1-d value array
    def _sketch(self):
        return sketch_vector(SketchConfig(d=16, r=3, c=5, seed=0), np.arange(16.0) - 7.5)

    @pytest.mark.parametrize("bad", [2.0, 1.5, np.float64(2.0), True, False, "2", None], ids=repr)
    def test_rejects_what_is_not_an_integer(self, bad):
        s, vals = self._sketch(), np.arange(6.0)
        for call in (lambda: topk_indices(vals, bad), lambda: top_pk_candidates(s, bad, 2),
                     lambda: top_pk_candidates(s, 2, bad), lambda: heavymix(s, bad, 0)):
            with pytest.raises(ValueError):
                call()

    def test_rejects_a_value_array_that_is_not_1d(self):
        # a partition of the flattened array named flat indices [19998 19999]
        for vals in (np.arange(20000.0).reshape(2, 10000), np.float64(3.0)):
            with pytest.raises(ValueError, match="1-d"):
                topk_indices(vals, 2)

    @pytest.mark.parametrize("integer", [np.int8, np.int64, np.uint8, np.uint64])
    def test_takes_numpy_integers(self, integer):
        s, vals = self._sketch(), np.arange(6.0) - 2.5
        assert np.array_equal(topk_indices(vals, integer(2)), topk_indices(vals, 2))
        assert np.array_equal(top_pk_candidates(s, integer(3), integer(4)), top_pk_candidates(s, 3, 4))
        assert np.array_equal(heavymix(s, integer(5), 1), heavymix(s, 5, 1))


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

    @pytest.mark.parametrize("pool", [
        np.arange(256, dtype=np.uint8),
        np.array([0, 1, 7, 2**32, 2**53, 2**63, 2**64 - 2**11], dtype=np.uint64),
        np.array([False, True]),
        np.array([0, 1, -1, -7, 2**53, -2**53, 2**62, -2**63], dtype=np.int64),
    ], ids=lambda pool: pool.dtype.name)
    def test_integer_and_bool_input(self, pool):
        # ranked by float64 magnitude, which every pool value keeps exactly;
        # a negated unsigned magnitude wraps, and abs(-2**63) overflows int64
        rng = np.random.default_rng(3)
        for n in (3, 300, 20_000):
            values = rng.choice(pool, size=n)
            assert values.dtype == pool.dtype
            for k in {0, 1, 7 % (n + 1), n // 2, n}:
                assert np.array_equal(topk_indices(values, k), _stable_argsort_topk(values.astype(np.float64), k))
        assert list(topk_indices(np.array([0, 5, 3], dtype=np.uint8), 1)) == [1]
        assert list(topk_indices(np.array([5, -2**63, 3], dtype=np.int64), 1)) == [1]

    def test_fills_with_lowest_index_nans(self):
        values = np.array([np.nan, 1.0, np.nan, np.nan, -2.0])
        assert list(topk_indices(values, 3)) == [0, 1, 4]
        assert list(topk_indices(values, 4)) == [0, 1, 2, 4]


def _sampled_inputs(n):
    # Inputs at a size where topk_indices samples a lower bound first, with
    # what the sample sees rigged in each direction.
    step = n // heavyhitters._TOPK_SAMPLE
    rng = np.random.default_rng(11)
    i = np.arange(n)
    normal = rng.standard_normal(n)
    tiers = np.ones(n)
    upper = rng.choice(n, 3200, replace=False)
    tiers[upper[:600]] = 3.0
    tiers[upper[600:]] = 2.0
    tiers *= rng.choice([-1.0, 1.0], n)
    few_nonzero = np.zeros(n)
    few_nonzero[rng.choice(n, 300, replace=False)] = rng.standard_normal(300)
    few_numbers = normal.copy()
    few_numbers[rng.random(n) < 0.995] = np.nan
    return {
        "normal": normal,
        "sorted": np.sort(normal),
        "reversed": np.sort(normal)[::-1].copy(),
        # the sample reads only zeros; every large entry sits between samples
        "periodic_unsampled": np.where(i % step == 0, 0.0, normal),
        # every large entry is sampled, so the sample overstates how many
        # there are eightfold and the bound can leave fewer than k above it
        "periodic_sampled": np.where(i % (8 * step) == 0, 100.0 + normal, normal),
        "tiers": tiers,
        "few_nonzero": few_nonzero,
        "signed_zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
        "infinities": np.where(rng.random(n) < 0.01, rng.choice([np.inf, -np.inf], n), normal),
        "few_numbers": few_numbers,
    }


class TestSampledTopk:
    """Arrays large enough that topk_indices selects from candidates above a
    sampled lower bound; the oracle is the same stable sort."""

    N = 8 * heavyhitters._TOPK_SAMPLE

    @pytest.fixture
    def exact_sizes(self, monkeypatch):
        # The sizes of the arrays the exact selection runs over.
        sizes = []
        exact = heavyhitters._topk_of_negated

        def spy(neg, k):
            sizes.append(neg.size)
            return exact(neg, k)

        monkeypatch.setattr(heavyhitters, "_topk_of_negated", spy)
        return sizes

    @pytest.mark.parametrize("name", sorted(_sampled_inputs(N)))
    def test_matches_stable_argsort(self, name):
        values = _sampled_inputs(self.N)[name]
        for k in (1, 7, 100, 299, 300, 301, 1000, 3000, 3300, self.N // 3, self.N - 1, self.N):
            got = topk_indices(values, k)
            assert got.dtype == np.intp
            assert np.array_equal(got, _stable_argsort_topk(values, k)), (name, k)

    def test_ks_around_the_cuts(self):
        # The sampled path is tried only while q stays below the sample size,
        # and taken only while the candidates are at most half the array.
        n = self.N
        step = n // heavyhitters._TOPK_SAMPLE
        sample_size = len(range(0, n, step))
        q_cut = next(k for k in range(1, n + 1) if 2 * k // step + 8 >= sample_size)
        values = _sampled_inputs(n)["normal"]
        for k in (q_cut - 1, q_cut, n // 4 - 1, n // 4, n // 4 + 1):
            assert np.array_equal(topk_indices(values, k), _stable_argsort_topk(values, k)), k

    def test_sizes_around_the_sampling_cut(self):
        rng = np.random.default_rng(5)
        for n in (2 * heavyhitters._TOPK_SAMPLE - 1, 2 * heavyhitters._TOPK_SAMPLE):
            values = rng.integers(-50, 51, n).astype(np.float64)
            for k in (1, 40, 500):
                assert np.array_equal(topk_indices(values, k), _stable_argsort_topk(values, k)), (n, k)

    def test_selects_from_candidates_only(self, exact_sizes):
        values = _sampled_inputs(self.N)["normal"]
        topk_indices(values, 1000)
        assert len(exact_sizes) == 1 and 1000 <= exact_sizes[0] <= self.N // 2

    def test_ties_at_the_bound_are_candidates(self, exact_sizes):
        # The k-th magnitude is 2, which is also the sampled bound: with the
        # bound inclusive, its 2,600 ties join the 600 entries at 3 as
        # candidates, and the selection takes the first 400 of them.
        values = _sampled_inputs(self.N)["tiers"]
        got = topk_indices(values, 1000)
        assert np.array_equal(got, _stable_argsort_topk(values, 1000))
        assert exact_sizes == [3200]

    @pytest.mark.parametrize("name", ["periodic_unsampled", "periodic_sampled", "few_nonzero", "few_numbers"])
    def test_falls_back_to_every_entry(self, name, exact_sizes):
        values = _sampled_inputs(self.N)[name]
        got = topk_indices(values, 1000)
        assert np.array_equal(got, _stable_argsort_topk(values, 1000))
        assert exact_sizes == [self.N]

    def test_sampled_nans_rank_below_the_bound(self, exact_sizes):
        # Sampled NaNs rank below every number, so they cannot raise the
        # bound: these arrays keep the sampled path (about 1,900-2,100
        # candidates each), which a bound that ranked NaN highest would lose.
        rng = np.random.default_rng(3)
        for frac in (0.01, 0.05, 0.2):
            values = rng.standard_normal(self.N)
            values[rng.random(self.N) < frac] = np.nan
            exact_sizes.clear()
            assert np.array_equal(topk_indices(values, 1000), _stable_argsort_topk(values, 1000)), frac
            assert len(exact_sizes) == 1 and exact_sizes[0] < self.N, (frac, exact_sizes)


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

    def test_needs_the_sign_hashes(self):
        # 20 heavy coordinates at +1 over a background of -c/d: with every
        # sign +1 a bucket's background sums to about -1 and cancels the
        # heavy coordinate it holds; with the real signs it sums to noise
        d, r, c, k = 10_000, 5, 600, 20
        signed, unsigned = [], []
        for seed in range(20):
            heavy = np.random.default_rng(seed).choice(d, k, replace=False)
            g = np.full(d, -c / d)
            g[heavy] = 1.0
            cfg = SketchConfig(d=d, r=r, c=c, seed=seed + 1)
            with unsigned_hashes(cfg):
                unsigned.append(int(np.isin(heavy, top_pk_candidates(sketch_vector(cfg, g), 2, k)).sum()))
            signed.append(int(np.isin(heavy, top_pk_candidates(sketch_vector(cfg, g), 2, k)).sum()))
        assert signed == [k] * 20
        assert sum(unsigned) <= k  # of 400 heavy coordinates; 0 measured

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

    @pytest.mark.parametrize("r", [4, 5])
    def test_finite_cells_whose_squares_overflow_do_not_warn(self, r):
        # The squared cells and estimates of 1e200 read inf, and the spike
        # still heads the heavy set.
        v = np.zeros(1000)
        v[3] = 1e200
        s = sketch_vector(SketchConfig(d=1000, r=r, c=50, seed=0), v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s.l2_squared_estimate() == np.inf
            out = heavymix(s, 10, 0)
        assert out.size == 10 and 3 in out

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


_QUERY_D = 2 * heavyhitters._TOPK_SAMPLE


def _query_sketch(kind, d, r, c, seed):
    # A sketch of about 2 * _TOPK_SAMPLE coordinates, from a vector or a
    # drawn table, for the top-P*k selection that queries before it estimates.
    cfg = SketchConfig(d=d, r=r, c=c, seed=seed)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return sketch_vector(cfg, rng.standard_normal(d) * np.linspace(1.0, 3.0, d))
    if kind == "zipf":
        return sketch_vector(cfg, zipf_vector(rng, d))
    if kind == "sparse":
        return sketch_vector(cfg, ksparse_vector(rng, d, 20, 5.0) + rng.normal(0.0, 0.01, d))
    if kind == "integer table":
        return CountSketch(cfg, _table=rng.integers(-3, 4, size=(r, c)).astype(np.float64))
    if kind == "zeros":
        return CountSketch(cfg)
    raise ValueError(kind)


def _query_sketch_with_cell(cell, r=5, seed=0, rows=None):
    # A gaussian sketch with one cell of each of ``rows`` (by default the
    # middle row) replaced by ``cell``.
    s = _query_sketch("gaussian", _QUERY_D, r, 256, seed)
    s.table[[r // 2] if rows is None else rows, 7] = cell
    return s


def _periodic_sketch():
    # Every 4th coordinate is large and every other one zero: the sampled
    # bound, the q-th largest of the samples with q = m/2 + 8, expects
    # about 4q coordinates to clear it, but only about m/2 do.
    d = 2 * _QUERY_D
    cfg = SketchConfig(d=d, r=5, c=1 << 15, seed=4)
    vec = np.zeros(d)
    vec[:: d // heavyhitters._TOPK_SAMPLE] = np.linspace(1.0, 2.0, heavyhitters._TOPK_SAMPLE)
    return sketch_vector(cfg, vec)


def _constant_sketch(c=16):
    # Every estimate is +-1, so any positive bound up to 1 names all of d.
    return CountSketch(SketchConfig(d=_QUERY_D, r=5, c=c, seed=1), _table=np.ones((5, c)))


@pytest.fixture
def full_estimates(monkeypatch):
    """The sketches ``CountSketch.estimate_all`` is called on."""
    calls = []
    original = CountSketch.estimate_all

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CountSketch, "estimate_all", spy)
    return calls


class TestQueriedTopPk:
    """``top_pk_candidates`` queries the sketch for the coordinates that can
    clear its sampled bound; it must select exactly what it selects from
    every coordinate's estimate."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["gaussian", "zipf", "sparse", "integer table", "zeros"]),
        r=st.integers(1, 8),
        d=st.integers(_QUERY_D - 2, _QUERY_D + 300),
        c=st.integers(8, 600),
        seed=st.integers(0, 2**16),
        p=st.integers(1, 10),
        k=st.integers(1, 64),
    )
    def test_matches_its_reference(self, kind, r, d, c, seed, p, k):
        s = _query_sketch(kind, d, r, c, seed)
        got = top_pk_candidates(s, p, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, top_pk_from_every_estimate(s, p, k))

    @pytest.mark.parametrize("r, k", [(2, 10), (2, 30), (3, 10), (3, 30), (4, 10), (5, 10)])
    def test_ties_at_the_bound_take_the_query(self, r, k, full_estimates):
        # Integer cells put hundreds of estimates at the sampled bound, and
        # the (10k)-th largest magnitude among them, except for r = 4.
        s = _query_sketch("integer table", _QUERY_D, r, 64, r)
        expected = top_pk_from_every_estimate(s, 10, k)
        full_estimates.clear()
        assert np.array_equal(top_pk_candidates(s, 10, k), expected)
        assert full_estimates == []

    @pytest.mark.parametrize("kind", ["gaussian", "zipf", "sparse", "integer table"])
    def test_normal_inputs_never_estimate_every_coordinate(self, kind, full_estimates):
        for r in (3, 4, 5):
            s = _query_sketch(kind, _QUERY_D + 5, r, 300, r)
            expected = top_pk_from_every_estimate(s, 10, 10)
            full_estimates.clear()
            assert np.array_equal(top_pk_candidates(s, 10, 10), expected)
            assert full_estimates == []

    @pytest.mark.parametrize("name, make, p, k", [
        ("below the sampling size", lambda: _query_sketch("gaussian", _QUERY_D - 1, 5, 256, 0), 10, 10),
        ("m too close to d", lambda: _query_sketch("gaussian", _QUERY_D, 5, 256, 0), 8, 512),
        ("all-zero sketch", lambda: _query_sketch("zeros", _QUERY_D, 5, 256, 0), 10, 10),
        ("nan cell", lambda: _query_sketch_with_cell(np.nan), 10, 10),
        ("inf cell", lambda: _query_sketch_with_cell(-np.inf), 10, 10),
        ("cell at 2**1022", lambda: _query_sketch_with_cell(2.0**1022), 10, 10),
        ("query names more than half of d", _constant_sketch, 10, 10),
        ("fewer than m clear the bound", _periodic_sketch, 10, 300),
    ])
    def test_falls_back_once(self, name, make, p, k, full_estimates):
        s = make()
        with np.errstate(invalid="ignore"):  # the inf cell's estimates
            expected = top_pk_from_every_estimate(s, p, k)
            full_estimates.clear()
            assert np.array_equal(top_pk_candidates(s, p, k), expected)
        assert full_estimates == [s]

    @pytest.mark.parametrize("r", [4, 5])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, 1e200, 1.5e308])
    def test_special_cells_match_the_references(self, r, cell):
        # Even-r pairs of 1.5e308 overflow to inf without a warning; pairs
        # of opposite infinities still warn as they make NaN.
        s = _query_sketch_with_cell(cell, r=r, seed=r, rows=range(r))
        with np.errstate(invalid="ignore"):
            for p, k in ((10, 10), (2, 200)):
                assert np.array_equal(top_pk_candidates(s, p, k), top_pk_from_every_estimate(s, p, k))


class TestQueryOnAnErrorFeedbackRun:
    """A small empirical run shaped like the d = 10^6 benchmark (linspace
    spectrum, r = 5, c = d/100, P*k = d/1000): ``top_pk_candidates`` must
    keep taking the query, and the query must stay small, or a later change
    could lose the fast path with every result still right."""

    # The query named 1,538-1,871 of the 131,072 coordinates a round
    # (seeds 0-3, 5 rounds each).
    MAX_NAMED = 4000

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_round_estimates_every_coordinate(self, seed, full_estimates, monkeypatch):
        named = []
        query = CountSketch.coordinates_reaching

        def spy(self, threshold):
            out = query(self, threshold)
            named.append(None if out is None else out.size)
            return out

        monkeypatch.setattr(CountSketch, "coordinates_reaching", spy)
        d, k = 1 << 17, 13
        config = OptimizerConfig(mode="empirical", algorithm="sketched", k=k, p=10, t_rounds=5, w_workers=4, lr=3e-4)
        problem = QuadraticProblem(np.linspace(1.0, 3.0, d), 0.1, 16, seed=seed + 3)
        sketch_config = SketchConfig(d=d, r=5, c=d // 100, seed=seed + 2)
        run_training(problem, config, sketch_config, batch_size=16, data_seed=seed + 3, rng_seed=seed + 4)
        assert len(named) == 5
        assert None not in named and max(named) <= self.MAX_NAMED
        assert full_estimates == []


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
