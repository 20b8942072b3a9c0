"""Unit and property tests for the count-sketch core."""

import copy
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gradsketch.sketch import (
    _BLOCK,
    _BUILD_LANES,
    MERSENNE_P,
    ConfigMismatchError,
    CountSketch,
    HashFamily,
    SketchConfig,
    _poly_eval,
    merge_all,
    size_for,
    sketch_many,
    sketch_vector,
)
import gradsketch.sketch as sketch_module
from oracles import (
    accumulate,
    bincount_sketch,
    direct_family,
    mulmod_p61_short,
    point_estimate,
    sketch_pairs,
    wide_buckets,
)


def _dense(cfg, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(cfg.d) * scale


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConfig:
    def test_rejects_nonpositive_dims(self):
        for bad in [dict(d=0, r=3, c=4), dict(d=8, r=0, c=4), dict(d=8, r=3, c=0)]:
            with pytest.raises(ValueError):
                SketchConfig(seed=1, **bad)

    def test_rejects_overflowing_dims(self):
        with pytest.raises(ValueError):
            SketchConfig(d=8, r=1 << 32, c=4, seed=1)
        with pytest.raises(ValueError):
            SketchConfig(d=1 << 64, r=3, c=4, seed=1)
        with pytest.raises(ValueError):
            SketchConfig(d=8, r=3, c=4, seed=-1)
        with pytest.raises(ValueError):
            SketchConfig(d=8, r=3, c=4, seed=1 << 64)

    @pytest.mark.parametrize("name", ["d", "r", "c", "seed"])
    def test_rejects_a_bool_field(self, name):
        # the integer rule of OptimizerConfig: a bool is not a count or a seed
        fields = dict(d=8, r=3, c=16, seed=1) | {name: True}
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= \d, got True"):
            SketchConfig(**fields)

    @pytest.mark.parametrize("name, value", [("d", np.int64(40)), ("r", np.int32(3)), ("c", np.uint16(16)),
                                             ("seed", np.uint64(2**64 - 1))])
    def test_accepts_a_numpy_integer_field(self, name, value):
        plain = dict(d=40, r=3, c=16, seed=2**64 - 1)
        cfg = SketchConfig(**plain | {name: value})
        assert type(getattr(cfg, name)) is int  # kept as a Python int, so no product wraps
        assert cfg == SketchConfig(**plain) and hash(cfg) == hash(SketchConfig(**plain))
        vec = _dense(cfg, 3)
        assert sketch_vector(cfg, vec).to_bytes() == sketch_vector(SketchConfig(**plain), vec).to_bytes()

    def test_size_for_known_values(self):
        assert size_for(10, 784, 0.01) == (17, 60)
        assert size_for(16, 1024, 0.05) == (15, 96)

    def test_size_for_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            size_for(0, 100, 0.1)
        with pytest.raises(ValueError):
            size_for(101, 100, 0.1)
        with pytest.raises(ValueError):
            size_for(4, 100, 0.0)
        with pytest.raises(ValueError):
            size_for(4, 100, 1.0)
        with pytest.raises(ValueError, match="too small"):
            size_for(4, 100, 5e-324)

    def test_size_for_takes_integers_but_not_bools(self):
        # the integer rule of SketchConfig: a numpy integer is a count, a bool is not
        for k, d in ((True, 5), (2, True), (3.0, 10), (3, 10.0)):
            with pytest.raises(ValueError, match=r"need 1 <= k <= d"):
                size_for(k, d, 0.1)
        shape = size_for(np.int64(3), np.uint32(10), 0.1)
        assert shape == size_for(3, 10, 0.1) == (7, 18) and all(type(v) is int for v in shape)


# field elements and 32-bit indices, each with their edge values
_FIELD_VALUES = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, MERSENNE_P - 1]), st.integers(0, MERSENNE_P - 1))
_SHORT_VALUES = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))

# sha256 of the bucket and sign tables' bytes, recorded before the Horner
# kernel was rewritten: the quad-sketched-1m family (d = 10**6, seed 2), the
# blobs-sketched-784 family, a d of three 4096-index blocks and five more,
# and a c that is not a power of two
_TABLE_DIGESTS = [
    (SketchConfig(d=10**6, r=5, c=10**4, seed=2),
     "52e5c49a34179750dff4a52d868f4713a55bea8c5e799b40e1178eb477d07943",
     "5f4e4b9d99b546202f05537c2f306118b5c82a0547d248a6cf512adbc554b2cb"),
    (SketchConfig(d=784, r=7, c=40, seed=2),
     "5d36e106db709bd428fec2e68b5acc7358c7e54cf9d4c9ce40cb60150006470d",
     "a236aa6d47f039a1f2fe7c8d83d0b85b1ac0e880c8e5b93cf8a05f3ee8f9ec79"),
    (SketchConfig(d=784, r=7, c=40, seed=0),
     "959f1a81395086d21023ca59cc0445c7811ba5767bed21479614ff7547ba7baf",
     "27d919be269edf5aa53e3e04f9c67fb1eb8ba44406b3918de74653f194caa09a"),
    (SketchConfig(d=12293, r=3, c=11, seed=8),
     "445fcd2149e998f404346d6f032bf8fe9ec3031035fe076fd28a4438a0f2bcaa",
     "1555ed96935c98e215de210aaa5faa4def3d42bcbbdb5e12f8b024b807b49734"),
    (SketchConfig(d=5000, r=4, c=1000, seed=7),
     "96345cf9545d65c04338659b4c231eb1b3c26907eeba5a592d451616472201b7",
     "cbb95d07bd340a55981a5b412e32fd0efd8e2f86e2e1570f09c0e585bbd12814"),
]


class TestHashFamily:
    @pytest.mark.parametrize("cfg, buckets_sha, signs_sha", _TABLE_DIGESTS, ids=[
        f"d{cfg.d}-r{cfg.r}-c{cfg.c}-seed{cfg.seed}" for cfg, _, _ in _TABLE_DIGESTS
    ])
    def test_tables_match_golden_digests(self, cfg, buckets_sha, signs_sha):
        fam = HashFamily(cfg)
        assert fam.buckets.dtype == np.min_scalar_type(cfg.c - 1) and fam.signs.dtype == np.int8
        # the bucket digests were taken over int64 tables
        assert hashlib.sha256(fam.buckets.astype(np.int64).tobytes()).hexdigest() == buckets_sha
        # the sign digests were taken over float64 tables
        assert hashlib.sha256(fam.signs.astype(np.float64).tobytes()).hexdigest() == signs_sha

    @pytest.mark.parametrize("block", [1, 2, 3, 7, "d"])
    def test_tables_do_not_depend_on_block_size(self, monkeypatch, block):
        # the lane count of the build
        cfg = SketchConfig(d=4 * _BUILD_LANES + 5, r=3, c=13, seed=21)
        ref = HashFamily(cfg)
        monkeypatch.setattr(sketch_module, "_BUILD_LANES", cfg.d if block == "d" else block)
        fam = HashFamily(cfg)
        assert _same_bits(fam.buckets, ref.buckets) and _same_bits(fam.signs, ref.signs)

    def test_deterministic_rebuild(self):
        cfg = SketchConfig(d=512, r=7, c=24, seed=99)
        f1, f2 = HashFamily(cfg), HashFamily(cfg)
        assert np.array_equal(f1.buckets, f2.buckets)
        assert np.array_equal(f1.signs, f2.signs)

    def test_ranges(self):
        cfg = SketchConfig(d=300, r=5, c=17, seed=4)
        fam = HashFamily(cfg)
        assert fam.buckets.min() >= 0 and fam.buckets.max() < cfg.c
        assert set(np.unique(fam.signs)) <= {-1, 1}

    @pytest.mark.parametrize("r", [1, 5, 9])
    @pytest.mark.parametrize("c, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
                                          (65537, np.uint32), (2**32 - 1, np.uint32)])
    def test_buckets_take_the_narrowest_type_that_holds_c_minus_1(self, c, dtype, r):
        # and int8 signs: 1 + itemsize bytes per row and index
        cfg = SketchConfig(d=_BUILD_LANES + 3, r=r, c=c, seed=r)
        fam = HashFamily(cfg)
        assert fam.buckets.dtype == dtype == np.min_scalar_type(c - 1)
        assert fam.buckets.nbytes + fam.signs.nbytes == (dtype().itemsize + 1) * cfg.r * cfg.d

    @pytest.mark.parametrize("r", [1, 2, 9])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, _BUILD_LANES - 1, _BUILD_LANES, _BUILD_LANES + 1, 2 * _BUILD_LANES,
                                   3 * _BUILD_LANES + 1, 4 * _BUILD_LANES, 4 * _BUILD_LANES + 1, 5 * _BUILD_LANES + 7])
    def test_lane_build_matches_direct_evaluation(self, d, r):
        # fewer steps than differences, a ragged last step, and every lane
        # boundary; c from one bucket to just below 2**32
        for c in (1, 7, 2**31 + 11, 2**32 - 1):
            for seed in (0, 2**64 - 1):
                cfg = SketchConfig(d=d, r=r, c=c, seed=seed)
                fam = HashFamily(cfg)
                buckets, signs = direct_family(cfg)
                # values, not dtypes: the family stores its buckets narrow
                assert _same_bits(fam.buckets.astype(np.int64), buckets) and _same_bits(fam.signs, signs), cfg

    @pytest.mark.parametrize("d", [10**5, 10**6])
    def test_build_memory_stays_flat_in_d(self, d):
        # tracemalloc peak above the two tables: 556 KiB at both sizes (the
        # (2r, L) differences plus one Horner evaluation at L points); every
        # index evaluated a block at a time read 835 KiB, and all 4L start
        # points evaluated in one call 1.03 MiB
        cfg = SketchConfig(d=d, r=5, c=10**4, seed=2)
        HashFamily(SketchConfig(d=64, r=5, c=10**4, seed=2))  # numpy's first-use allocations
        tracemalloc.start()
        try:
            fam = HashFamily(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - fam.buckets.nbytes - fam.signs.nbytes < 640 << 10

    def test_build_allocates_three_bytes_per_row_and_index(self):
        # uint16 buckets (c = 1000) and int8 signs, plus the build's
        # temporaries; int64 buckets took 9 bytes per row and index
        cfg = SketchConfig(d=1 << 18, r=5, c=1000, seed=3)
        HashFamily(SketchConfig(d=64, r=5, c=1000, seed=3))  # numpy's first-use allocations
        tracemalloc.start()
        try:
            HashFamily(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cfg.r * cfg.d + (600 << 10)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(_FIELD_VALUES, min_size=1, max_size=16),
        x=st.lists(_SHORT_VALUES, min_size=1, max_size=16),
    )
    def test_short_mulmod_matches_full(self, a, x):
        a, x = np.array(a, dtype=np.uint64)[:, None], np.array(x, dtype=np.uint64)[None, :]
        short = mulmod_p61_short(a, x)
        assert short.tolist() == [[ai * xi % MERSENNE_P for xi in x[0].tolist()] for ai in a[:, 0].tolist()]

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.lists(_FIELD_VALUES, min_size=4, max_size=4), min_size=1, max_size=4),
        x=st.lists(_SHORT_VALUES, min_size=1, max_size=16),
    )
    # at x = 1 the last step's sum is exactly p, which only the final
    # reduction takes to 0; all-(p - 1) at the largest x is the bound's edge
    @example(coeffs=[[0, 0, 1, MERSENNE_P - 1]], x=[1])
    @example(coeffs=[[MERSENNE_P - 1] * 4], x=[2**32 - 1])
    def test_lazy_horner_matches_python_ints(self, coeffs, x):
        got = _poly_eval(np.array(coeffs, dtype=np.uint64), np.array(x, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == (len(coeffs), len(x))
        for row, (c3, c2, c1, c0) in zip(got.tolist(), coeffs):
            assert row == [(((c3 * xi + c2) * xi + c1) * xi + c0) % MERSENNE_P for xi in x]

    def test_poly_eval_at_the_32_bit_boundary(self):
        # the largest index a family admits is 2**32 - 1
        rng = np.random.Generator(np.random.Philox(key=5))
        coeffs = np.vstack([rng.integers(0, MERSENNE_P, size=(3, 4), dtype=np.uint64),
                            np.full((1, 4), MERSENNE_P - 1, dtype=np.uint64)])
        xs = [0, 1, 2**31, 2**32 - 2, 2**32 - 1]
        got = _poly_eval(coeffs, np.array(xs, dtype=np.uint64))
        for row, (c3, c2, c1, c0) in zip(got.tolist(), coeffs.tolist()):
            assert row == [(((c3 * x + c2) * x + c1) * x + c0) % MERSENNE_P for x in xs]

    def test_rejects_dimension_above_2_32(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"2\*\*32"):
                SketchConfig(d=2**32 + 1, r=1, c=4, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # nothing near a table row (2**32 cells) was requested
        assert peak < 1 << 20
        # the largest admitted dimension still makes a config (no family is built here)
        assert SketchConfig(d=2**32, r=1, c=4, seed=0).d == 2**32

    def test_family_cache_holds_at_most_four_families(self):
        # at d = 10**6, r = 5 and c = 10**4 a family holds 14 MiB of tables
        for seed in range(1000, 1006):
            CountSketch(SketchConfig(d=64, r=3, c=8, seed=seed))
            info = sketch_module._family_for.cache_info()
            assert info.currsize <= info.maxsize == 4

    def test_a_fresh_sketch_leaves_its_family_in_the_cache(self):
        # perfbench/child.py times CountSketch(config) as set-up, which holds
        # only while the constructor builds the family and caches it
        cfg = SketchConfig(d=64, r=3, c=8, seed=2006)
        s = CountSketch(cfg)
        hits = sketch_module._family_for.cache_info().hits
        assert sketch_module._family_for(cfg) is s._family
        assert sketch_module._family_for.cache_info().hits == hits + 1

    def test_seed_changes_hashes(self):
        a = HashFamily(SketchConfig(d=256, r=5, c=16, seed=1))
        b = HashFamily(SketchConfig(d=256, r=5, c=16, seed=2))
        assert not np.array_equal(a.buckets, b.buckets)


class TestAccumulate:
    def test_new_sketch_is_zero(self):
        s = CountSketch(SketchConfig(d=32, r=3, c=8, seed=0))
        assert not s.table.any()

    def test_single_spike_exact(self):
        cfg = SketchConfig(d=16, r=5, c=8, seed=3)
        s = CountSketch(cfg)
        accumulate(s, 2, 7.0)
        assert point_estimate(s, 2) == 7.0
        assert s.l2_squared_estimate() == 49.0
        # exactly one touched cell per row, of magnitude 7
        assert np.count_nonzero(s.table) == cfg.r
        assert np.allclose(np.abs(s.table[s.table != 0]), 7.0)

    def test_spike_noise_profile(self):
        # With a single spike every other index estimates 0 or +-7 per row
        # (collision or not), and the median over 5 rows is 0 for almost all
        # of them: three same-sign collisions out of 5 rows are rare at c=8.
        zero_medians = total = 0
        for seed in range(100):
            s = CountSketch(SketchConfig(d=16, r=5, c=8, seed=seed))
            accumulate(s, 2, 7.0)
            est = s.estimate_all()
            others = np.delete(est, 2)
            assert set(np.unique(np.abs(others))) <= {0.0, 7.0}
            zero_medians += int(np.sum(others == 0.0))
            total += others.size
        assert zero_medians / total >= 0.99

    def test_dense_equals_pairs(self):
        cfg = SketchConfig(d=64, r=5, c=16, seed=11)
        v = _dense(cfg, 0)
        v[::3] = 0.0
        a = sketch_vector(cfg, v)
        b = sketch_pairs(cfg, [(i, v[i]) for i in range(cfg.d) if v[i] != 0.0])
        assert np.array_equal(a.table, b.table)

    def test_estimate_all_matches_point_estimates(self):
        cfg = SketchConfig(d=40, r=7, c=12, seed=5)
        s = sketch_vector(cfg, _dense(cfg, 1))
        est = s.estimate_all()
        for i in range(cfg.d):
            assert est[i] == point_estimate(s, i)


class TestLinearity:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vec_seed=st.integers(0, 2**32 - 1))
    def test_merge_equals_sketch_of_sum(self, seed, vec_seed):
        cfg = SketchConfig(d=128, r=5, c=24, seed=seed)
        rng = np.random.default_rng(vec_seed)
        g1, g2 = rng.standard_normal(cfg.d), rng.standard_normal(cfg.d)
        merged = merge_all([sketch_vector(cfg, g1), sketch_vector(cfg, g2)])
        direct = sketch_vector(cfg, g1 + g2)
        np.testing.assert_allclose(merged.table, direct.table, rtol=1e-10, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-100, 100, allow_nan=False), seed=st.integers(0, 2**16))
    def test_scale_commutes_with_sketching(self, alpha, seed):
        cfg = SketchConfig(d=64, r=3, c=16, seed=seed)
        g = _dense(cfg, seed)
        np.testing.assert_allclose(
            sketch_vector(cfg, g).scale(alpha).table,
            sketch_vector(cfg, alpha * g).table,
            rtol=1e-10,
            atol=1e-12,
        )

    def test_merge_does_not_mutate_inputs(self):
        cfg = SketchConfig(d=32, r=3, c=8, seed=1)
        a, b = sketch_vector(cfg, _dense(cfg, 0)), sketch_vector(cfg, _dense(cfg, 1))
        ta, tb = a.table.copy(), b.table.copy()
        merge_all([a, b])
        assert np.array_equal(a.table, ta) and np.array_equal(b.table, tb)

    def test_scale_rejects_nonfinite(self):
        s = CountSketch(SketchConfig(d=8, r=3, c=4, seed=0))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                s.scale(bad)

    def test_merge_requires_identical_config(self):
        base = dict(d=32, r=3, c=8, seed=1)
        s = CountSketch(SketchConfig(**base))
        for field, other in [("d", 33), ("r", 4), ("c", 9), ("seed", 2)]:
            cfg = SketchConfig(**{**base, field: other})
            with pytest.raises(ConfigMismatchError):
                merge_all([s, CountSketch(cfg)])

    def test_merge_all_is_ordered_fold(self):
        cfg = SketchConfig(d=64, r=5, c=16, seed=2)
        parts = [sketch_vector(cfg, _dense(cfg, i)) for i in range(4)]
        folded = parts[0].table
        for p in parts[1:]:
            folded = folded + p.table
        assert np.array_equal(merge_all(parts).table, folded)
        with pytest.raises(ValueError):
            merge_all([])


class TestRecovery:
    def test_point_query_bound_gaussian(self):
        # |est_i^2 - g_i^2| <= ||g||^2 / (2k) should hold for all but a small
        # fraction of (seed, coordinate) pairs at the size_for shape.
        k, d = 16, 256
        r, c = size_for(k, d, 0.05)
        violations = total = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal(d)
            s = sketch_vector(SketchConfig(d=d, r=r, c=c, seed=seed), g)
            est = s.estimate_all()
            bound = float(g @ g) / (2 * k)
            violations += int(np.sum(np.abs(est**2 - g**2) > bound))
            total += d
        assert violations / total <= 0.05

    def test_l2_estimate_within_half(self):
        k, d = 16, 256
        r, c = size_for(k, d, 0.05)
        hits = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal(d)
            s = sketch_vector(SketchConfig(d=d, r=r, c=c, seed=seed), g)
            n2 = float(g @ g)
            hits += int(0.5 * n2 <= s.l2_squared_estimate() <= 1.5 * n2)
        assert hits / 60 >= 0.95


class TestSerialization:
    def test_round_trip_bit_exact(self):
        cfg = SketchConfig(d=100, r=6, c=20, seed=123456789)
        s = sketch_vector(cfg, _dense(cfg, 9, scale=3.7))
        back = CountSketch.from_bytes(s.to_bytes(), cfg)
        assert back.config == cfg
        assert back.table.tobytes() == s.table.tobytes()
        assert back.to_bytes() == s.to_bytes()

    def test_byte_layout(self):
        cfg = SketchConfig(d=8, r=2, c=3, seed=5)
        raw = CountSketch(cfg).to_bytes()
        assert raw[:4] == b"CSK1"
        assert len(raw) == 4 + 2 + 8 + 4 + 4 + 8 + 8 * cfg.r * cfg.c

    def test_rejects_corrupt_payloads(self):
        s = CountSketch(SketchConfig(d=8, r=2, c=3, seed=5))
        raw = s.to_bytes()
        with pytest.raises(ValueError):
            CountSketch.from_bytes(b"XXXX" + raw[4:], s.config)
        with pytest.raises(ValueError):
            CountSketch.from_bytes(raw[:-4], s.config)
        with pytest.raises(ValueError):
            CountSketch.from_bytes(raw[:10], s.config)

    def test_deserialized_sketch_estimates(self):
        cfg = SketchConfig(d=16, r=5, c=8, seed=3)
        s = CountSketch(cfg)
        accumulate(s, 2, 7.0)
        assert point_estimate(CountSketch.from_bytes(s.to_bytes(), cfg), 2) == 7.0


# Reference kernels: the plain formulations that update_dense and
# estimate_all must reproduce bit for bit.


def _flat_bincount_update(sketch, vec):
    # Gather the nonzeros, then one bincount over flattened (row, bucket)
    # offsets for all rows at once.
    cfg, fam = sketch.config, sketch._family
    nz = np.nonzero(vec)[0]
    if nz.size == 0:
        return
    flat = (fam.buckets + (np.arange(cfg.r) * cfg.c)[:, None])[:, nz].ravel()
    weights = (fam.signs[:, nz] * vec[nz]).ravel()
    sketch.table += np.bincount(flat, weights=weights, minlength=cfg.r * cfg.c).reshape(cfg.r, cfg.c)


def _numpy_median_estimates(sketch):
    fam = sketch._family
    return np.median(np.take_along_axis(sketch.table, fam.buckets, axis=1) * fam.signs, axis=0)


class TestKernelOracles:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), negate=st.booleans())
    def test_update_dense_matches_flat_bincount(self, data, seed, negate):
        cfg = SketchConfig(d=48, r=data.draw(st.integers(1, 6)), c=5, seed=seed)
        finite = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        vectors = [np.array(data.draw(st.lists(finite, min_size=cfg.d, max_size=cfg.d))) for _ in range(2)]
        new = CountSketch(cfg)
        if negate:
            # scale(-1) of an empty table leaves every cell at -0.0
            new = new.scale(-1.0)
        old = new.copy()
        for vec in vectors:
            new.update_dense(vec)
            _flat_bincount_update(old, vec)
            assert _same_bits(new.table, old.table)

    def test_update_dense_cases(self):
        cfg = SketchConfig(d=200, r=5, c=16, seed=7)
        dense = _dense(cfg, 3)
        sparse = np.where(np.arange(cfg.d) % 17 == 0, dense, 0.0)
        for start in (CountSketch(cfg), sketch_vector(cfg, -dense).scale(-1.0), CountSketch(cfg).scale(-1.0)):
            for vec in (dense, sparse, np.zeros(cfg.d), -np.zeros(cfg.d)):
                new, old = start.copy(), start.copy()
                new.update_dense(vec)
                _flat_bincount_update(old, vec)
                assert _same_bits(new.table, old.table)

    def test_zero_vector_keeps_negative_zero_cells(self):
        s = CountSketch(SketchConfig(d=16, r=3, c=4, seed=0)).scale(-1.0)
        s.update_dense(np.zeros(16))
        assert np.all(np.signbit(s.table))

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        w_vectors=st.integers(1, 5),
        r=st.integers(1, 9),
        d=st.sampled_from([1, 2, 7, 33]),
        seed=st.integers(0, 2**16),
    )
    def test_sketch_many_matches_per_vector_update(self, data, w_vectors, r, d, seed):
        cfg = SketchConfig(d=d, r=r, c=data.draw(st.integers(1, 6)), seed=seed)
        special = st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan])
        entry = st.one_of(special, st.floats(-1e6, 1e6))
        vectors = []
        for _ in range(w_vectors):
            kind = data.draw(st.sampled_from(["zeros", "negative zeros", "drawn"]))
            if kind == "zeros":
                vectors.append(np.zeros(d))
            elif kind == "negative zeros":
                vectors.append(-np.zeros(d))
            else:
                vectors.append(np.array(data.draw(st.lists(entry, min_size=d, max_size=d))))
        sketches = sketch_many(cfg, vectors)
        assert len(sketches) == w_vectors
        for sketch, vec in zip(sketches, vectors):
            assert sketch.config == cfg
            one = CountSketch(cfg)
            one.update_dense(vec)
            old = CountSketch(cfg)
            bincount_sketch(old._family, [old.table], [vec])
            assert _same_bits(sketch.table, old.table)
            assert _same_bits(one.table, old.table)
            assert _same_bits(sketch_vector(cfg, vec).table, old.table)

    def test_sketch_many_checks_every_shape(self):
        cfg = SketchConfig(d=12, r=3, c=5, seed=1)
        good = _dense(cfg, 1)
        for bad in (np.ones(11), np.ones(13), np.ones((12, 1)), np.float64(1.0)):
            for position in range(3):
                vectors = [good, good]
                vectors.insert(position, bad)
                with pytest.raises(ValueError, match="shape"):
                    sketch_many(cfg, vectors)
            with pytest.raises(ValueError, match="shape"):
                CountSketch(cfg).update_dense(bad)
        assert sketch_many(cfg, []) == []

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("d", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
    def test_sketch_many_and_update_dense_across_block_edges(self, d, c):
        # With c this small every cell sums addends from every block, so a
        # sum restarted at a block edge or blocks taken out of order change
        # bits.  Vectors: finite with signed zeros and subnormals; finite
        # with runs of four 1.7e308 addends of row 0's sign, one before each
        # block edge (and before d // 2), so that sum overflows on the first
        # index of a block; the same negated; finite with scattered
        # infinities and NaNs; -0.0.
        rng = np.random.default_rng(d + c)
        for r in range(1, 10):
            cfg = SketchConfig(d=d, r=r, c=c, seed=d + r)
            fam = sketch_module._family_for(cfg)
            tiny = np.where(rng.random(d) < 0.3, rng.choice(_SPECIAL_ENTRIES[:6], d), rng.standard_normal(d))
            huge = rng.standard_normal(d)
            for end in [d // 2, *range(_BLOCK, d, _BLOCK)]:
                run = slice(end - 1, end + 3)
                huge[run] = 1.7e308 * fam.signs[0, run]
            wild = np.where(rng.random(d) < 0.001, rng.choice(_SPECIAL_ENTRIES[-3:], d), rng.standard_normal(d))
            vectors = [tiny, huge, -huge, wild, -np.zeros(d)]
            with np.errstate(over="ignore", invalid="ignore"):  # inf sums and inf - inf in the oracle
                expected = [np.zeros((r, c)) for _ in vectors]
                bincount_sketch(fam, expected, vectors)
                if c == 1:
                    assert expected[1][0, 0] == np.inf and expected[2][0, 0] == -np.inf
                for w in range(1, len(vectors) + 1):
                    sketches = sketch_many(cfg, vectors[:w])
                    assert all(_same_bits(s.table, e) for s, e in zip(sketches, expected))
                for start in (CountSketch(cfg), CountSketch(cfg).scale(-1.0)):
                    new, old = start.copy(), start.copy()
                    for vec in vectors:
                        new.update_dense(vec)
                        if vec.any():
                            bincount_sketch(fam, [old.table], [vec])
                        assert _same_bits(new.table, old.table)

    def test_sketch_many_allocates_only_its_tables_and_three_blocks(self):
        # W = 4 tables, two float64 blocks of scratch, one intp block of
        # widened buckets and small objects: no second set of W tables to
        # add from, and no d-length buffer of weights
        d, w = 1 << 18, 4
        cfg = SketchConfig(d=d, r=5, c=1000, seed=1)
        vectors = [_dense(cfg, seed) for seed in range(w)]
        sketch_many(cfg, vectors)  # the family and numpy's first-use allocations
        tracemalloc.start()
        try:
            sketch_many(cfg, vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w * cfg.r * cfg.c * 8 + 3 * 8 * _BLOCK + (64 << 10)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        w_vectors=st.integers(1, 4),
        r=st.integers(1, 9),
        pairs=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_sketch_many_tables_hold_no_negative_zero(self, data, w_vectors, r, pairs, seed):
        # Each vector is pairs (x, -x * s_0(i) * s_0(i + 1)) of signed zeros
        # and magnitudes, which cancel in row 0 wherever the pair shares a
        # cell; with c <= 2 many cells of every row sum to exact zeros, and
        # at c = 1 row 0's one cell does.  No cell may be -0.0.
        cfg = SketchConfig(d=2 * pairs, r=r, c=data.draw(st.integers(1, 2)), seed=seed)
        signs = sketch_module._family_for(cfg).signs[0].astype(np.float64)
        entry = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1.7e308])
        vectors = []
        for _ in range(w_vectors):
            vec = np.empty(cfg.d)
            vec[0::2] = data.draw(st.lists(entry, min_size=pairs, max_size=pairs))
            vec[1::2] = -vec[0::2] * signs[0::2] * signs[1::2]
            vectors.append(vec)
        for sketch in sketch_many(cfg, vectors):
            zeros = sketch.table[sketch.table == 0.0]
            assert not np.signbit(zeros).any()
            assert cfg.c > 1 or sketch.table[0, 0] == 0.0

    def test_update_dense_on_one_of_sketch_many_leaves_the_others(self):
        # the tables of sketch_many may be views of one array
        cfg = SketchConfig(d=300, r=5, c=16, seed=4)
        sketches = sketch_many(cfg, [_dense(cfg, seed) for seed in range(3)])
        before = [s.table.copy() for s in sketches]
        sketches[1].update_dense(_dense(cfg, 9))
        assert not _same_bits(sketches[1].table, before[1])
        assert _same_bits(sketches[0].table, before[0]) and _same_bits(sketches[2].table, before[2])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), r=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_estimate_all_matches_numpy_median(self, data, r, seed):
        cfg = SketchConfig(d=40, r=r, c=6, seed=seed)
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan])
        cell = st.one_of(special, st.floats(-4, 4), st.integers(-2, 2).map(float))
        cells = data.draw(st.lists(cell, min_size=r * cfg.c, max_size=r * cfg.c))
        s = CountSketch(cfg, _table=np.array(cells).reshape(r, cfg.c))
        # +inf and -inf cells are drawn on purpose; both sides sum them to NaN
        with np.errstate(invalid="ignore"):
            assert _same_bits(s.estimate_all(), _numpy_median_estimates(s))

    def test_estimate_all_cases(self):
        for r in range(1, 10):
            cfg = SketchConfig(d=300, r=r, c=7, seed=r)
            rng = np.random.default_rng(r)
            # heavy ties and signed zeros, then a few NaN cells
            table = rng.integers(-2, 3, size=(r, cfg.c)).astype(np.float64)
            table[rng.random((r, cfg.c)) < 0.2] = -0.0
            s = CountSketch(cfg, _table=table)
            assert _same_bits(s.estimate_all(), _numpy_median_estimates(s))
            table[0, 0] = np.nan
            est = s.estimate_all()
            assert _same_bits(est, _numpy_median_estimates(s))
            assert np.isnan(est[s._family.buckets[0] == 0]).all()
            assert not np.isnan(est[s._family.buckets[0] != 0]).any()

    @pytest.mark.parametrize("d", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_estimate_all_across_block_edges(self, d):
        special = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
        for r in range(1, 10):
            cfg = SketchConfig(d=d, r=r, c=9, seed=r)
            rng = np.random.default_rng(r)
            table = np.where(rng.random((r, cfg.c)) < 0.5, rng.choice(special, (r, cfg.c)), rng.standard_normal((r, cfg.c)))
            s = CountSketch(cfg, _table=table)
            with np.errstate(invalid="ignore"):  # inf + -inf in both medians
                assert _same_bits(s.estimate_all(), _numpy_median_estimates(s))


# signed zeros, subnormals, the extremes of the finite range, infinities and NaN
_SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan])


def _kernel_outputs(monkeypatch, family, seed):
    # Every kernel that reads the family, run under ``family`` on three
    # vectors drawn from ``seed``: finite and small, then finite with
    # overflowing sums, then anything.  Sketches of each vector and running
    # sums of them, each with its table, all estimates, 100 chosen ones and
    # the coordinates reaching 1.0, as (dtype, bytes) pairs.
    cfg = family.config
    rng = np.random.default_rng(seed)
    vectors = [np.where(rng.random(cfg.d) < share, rng.choice(_SPECIAL_ENTRIES[:n], cfg.d), rng.standard_normal(cfg.d))
               for share, n in ((0.3, 6), (0.01, 8), (0.3, len(_SPECIAL_ENTRIES)))]
    indices = rng.integers(0, cfg.d, size=100)
    monkeypatch.setattr(sketch_module, "_family_for", lambda config: family)
    with np.errstate(over="ignore", invalid="ignore"):  # inf sums and inf - inf
        sketches = sketch_many(cfg, vectors)
        running = CountSketch(cfg)
        for vec in vectors:
            running.update_dense(vec)
            sketches.append(running.copy())
        out = []
        for s in sketches:
            reaching = s.coordinates_reaching(1.0)
            out += [s.table, s.estimate_all(), s.estimates_at(indices), np.array([]) if reaching is None else reaching]
    return [(a.dtype, a.tobytes()) for a in out]


class TestSignStorage:
    @pytest.mark.parametrize("r", range(1, 10))
    @pytest.mark.parametrize("d", [4 * _BUILD_LANES - 1, 4 * _BUILD_LANES + 1, _BLOCK + 3])
    def test_int8_signs_give_the_bits_of_float64_signs(self, monkeypatch, d, r):
        # Every kernel that reads the family, run on its int8 signs and again
        # on the same family with those signs as a float64 table.
        fam = HashFamily(SketchConfig(d=d, r=r, c=97, seed=d + r))
        wide = copy.copy(fam)
        wide.signs = fam.signs.astype(np.float64)
        assert set(np.unique(wide.signs)) <= {-1.0, 1.0}
        assert _kernel_outputs(monkeypatch, fam, r) == _kernel_outputs(monkeypatch, wide, r)


class TestBucketStorage:
    # c at each edge of the bucket dtypes up to uint32; a c of 2**32 - 1
    # needs 32 GiB per table row, so it is covered only by the tables'
    # dtype and value tests
    @pytest.mark.parametrize("c", [1, 256, 257, 65536, 65537])
    @pytest.mark.parametrize("d", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
    def test_narrow_buckets_give_the_bits_of_int64_buckets(self, monkeypatch, d, c):
        # Every kernel that reads the family, run on its narrow buckets and
        # again on the same family with those buckets as an int64 table.
        for r in (1, 4):
            fam = HashFamily(SketchConfig(d=d, r=r, c=c, seed=d + c + r))
            assert fam.buckets.dtype.itemsize < 8 and fam.buckets.max() < c
            assert _kernel_outputs(monkeypatch, fam, r) == _kernel_outputs(monkeypatch, wide_buckets(fam), r)

    @pytest.mark.parametrize("c", [257, 65537])
    def test_kernels_match_the_plain_references_past_a_narrow_range(self, c):
        # Bucket values up to 256 and 65536, which an int8 or an int16
        # widening would wrap to another bucket.  The references gather
        # through the buckets with no kernel, so they catch a widening that
        # the int64 control above shares with the narrow family.
        cfg = SketchConfig(d=2 * _BLOCK + 5, r=4, c=c, seed=c)
        rng = np.random.default_rng(c)
        vectors = [rng.standard_normal(cfg.d) for _ in range(2)]
        expected = [np.zeros((cfg.r, c)) for _ in vectors]
        bincount_sketch(sketch_module._family_for(cfg), expected, vectors)
        for s, e in zip(sketch_many(cfg, vectors), expected):
            assert _same_bits(s.table, e) and _same_bits(s.estimate_all(), _numpy_median_estimates(s))
            assert np.array_equal(s.coordinates_reaching(1.0), np.flatnonzero(_marked_counts(s, 1.0) >= (cfg.r + 1) // 2))


def _marked_counts(sketch, threshold):
    # Per coordinate, the number of rows whose cell has magnitude at least
    # threshold, read cell by cell.
    fam = sketch._family
    return (np.abs(np.take_along_axis(sketch.table, fam.buckets, axis=1)) >= threshold).sum(axis=0)


_SPECIAL_CELLS = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])


class TestSketchQuery:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        r=st.integers(1, 9),
        d=st.sampled_from([1, 7, 40, _BLOCK + 3]),
        seed=st.integers(0, 2**16),
        special=st.booleans(),
    )
    def test_estimates_at_matches_estimate_all(self, data, r, d, seed, special):
        cfg = SketchConfig(d=d, r=r, c=data.draw(st.integers(1, 9)), seed=seed)
        rng = np.random.default_rng(seed)
        table = rng.integers(-2, 3, size=(r, cfg.c)).astype(np.float64)
        if special:
            table = np.where(rng.random((r, cfg.c)) < 0.3, rng.choice(_SPECIAL_CELLS, (r, cfg.c)), table)
        s = CountSketch(cfg, _table=table)
        # empty, unsorted and repeated indices alike
        idx = np.array(data.draw(st.lists(st.integers(0, d - 1), max_size=60)), dtype=np.int64)
        with np.errstate(invalid="ignore"):  # inf + -inf in both medians
            assert _same_bits(s.estimates_at(idx), s.estimate_all()[idx])

    @pytest.mark.parametrize("r", [1, 4, 5])
    def test_estimates_at_across_block_edges(self, r):
        cfg = SketchConfig(d=3 * _BLOCK + 5, r=r, c=11, seed=r)
        s = CountSketch(cfg, _table=np.random.default_rng(r).standard_normal((r, cfg.c)))
        everything = s.estimate_all()
        rng = np.random.default_rng(r + 1)
        for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7):
            idx = rng.integers(0, cfg.d, size)
            assert _same_bits(s.estimates_at(idx), everything[idx])
        assert _same_bits(s.estimates_at(np.arange(cfg.d)), everything)
        assert _same_bits(s.estimates_at([]), np.empty(0))

    @pytest.mark.parametrize("indices", [np.array([-1]), np.array([3, -8]), np.array([1.7]), np.array([1.0]),
                                         np.array([True, False, False]), np.array([8]), np.array([2**63], dtype=np.uint64),
                                         [0.5]], ids=repr)
    def test_estimates_at_rejects_what_is_not_a_coordinate(self, indices):
        # a gather would wrap -1 to d - 1, and an intp cast truncate 1.7 to 1
        s = CountSketch(SketchConfig(d=8, r=3, c=4, seed=0), _table=np.arange(12.0).reshape(3, 4))
        with pytest.raises(ValueError, match="coordinates"):
            s.estimates_at(indices)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_estimates_at_takes_any_integer_dtype(self, dtype):
        s = CountSketch(SketchConfig(d=8, r=3, c=4, seed=0), _table=np.arange(12.0).reshape(3, 4))
        assert _same_bits(s.estimates_at(np.array([7, 0, 3], dtype=dtype)), s.estimate_all()[[7, 0, 3]])

    def test_estimates_at_rejects_a_2d_index_array(self):
        s = CountSketch(SketchConfig(d=8, r=3, c=4, seed=0))
        with pytest.raises(ValueError, match="1-d"):
            s.estimates_at(np.zeros((2, 2), dtype=np.int64))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), r=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_names_the_coordinates_with_half_the_rows_marked(self, data, r, seed):
        # Integer cells tie often, and the threshold is drawn from the
        # estimates' magnitudes, so cells sit exactly at it.
        cfg = SketchConfig(d=200, r=r, c=data.draw(st.integers(1, 12)), seed=seed)
        rng = np.random.default_rng(seed)
        s = CountSketch(cfg, _table=rng.integers(-3, 4, size=(r, cfg.c)).astype(np.float64))
        est = s.estimate_all()
        mags = np.abs(est[est != 0.0])
        assume(mags.size)
        threshold = float(data.draw(st.sampled_from(sorted(set(mags.tolist())))))
        named = s.coordinates_reaching(threshold)
        assert named.dtype == np.intp
        assert np.array_equal(named, np.flatnonzero(_marked_counts(s, threshold) >= (r + 1) // 2))
        assert set(np.flatnonzero(np.abs(est) >= threshold)) <= set(named)

    @pytest.mark.parametrize("r", [2, 4, 6, 8])
    def test_even_rows_need_only_half_the_cells(self, r):
        # Half the rows hold 4 and the other half 0, so the estimate is
        # (0.0 + 0 + 4) / 2 = 2 with exactly r/2 cells at or above 2.
        cfg = SketchConfig(d=50, r=r, c=64, seed=r)
        s = CountSketch(cfg)
        fam = s._family
        i = 17
        for j in range(r // 2):
            s.table[j, fam.buckets[j, i]] = 4.0 * fam.signs[j, i]
        assert abs(s.estimates_at([i])[0]) == 2.0
        assert i in s.coordinates_reaching(2.0)

    def test_declines_what_it_cannot_bound(self):
        cfg = SketchConfig(d=64, r=4, c=8, seed=1)
        table = np.random.default_rng(1).standard_normal((cfg.r, cfg.c))
        s = CountSketch(cfg, _table=table)
        for threshold in (0.0, -1.0, np.nan, np.inf):
            assert s.coordinates_reaching(threshold) is None
        assert s.coordinates_reaching(np.float64(0.5)) is not None
        for cell in (np.nan, np.inf, -np.inf, 2.0**1022, -1.5e308):
            bad = table.copy()
            bad[2, 3] = cell
            assert CountSketch(cfg, _table=bad).coordinates_reaching(0.5) is None
        bad = table.copy()
        bad[2, 3] = np.nextafter(2.0**1022, 0.0)
        assert CountSketch(cfg, _table=bad).coordinates_reaching(0.5) is not None

    def test_near_overflow_cells_would_break_the_even_bound(self):
        # Two 1.5e308 cells sum to inf, so an estimate can exceed every one
        # of its cells: the reason the query declines such a table.
        cfg = SketchConfig(d=8, r=2, c=4, seed=3)
        s = CountSketch(cfg)
        fam = s._family
        for j in range(2):
            s.table[j, fam.buckets[j, 5]] = 1.5e308 * fam.signs[j, 5]
        with np.errstate(over="ignore"):
            assert s.estimates_at([5])[0] == np.inf
        assert s.coordinates_reaching(1.7e308) is None

    def test_counts_past_255_rows(self):
        # 300 marked rows must not wrap a one-byte count around to 44
        cfg = SketchConfig(d=10, r=300, c=3, seed=2)
        s = CountSketch(cfg, _table=np.ones((cfg.r, cfg.c)))
        assert np.array_equal(s.coordinates_reaching(1.0), np.arange(10))
