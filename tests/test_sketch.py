"""Unit and property tests for the count-sketch core."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradsketch.sketch import (
    _BUILD_BLOCK,
    _ESTIMATE_BLOCK,
    MERSENNE_P,
    ConfigMismatchError,
    CountSketch,
    HashFamily,
    SketchConfig,
    _mulmod_p61,
    _poly_eval,
    merge_all,
    size_for,
    sketch_many,
    sketch_vector,
)
import gradsketch.sketch as sketch_module
from oracles import accumulate, mulmod_p61_short, point_estimate, sketch_pairs


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


# field elements and 32-bit indices, each with their edge values
_FIELD_VALUES = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, MERSENNE_P - 1]), st.integers(0, MERSENNE_P - 1))
_SHORT_VALUES = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))

# sha256 of the bucket and sign tables' bytes, recorded before the Horner
# kernel was rewritten: the quad-sketched-1m family (d = 10**6, seed 2), the
# blobs-sketched-784 family, a ragged multi-block d, and a c that is not a
# power of two
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
    (SketchConfig(d=3 * _BUILD_BLOCK + 5, r=3, c=11, seed=8),
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
        assert fam.buckets.dtype == np.int64 and fam.signs.dtype == np.float64
        assert hashlib.sha256(fam.buckets.tobytes()).hexdigest() == buckets_sha
        assert hashlib.sha256(fam.signs.tobytes()).hexdigest() == signs_sha

    @pytest.mark.parametrize("block", [1, 7, "d"])
    def test_tables_do_not_depend_on_block_size(self, monkeypatch, block):
        cfg = SketchConfig(d=_BUILD_BLOCK + 5, r=3, c=13, seed=21)
        ref = HashFamily(cfg)
        monkeypatch.setattr(sketch_module, "_BUILD_BLOCK", cfg.d if block == "d" else block)
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
        assert set(np.unique(fam.signs)) <= {-1.0, 1.0}

    def test_blocked_build_matches_one_pass(self):
        cfg = SketchConfig(d=3 * _BUILD_BLOCK + 5, r=3, c=11, seed=8)
        fam = HashFamily(cfg)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        coeffs = rng.integers(0, MERSENNE_P, size=(cfg.r, 2, 4), dtype=np.uint64)
        idx = np.arange(cfg.d, dtype=np.uint64)
        buckets = (_poly_eval(coeffs[:, 0, :], idx) % np.uint64(cfg.c)).astype(np.int64)
        signs = 1.0 - 2.0 * (_poly_eval(coeffs[:, 1, :], idx) & np.uint64(1)).astype(np.float64)
        assert _same_bits(fam.buckets, buckets) and _same_bits(fam.signs, signs)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(_FIELD_VALUES, min_size=1, max_size=16),
        x=st.lists(_SHORT_VALUES, min_size=1, max_size=16),
    )
    def test_short_mulmod_matches_full(self, a, x):
        a, x = np.array(a, dtype=np.uint64)[:, None], np.array(x, dtype=np.uint64)[None, :]
        short = mulmod_p61_short(a, x)
        assert _same_bits(short, _mulmod_p61(a, x))
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
        # every x below 2**32 takes the lazily reduced kernel
        got = _poly_eval(np.array(coeffs, dtype=np.uint64), np.array(x, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == (len(coeffs), len(x))
        for row, (c3, c2, c1, c0) in zip(got.tolist(), coeffs):
            assert row == [(((c3 * xi + c2) * xi + c1) * xi + c0) % MERSENNE_P for xi in x]

    def test_poly_eval_on_both_sides_of_32_bits(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        coeffs = rng.integers(0, MERSENNE_P, size=(3, 4), dtype=np.uint64)
        for xs in ([0, 1, 2**32 - 1], [5, 2**32], [2**32 - 1, 2**32, MERSENNE_P - 1]):
            got = _poly_eval(coeffs, np.array(xs, dtype=np.uint64))
            for row, (c3, c2, c1, c0) in zip(got.tolist(), coeffs.tolist()):
                assert row == [(((c3 * x + c2) * x + c1) * x + c0) % MERSENNE_P for x in xs]

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


def _rowwise_update(sketch, vec):
    # update_dense as it stood before sketch_many: one vector, one weighted
    # bincount per row.
    cfg, fam = sketch.config, sketch._family
    vec = np.asarray(vec, dtype=np.float64)
    if not vec.any():
        return
    for row, buckets, signs in zip(sketch.table, fam.buckets, fam.signs):
        row += np.bincount(buckets, weights=signs * vec, minlength=cfg.c)


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
            _rowwise_update(old, vec)
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

    @pytest.mark.parametrize("d", [_ESTIMATE_BLOCK - 1, _ESTIMATE_BLOCK, _ESTIMATE_BLOCK + 1, 3 * _ESTIMATE_BLOCK + 5])
    def test_estimate_all_across_block_edges(self, d):
        special = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
        for r in range(1, 10):
            cfg = SketchConfig(d=d, r=r, c=9, seed=r)
            rng = np.random.default_rng(r)
            table = np.where(rng.random((r, cfg.c)) < 0.5, rng.choice(special, (r, cfg.c)), rng.standard_normal((r, cfg.c)))
            s = CountSketch(cfg, _table=table)
            with np.errstate(invalid="ignore"):  # inf + -inf in both medians
                assert _same_bits(s.estimate_all(), _numpy_median_estimates(s))
