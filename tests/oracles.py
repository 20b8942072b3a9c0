"""Reference implementations the tests check the package against.

The package computes each of these vectorized or not at all; here they stay
in their plain form: a count sketch filled and queried one coordinate at a
time, sketches filled by one weighted ``bincount`` per row and vector over
all d indices, the fully reduced short product modulo the hash field's
prime, a hash family with its buckets widened to int64 (the control of
the narrow bucket storage), the hash tables from every index's polynomial
values, the per-sample gradients whose mean a problem's batch gradient is, the blob data drawn with a shift
matrix and permuted by copying, the top-P*k
candidate selection computed from every coordinate's estimate, a candidate
selection that ignores the sketch (the control of AC11), a sign table of
all +1 (the control of the sign check), the paper's
element compression formula evaluated from the configuration, the
Monte-Carlo error-feedback contraction estimator behind AC3 with the vector
families it draws from, a sparse vector written out densely, and the exact
update supports of a run, recorded at its round function, the logistic
function computed on each sign's half apart, and the worker-gradient
statistics with the worker sum started from zero.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

import gradsketch.cluster as cluster
from gradsketch.heavyhitters import KSparseVector, heavymix, topk_indices
from gradsketch.sketch import MERSENNE_P, CountSketch, HashFamily, SketchConfig, _family_for, _poly_eval, size_for, sketch_vector


def accumulate(sketch: CountSketch, index: int, weight: float) -> None:
    """Add ``weight`` at ``index`` of ``sketch``, touching one cell per row."""
    fam = sketch._family
    sketch.table[np.arange(sketch.config.r), fam.buckets[:, index]] += fam.signs[:, index].astype(np.float64) * weight


def point_estimate(sketch: CountSketch, index: int) -> float:
    """Median-of-rows estimate of the summarized value at ``index``."""
    fam = sketch._family
    vals = sketch.table[np.arange(sketch.config.r), fam.buckets[:, index]] * fam.signs[:, index].astype(np.float64)
    return float(np.median(vals))


def sketch_pairs(config: SketchConfig, pairs) -> CountSketch:
    """Sketch of the ``(index, weight)`` pairs, accumulated in the given order."""
    s = CountSketch(config)
    for index, weight in pairs:
        accumulate(s, int(index), float(weight))
    return s


def bincount_sketch(family: HashFamily, tables: list[np.ndarray], vectors: list[np.ndarray]) -> None:
    """Add the sketch of ``vectors[i]`` into ``tables[i]``, all-zero vectors
    included: per row and vector, one weighted ``bincount`` over all d
    indices sums each cell's addends in index order from +0.0, and that sum
    is added to the cell."""
    for j, (buckets, signs) in enumerate(zip(family.buckets, family.signs)):
        for table, vec in zip(tables, vectors):
            table[j] += np.bincount(buckets, weights=signs * vec, minlength=family.config.c)


def mulmod_p61_short(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a * x mod 2**61 - 1``, fully reduced, for ``a < 2**61 - 1`` and
    ``x < 2**32``: with x one 32-bit limb, hi = (a >> 32) * x < 2**61 and
    lo = (a & 0xFFFFFFFF) * x < 2**64, and folding both with 2**61 = 1
    (mod p) leaves a sum below 2**63."""
    p = np.uint64(MERSENNE_P)
    hi = (a >> np.uint64(32)) * x
    lo = (a & np.uint64(0xFFFFFFFF)) * x
    s = hi >> np.uint64(29)
    hi &= np.uint64((1 << 29) - 1)
    hi <<= np.uint64(32)
    s += hi
    s += lo >> np.uint64(61)
    lo &= p
    s += lo
    s = (s >> np.uint64(61)) + (s & p)
    return np.subtract(s, p, out=s, where=s >= p)


def wide_buckets(family: HashFamily) -> HashFamily:
    """A copy of ``family`` whose bucket table is int64, the index type of
    every gather: the control of the narrow bucket storage."""
    wide = copy.copy(family)
    wide.buckets = family.buckets.astype(np.int64)
    return wide


def direct_family(config: SketchConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ``(buckets, signs)`` tables of ``config``'s hash family, each
    polynomial evaluated by Horner at every index in one pass: the bucket
    is the value mod ``c``, and the sign -1 where the value is odd."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    coeffs = rng.integers(0, MERSENNE_P, size=(config.r, 2, 4), dtype=np.uint64)
    idx = np.arange(config.d, dtype=np.uint64)
    buckets = (_poly_eval(coeffs[:, 0, :], idx) % np.uint64(config.c)).astype(np.int64)
    signs = np.where(_poly_eval(coeffs[:, 1, :], idx) & np.uint64(1), -1, 1).astype(np.int8)
    return buckets, signs


def per_sample_gradients(problem, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One gradient row per sample in ``idx``; their mean is the batch gradient."""
    if problem.kind == "quadratic":
        return (problem.spectrum * w - problem.b)[None, :] + problem.noise[idx]
    X, y = problem.train.features[idx], problem.train.labels[idx]
    if problem.kind == "logistic":
        coeff = -y * sigmoid_by_halves(-(y * (X @ w)))
    else:
        coeff = np.where(y * (X @ w) < 1.0, -y.astype(np.float64), 0.0)
    return X * coeff[:, None] + problem.lam * w


def sigmoid_by_halves(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` where ``z >= 0`` and ``exp(z) / (1 + exp(z))``
    elsewhere, each half gathered and computed apart."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def gradient_statistics_from_zero(grads: list[np.ndarray]) -> tuple[float, float]:
    """What ``cluster._gradient_statistics`` computes, with the worker sum
    started from 0.0 at every W."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add(0.0, grads[0])
        for g in grads[1:]:
            mean += g
        mean /= len(grads)
        dispersion = sum(float((g - mean) @ (g - mean)) for g in grads)
        return float(mean @ mean), dispersion / len(grads)


def blobs_by_copy(n: int, d: int, class_separation: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The features and labels of ``problems.synth_data``, built from the
    same draws by adding a shift matrix and indexing with
    ``rng.permutation(n)``, each step a new array."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    n_pos = (n + 1) // 2
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n - n_pos, dtype=np.int64)])
    features = rng.standard_normal((n, d)) + np.outer(labels, 0.5 * class_separation * direction)
    perm = rng.permutation(n)
    return features[perm], labels[perm]


def top_pk_from_every_estimate(sketch: CountSketch, p: int, k: int) -> np.ndarray:
    """``heavyhitters.top_pk_candidates`` without the sketch query: the
    top ``min(p * k, d)`` of every coordinate's estimate."""
    return topk_indices(sketch.estimate_all(), min(p * k, sketch.config.d))


def random_candidates(seed: int) -> Callable[[CountSketch, int, int], np.ndarray]:
    """A stand-in for ``heavyhitters.top_pk_candidates`` that ignores the
    sketch: each call draws ``min(p * k, d)`` distinct coordinates uniformly
    from one stream seeded by ``seed``, sorted int64 like the real selection.
    The control of AC11."""
    rng = np.random.default_rng(seed)

    def candidates(sketch: CountSketch, p: int, k: int) -> np.ndarray:
        d = sketch.config.d
        return np.sort(rng.choice(d, size=min(p * k, d), replace=False)).astype(np.int64)

    return candidates


@contextmanager
def unsigned_hashes(config: SketchConfig) -> Iterator[None]:
    """Inside the block, every sketch of ``config`` hashes each coordinate
    with sign +1: the cached hash family's sign table is swapped for ones,
    and the real table is put back on exit.  The control of the sign check."""
    family = _family_for(config)
    signs = family.signs
    family.signs = np.ones_like(signs)
    try:
        yield
    finally:
        family.signs = signs


def dense(vec: KSparseVector) -> np.ndarray:
    """``vec`` as a length-d float64 array, zero off its support."""
    out = np.zeros(vec.d)
    out[vec.indices] = vec.values
    return out


@contextmanager
def recorded_supports(round_name: str) -> Iterator[list[np.ndarray]]:
    """Inside the block, every call of the round that ``run_training`` looks
    up as ``gradsketch.cluster.<round_name>`` appends a copy of its update's
    indices to the yielded list, in round order; the real round is put back
    on exit."""
    real = getattr(cluster, round_name)
    supports: list[np.ndarray] = []

    def recording(*args):
        update = real(*args)
        supports.append(np.array(update.indices, dtype=np.int64))
        return update

    setattr(cluster, round_name, recording)
    try:
        yield supports
    finally:
        setattr(cluster, round_name, real)


def paper_compression_factor(config, sketch_config, d: int, mean_union: float | None = None) -> float:
    """The paper's element compression factor, evaluated from configuration.

    Per worker and round, against d up and d down for dense SGD: sketched
    rounds move the sketch, the exact values (``min(P*k, d)`` candidates in
    empirical mode, k in theory mode) and the k-sparse update; vanilla moves
    d up and d down, true top-k d up and k down, and local top-k k up and
    the run's mean union down (``mean_union``, k when not given).  The bias
    coordinates an empirical sketched round also moves are not in it.
    """
    if config.algorithm == "sketched":
        table = sketch_config.r * sketch_config.c
        second = min(config.p * config.k, d) if config.mode == "empirical" else config.k
        return 2.0 * d / (table + second + config.k)
    if config.algorithm == "vanilla":
        return 1.0
    if config.algorithm == "true-topk":
        return 2.0 * d / (d + config.k)
    union = config.k if mean_union is None else mean_union
    return 2.0 * d / (config.k + union)


def gaussian_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal(d)


def zipf_vector(rng: np.random.Generator, d: int, exponent: float = 1.2) -> np.ndarray:
    """Power-law magnitudes ``i**-exponent`` with random signs and positions."""
    mags = np.arange(1, d + 1, dtype=np.float64) ** (-exponent)
    signs = rng.choice([-1.0, 1.0], size=d)
    out = np.zeros(d)
    out[rng.permutation(d)] = signs * mags
    return out


def ksparse_vector(rng: np.random.Generator, d: int, k: int, magnitude: float = 1.0) -> np.ndarray:
    """Exactly k nonzeros of equal magnitude at random positions."""
    out = np.zeros(d)
    support = rng.choice(d, size=k, replace=False)
    out[support] = magnitude * rng.choice([-1.0, 1.0], size=k)
    return out


def contraction_ratio(
    d: int,
    k: int,
    make_vector: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    rng_seed: int,
    delta: float = 0.01,
) -> float:
    """Monte-Carlo estimate of ``E ||g - heavymix(g)||^2 / ||g||^2``.

    Each trial draws a fresh vector and a fresh hash seed, sketches at the
    ``size_for(k, d, delta)`` shape, and subtracts the exact values at the
    nominated coordinates (the residual is zero there).  The mean ratio
    should not exceed ``1 - k/d`` by more than Monte-Carlo and
    failure-probability slack.

    Only ``k <= d/2`` is accepted: that is the regime the bound covers.
    """
    if not 1 <= k <= d // 2:
        raise ValueError(f"contraction oracle needs 1 <= k <= d/2, got k={k}, d={d}")
    if trials < 1:
        raise ValueError("trials must be positive")
    r, c = size_for(k, d, delta)
    seeds = np.random.SeedSequence(rng_seed).spawn(trials)
    total = 0.0
    for trial_seq in seeds:
        sub = trial_seq.generate_state(2)
        rng = np.random.default_rng(int(sub[0]))
        g = make_vector(rng, d)
        norm_sq = float(g @ g)
        if norm_sq == 0.0:
            continue
        cfg = SketchConfig(d=d, r=r, c=c, seed=int(sub[1]))
        resid = g.copy()
        resid[heavymix(sketch_vector(cfg, g), k, int(sub[0]))] = 0.0
        total += float(resid @ resid) / norm_sq
    return total / trials
