"""Reference implementations the tests check the package against.

The package computes each of these vectorized or not at all; here they stay
in their plain form: a count sketch filled and queried one coordinate at a
time, the fully reduced short product modulo the hash field's prime, the
per-sample gradients whose mean a problem's batch gradient is, and the
Monte-Carlo error-feedback contraction estimator behind AC3 with the vector
families it draws from.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from gradsketch.heavyhitters import heavymix
from gradsketch.problems import _sigmoid
from gradsketch.sketch import MERSENNE_P, CountSketch, SketchConfig, size_for, sketch_vector


def accumulate(sketch: CountSketch, index: int, weight: float) -> None:
    """Add ``weight`` at ``index`` of ``sketch``, touching one cell per row."""
    fam = sketch._family
    sketch.table[np.arange(sketch.config.r), fam.buckets[:, index]] += fam.signs[:, index] * weight


def point_estimate(sketch: CountSketch, index: int) -> float:
    """Median-of-rows estimate of the summarized value at ``index``."""
    fam = sketch._family
    vals = sketch.table[np.arange(sketch.config.r), fam.buckets[:, index]] * fam.signs[:, index]
    return float(np.median(vals))


def sketch_pairs(config: SketchConfig, pairs) -> CountSketch:
    """Sketch of the ``(index, weight)`` pairs, accumulated in the given order."""
    s = CountSketch(config)
    for index, weight in pairs:
        accumulate(s, int(index), float(weight))
    return s


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


def per_sample_gradients(problem, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One gradient row per sample in ``idx``; their mean is the batch gradient."""
    if problem.kind == "quadratic":
        return (problem.spectrum * w - problem.b)[None, :] + problem.noise[idx]
    X, y = problem.train.features[idx], problem.train.labels[idx]
    if problem.kind == "logistic":
        coeff = -y * _sigmoid(-(y * (X @ w)))
    else:
        coeff = np.where(y * (X @ w) < 1.0, -y.astype(np.float64), 0.0)
    return X * coeff[:, None] + problem.lam * w


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
