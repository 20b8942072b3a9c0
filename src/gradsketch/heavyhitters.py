"""Approximate top-k selection from merged count sketches.

The server never sees worker vectors, only their merged sketch.  Recovery of
a k-sparse update runs in two rounds, and this module owns only the first:
the sketch nominates candidate coordinates (a thresholded heavy set plus a
uniform random fill, or a plain top-P*k of the point estimates).  The round
functions in ``optim`` then run the exact-lookup round that fetches the true
values of the nominated coordinates from the workers, so all approximation
error lives in which coordinates were nominated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gradsketch.sketch import CountSketch


@dataclass(frozen=True)
class KSparseVector:
    """A sparse vector with strictly increasing indices.

    Attributes:
        d: ambient dimension.
        indices: int64 array, strictly increasing, all in ``[0, d)``.
        values: float64 array aligned with ``indices``.
    """

    d: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if idx.shape != vals.shape or idx.ndim != 1:
            raise ValueError("indices and values must be aligned 1-d arrays")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.d:
                raise ValueError(f"indices out of range for dimension {self.d}")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.d, dtype=np.float64)
        out[self.indices] = self.values
        return out


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of ``|values|``, ascending.

    Ties in magnitude resolve to the lower index, and NaN entries rank below
    every number, lowest index first, so the selection is deterministic and
    equals the first k of a stable sort by descending magnitude.  A partial
    partition finds the k-th largest magnitude; every entry above it is
    taken, then the lowest-index entries equal to it.
    """
    values = np.asarray(values)
    if not 0 <= k <= values.size:
        raise ValueError(f"k={k} out of range for {values.size} values")
    if k == 0:
        return np.empty(0, dtype=np.intp)
    neg = np.abs(values)
    np.negative(neg, out=neg)
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):
        # Fewer than k non-NaN entries: all of them, then the first NaNs.
        nan = np.isnan(neg)
        return np.flatnonzero(~nan | (np.cumsum(nan) <= k - (nan.size - np.count_nonzero(nan))))
    idx = np.flatnonzero(neg <= kth)
    above = neg[idx] < kth
    return idx[above | (np.cumsum(~above) <= k - np.count_nonzero(above))]


def top_pk_candidates(sketch: CountSketch, p: int, k: int) -> np.ndarray:
    """The min(P*k, d) coordinates with largest estimated magnitude.

    Args:
        sketch: merged sketch to query.
        p: candidate multiplier, at least 1.
        k: target sparsity, in ``[1, d]``.

    Returns:
        Sorted int64 index array of size ``min(p * k, d)``.
    """
    d = sketch.config.d
    if p < 1:
        raise ValueError(f"candidate multiplier must be >= 1, got {p}")
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    return topk_indices(sketch.estimate_all(), min(p * k, d))


def heavymix(sketch: CountSketch, k: int, rng_seed: int) -> np.ndarray:
    """Nominate the support of a k-sparse approximation of the sketched vector.

    Coordinates whose estimated squared value clears a ``1/k`` share of the
    estimated squared norm form the heavy set (truncated to the k largest
    estimates if it overflows).  The remaining budget is filled by sampling
    uniformly without replacement from the complement, which is what makes
    the expected residual contract by a ``k/d`` factor even when nothing is
    heavy.

    The ``k <= d/2`` regime is the one the contraction guarantee covers;
    larger k (up to d) is accepted and simply nominates more of the vector.

    Args:
        sketch: merged sketch of the target vector.
        k: output sparsity, in ``[1, d]``.
        rng_seed: seed for the uniform fill, making the call deterministic.

    Returns:
        Sorted int64 array of exactly ``k`` distinct indices.
    """
    d = sketch.config.d
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    est = sketch.estimate_all()
    l2_hat = sketch.l2_squared_estimate()
    est_sq = est * est
    # A coordinate estimated at exactly zero carries no estimated mass and is
    # never treated as heavy; this also keeps the zero vector's heavy set
    # empty instead of degenerate-everything.
    heavy = (est_sq >= l2_hat / k) & (est_sq > 0.0)
    heavy_idx = np.flatnonzero(heavy)
    if heavy_idx.size > k:
        chosen = heavy_idx[topk_indices(est[heavy_idx], k)]
    else:
        chosen = heavy_idx
        fill = k - heavy_idx.size
        if fill > 0:
            pool = np.flatnonzero(~heavy)
            rng = np.random.default_rng(rng_seed)
            sampled = rng.choice(pool, size=fill, replace=False)
            chosen = np.concatenate([chosen, sampled])
    return np.sort(chosen.astype(np.int64))
