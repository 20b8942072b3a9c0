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

import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from gradsketch.sketch import CountSketch

_TOPK_SAMPLE = 4096  # the strided sample size of _topk_above_sampled_bound


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


def _integer(name: str, value, low: int, high: float = float("inf")) -> int:
    """``value`` as an int; ValueError unless it is an integer (no bool) in ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of ``|values|``, ascending.

    Ties in magnitude resolve to the lower index, and NaN entries rank below
    every number, lowest index first, so the selection is deterministic and
    equals the first k of a stable sort by descending magnitude.  Integer and
    bool input is ranked by its float64 magnitude.  It selects over every
    entry only where :func:`_topk_above_sampled_bound` declines.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-d value array, got shape {values.shape}")
    k = _integer("k", k, 0, values.size)
    if k == 0:
        return np.empty(0, dtype=np.intp)
    mags = np.abs(values)
    top = _topk_above_sampled_bound(mags.size, k, mags.take, lambda bound: np.flatnonzero(mags >= bound))
    return top if top is not None else _topk_of_negated(np.negative(mags, out=mags), k)


def _topk_above_sampled_bound(
    n: int, m: int, magnitudes_at: Callable[[np.ndarray], np.ndarray], reaching: Callable[[float], np.ndarray | None]
) -> np.ndarray | None:
    """The top m of n magnitudes, ascending, selected among those at or above
    a sampled lower bound, or None for the caller's selection over every entry.

    The bound is the q-th largest of every ``step = n // _TOPK_SAMPLE``-th
    magnitude, read by ``magnitudes_at(indices)``, NaN ranking below every
    number, with ``q = 2m/step + 8``: about 2m entries clear it, and the
    doubling and the margin make falling short of m rare.  ``reaching(bound)``
    names, ascending, a superset of the entries that clear it, and those whose
    magnitudes do are kept.  When at least m are, the m-th largest magnitude
    and all its ties are among them, so the exact selection over them (ties
    to the lower index) picks what it would over all n.

    None when ``step < 2``, when q is not below the sample size, when
    ``reaching`` returns None or names more than n/2 entries, or when fewer
    than m named entries clear the bound (fewer than m non-NaN or nonzero
    magnitudes, or a sample that missed the large ones).
    """
    step = n // _TOPK_SAMPLE
    if step < 2:
        return None
    sampled = np.arange(0, n, step)
    q = 2 * m // step + 8
    if q >= sampled.size:
        return None
    bound = -np.partition(-magnitudes_at(sampled), q - 1)[q - 1]
    named = reaching(bound)
    if named is None or named.size > n // 2:
        return None
    mags = magnitudes_at(named)
    kept = mags >= bound
    if np.count_nonzero(kept) < m:
        return None
    return named[kept][_topk_of_negated(-mags[kept], m)]


def _topk_of_negated(neg: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest entries of ``neg`` (negated magnitudes),
    ascending, for ``1 <= k <= neg.size``: NaNs rank last, and ties go to
    the lower position.  A partial partition finds the k-th smallest; every
    entry below it is taken, then the lowest-position entries equal to it."""
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):
        # Fewer than k non-NaN entries: all of them, then the first NaNs.
        nan = np.isnan(neg)
        return np.flatnonzero(~nan | (np.cumsum(nan) <= k - (nan.size - np.count_nonzero(nan))))
    idx = np.flatnonzero(neg <= kth)
    above = neg[idx] < kth
    return idx[above | (np.cumsum(~above) <= k - np.count_nonzero(above))]


def top_pk_candidates(sketch: CountSketch, p: int, k: int) -> np.ndarray:
    """The m = min(P*k, d) coordinates with largest estimated magnitude.

    Selects what ``topk_indices(sketch.estimate_all(), m)`` selects (ties to
    the lower index), but estimates only the coordinates that
    :meth:`CountSketch.coordinates_reaching` names for the bound of
    :func:`_topk_above_sampled_bound` (a median of r rows reaches it only if
    ``ceil(r/2)`` of its cells do).  Where the routine declines, the query's
    refusals included (bound zero or not finite, a non-finite cell or one of
    magnitude ``2**1022`` or more), it estimates every coordinate.

    Args:
        sketch: merged sketch to query.
        p: candidate multiplier, at least 1.
        k: target sparsity, in ``[1, d]``.

    Returns:
        Sorted int64 index array of size ``min(p * k, d)``.
    """
    d = sketch.config.d
    p, k = _integer("candidate multiplier p", p, 1), _integer("k", k, 1, d)
    m = min(p * k, d)
    top = _topk_above_sampled_bound(d, m, lambda idx: np.abs(sketch.estimates_at(idx)), sketch.coordinates_reaching)
    return top if top is not None else topk_indices(sketch.estimate_all(), m)


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
    k = _integer("k", k, 1, sketch.config.d)
    est = sketch.estimate_all()
    l2_hat = sketch.l2_squared_estimate()
    with np.errstate(over="ignore"):  # an overflowing square reads inf
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
