"""Mergeable count sketches over dense gradient vectors.

A count sketch summarizes a vector ``g`` of dimension ``d`` in an ``r x c``
table of float64 cells.  Each row ``j`` owns a pair of 4-wise independent
hash functions: a bucket hash ``h_j : [d) -> [c)`` and a sign hash
``s_j : [d) -> {-1, +1}``.  Accumulating weight ``w`` at index ``i`` adds
``s_j(i) * w`` to cell ``(j, h_j(i))`` for every row.  The structure is
linear in its input, which gives the two properties everything else here
relies on:

* sketches of partial gradients can be merged cell-wise, and the merge of
  ``sketch(g1)`` and ``sketch(g2)`` equals ``sketch(g1 + g2)`` exactly
  (up to float addition order);
* a single coordinate is recovered by the median over rows of
  ``s_j(i) * table[j, h_j(i)]``, with error controlled by the mass of the
  colliding coordinates, and the squared norm is recovered by the median
  over rows of the row's sum of squared cells.

Since a median of r values has magnitude at least t only if ``ceil(r/2)``
of the values do, the coordinates whose estimate can reach t are found from
the cells alone (:meth:`CountSketch.coordinates_reaching`), without forming
any median; this holds in float arithmetic as long as no even-r pair sum
overflows, so a table with a cell of magnitude ``2**1022`` or more is not
queried.

Hashes are degree-3 polynomials over the Mersenne prime ``2**61 - 1`` with
coefficients drawn from a counter-based Philox stream keyed by the config
seed, so a config fully determines the hash family on every platform.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MERSENNE_P = (1 << 61) - 1
# Indices per block when a hash family is built: small enough that the
# evaluation's (r, block) temporaries stay in cache and never grow with d.
_BUILD_BLOCK = 1 << 12
# Indices per block of estimate_all and estimates_at: the r gathered rows of
# a block stay in cache through the whole median network.
_ESTIMATE_BLOCK = 1 << 14
# From this cell magnitude on, the two middle values of an even-r median can
# overflow their sum, so coordinates_reaching declines to bound the median.
_OVERFLOW_CELL = 2.0 ** 1022

_HEADER = struct.Struct("<4sHQIIQ")
_MAGIC = b"CSK1"
_VERSION = 1


class ConfigMismatchError(ValueError):
    """Raised when two sketches with different configs are combined."""


@dataclass(frozen=True)
class SketchConfig:
    """Shape and seeding of a count sketch.

    Two sketches interoperate (merge, compare) exactly when their configs
    are equal field-for-field.

    Attributes:
        d: dimension of the summarized vectors.
        r: number of table rows (independent hash pairs).
        c: number of buckets per row.
        seed: hash-family seed; must fit in an unsigned 64-bit integer.
    """

    d: int
    r: int
    c: int
    seed: int

    def __post_init__(self):
        for name in ("d", "r", "c"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.r >= 1 << 32 or self.c >= 1 << 32:
            raise ValueError(f"table dims r={self.r}, c={self.c} exceed u32 range")
        if self.d >= 1 << 64:
            raise ValueError(f"dimension d={self.d} exceeds u64 range")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


def size_for(k: int, d: int, delta: float) -> tuple[int, int]:
    """Table shape sized to recover k heavy coordinates out of d.

    Returns ``(r, c)`` with ``r = ceil(log2(d / delta))`` rows and
    ``c = 6 * k`` buckets, the failure-probability / collision-mass
    trade-off the recovery guarantees are stated for.

    Args:
        k: number of coordinates the caller intends to extract.
        d: vector dimension.
        delta: failure probability budget, in (0, 1).

    Raises:
        ValueError: if ``k`` is not in ``[1, d]``, ``delta`` not in (0, 1),
            or ``d / delta`` overflows a float.
    """
    if not isinstance(k, int) or not isinstance(d, int) or k < 1 or d < 1 or k > d:
        raise ValueError(f"need 1 <= k <= d, got k={k!r}, d={d!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    if math.isinf(d / delta):
        raise ValueError(f"delta={delta!r} is too small for d={d}")
    r = math.ceil(math.log2(d / delta))
    return max(r, 1), 6 * k


def _mulmod_p61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Product modulo 2**61 - 1 on uint64 arrays with all values < 2**61.
    # Splits each factor at 32 bits so no intermediate overflows, then folds
    # the high parts back with 2**61 = 1 (mod p).
    mask32 = np.uint64(0xFFFFFFFF)
    p = np.uint64(MERSENNE_P)
    ah, al = a >> np.uint64(32), a & mask32
    bh, bl = b >> np.uint64(32), b & mask32
    mid = ah * bl + al * bh
    mid_hi, mid_lo = mid >> np.uint64(29), mid & np.uint64((1 << 29) - 1)
    lo = al * bl
    lo = (lo >> np.uint64(61)) + (lo & p)
    s = ((ah * bh) << np.uint64(3)) + mid_hi + (mid_lo << np.uint64(32)) + lo
    s = (s >> np.uint64(61)) + (s & p)
    return np.where(s >= p, s - p, s)


def _poly_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation of per-row degree-3 polynomials mod ``2**61 - 1``.

    ``coeffs`` is ``(rows, 4)`` uint64, each below p, highest degree first;
    ``x`` is ``(n,)`` uint64.  Returns ``(rows, n)`` uint64 values fully
    reduced below p.  A block whose indices are all below 2**32 (every block
    of a table that fits in memory) takes the lazily reduced kernel; any
    larger index takes the general ``_mulmod_p61`` step, reduced each time.
    """
    p = np.uint64(MERSENNE_P)
    if x.size and int(x.max()) >= 1 << 32:
        acc = np.broadcast_to(coeffs[:, :1], (coeffs.shape[0], x.size)).copy()
        for deg in range(1, coeffs.shape[1]):
            acc = _mulmod_p61(acc, x[None, :])
            acc += coeffs[:, deg][:, None]
            np.subtract(acc, p, out=acc, where=acc >= p)
        return acc
    # Each step s <- s*x + c keeps s < 2**61 + 8 instead of reducing it
    # below p; with 2**61 = 1 (mod p) and x < 2**32:
    # - h = s >> 31 <= 2**30, so h*x < 2**62, and h*x*2**31 folds to
    #   (h*x >> 30) < 2**32 plus ((h*x & (2**30 - 1)) << 31) < 2**61;
    # - (s & (2**31 - 1))*x < 2**63 needs no fold;
    # - with c < p the sum of these parts stays below 2**64, so one fold
    #   (s >> 61) + (s & p) brings it back below 2**61 + 8.
    # The leading coefficient's 31-bit halves are per-row scalars, so the
    # first step starts from their two outer products with x.
    x = x[None, :]
    mask31, mask30 = np.uint64((1 << 31) - 1), np.uint64((1 << 30) - 1)
    hi = (coeffs[:, :1] >> np.uint64(31)) * x
    lo = (coeffs[:, :1] & mask31) * x
    for deg in range(1, coeffs.shape[1]):
        if deg > 1:
            hi = s >> np.uint64(31)
            hi *= x
            lo = s  # s is rebuilt below, so its buffer takes the low half
            lo &= mask31
            lo *= x
        s = hi >> np.uint64(30)
        hi &= mask30
        hi <<= np.uint64(31)
        s += hi
        s += lo
        s += coeffs[:, deg:deg + 1]
        hi = s >> np.uint64(61)
        s &= p
        s += hi
    # the one full reduction, branch-free: s < 2p, and when s < p, s - p
    # wraps above s, so the minimum keeps s; otherwise it is s - p
    return np.minimum(s, s - p)


class HashFamily:
    """Bucket and sign hashes for every row of a sketch config.

    The family is materialized as lookup tables over all ``d`` indices:
    ``buckets[j, i]`` is the bucket of index ``i`` in row ``j`` and
    ``signs[j, i]`` its sign.  Row ``j`` draws one degree-3 polynomial for
    its buckets and one for its signs (coefficients from a Philox stream
    keyed by the seed); the bucket is the polynomial's value mod 2**61 - 1,
    then mod ``c``, and the sign is -1 where that value is odd.  The
    polynomials are evaluated by :func:`_poly_eval` in blocks of
    ``_BUILD_BLOCK`` indices, so the build's temporaries do not grow with
    ``d`` and the tables do not depend on the block size.  Construction is
    deterministic in the config; rebuilding from an equal config reproduces
    the tables bit for bit.
    """

    def __init__(self, config: SketchConfig):
        self.config = config
        rng = np.random.Generator(np.random.Philox(key=config.seed))
        coeffs = rng.integers(0, MERSENNE_P, size=(config.r, 2, 4), dtype=np.uint64)
        if config.d > MERSENNE_P:
            raise ValueError("dimension exceeds the hash field size")
        self.buckets = np.empty((config.r, config.d), dtype=np.int64)
        self.signs = np.empty((config.r, config.d), dtype=np.float64)
        for start in range(0, config.d, _BUILD_BLOCK):
            idx = np.arange(start, min(start + _BUILD_BLOCK, config.d), dtype=np.uint64)
            block = slice(start, start + idx.size)
            self.buckets[:, block] = _poly_eval(coeffs[:, 0, :], idx) % np.uint64(config.c)
            self.signs[:, block] = 1.0 - 2.0 * (_poly_eval(coeffs[:, 1, :], idx) & np.uint64(1)).astype(np.float64)


@lru_cache(maxsize=32)
def _family_for(config: SketchConfig) -> HashFamily:
    return HashFamily(config)


@lru_cache(maxsize=32)
def _median_network(r: int) -> tuple[tuple[int, int, bool, bool], ...]:
    # Compare-exchange steps of an odd-even transposition sort over r wires,
    # pruned backwards to those that reach the median wire(s).  Each step is
    # (lo_wire, hi_wire, need_min, need_max): the step writes min into
    # lo_wire when need_min and max into hi_wire when need_max.
    steps = [(i, i + 1) for rnd in range(r) for i in range(rnd % 2, r - 1, 2)]
    needed = {r // 2, (r - 1) // 2}
    kept = []
    for lo, hi in reversed(steps):
        need_min, need_max = lo in needed, hi in needed
        if need_min or need_max:
            kept.append((lo, hi, need_min, need_max))
            needed |= {lo, hi}
    return tuple(reversed(kept))


class CountSketch:
    """An ``r x c`` count-sketch table bound to a :class:`SketchConfig`.

    A fresh sketch is all zeros.  All mutation happens through
    :meth:`update_dense` (and :func:`sketch_many`, which fills fresh
    sketches); estimation, scaling and :func:`merge_all` never modify an
    input table in place.
    """

    __slots__ = ("config", "table", "_family")

    def __init__(self, config: SketchConfig, _family: HashFamily | None = None, _table: np.ndarray | None = None):
        self.config = config
        self._family = _family if _family is not None else _family_for(config)
        if _table is None:
            self.table = np.zeros((config.r, config.c), dtype=np.float64)
        else:
            self.table = _table

    def copy(self) -> "CountSketch":
        return CountSketch(self.config, _family=self._family, _table=self.table.copy())

    def update_dense(self, vec: np.ndarray) -> None:
        """Accumulate every nonzero coordinate of a dense length-d vector.

        The one-vector case of :func:`sketch_many`'s kernel, after its shape
        check; an all-zero vector returns early and leaves the table
        untouched, -0.0 cells included.
        """
        vec = _dense_vector(self.config, vec)
        if vec.any():
            _add_dense(self._family, [self.table], [vec])

    def estimate_all(self) -> np.ndarray:
        """Point estimates for every coordinate as a dense length-d vector.

        Works through the indices in blocks of ``_ESTIMATE_BLOCK``, written
        into one preallocated output, each block through :meth:`_median_into`:
        one gather per row, then the median over rows by a compare-exchange
        network of elementwise min/max, so cost is Theta(d * r^2) flops with
        no sort and the block's r gathered rows stay in cache.  Every step is
        elementwise, so the result is bit for bit ``np.median`` over the
        gathered rows: an odd row count takes the middle value plus +0.0 and
        an even one ``(0.0 + lower + upper) / 2``, the sum numpy's mean
        forms; any NaN in a column makes its estimate NaN.
        """
        out = np.empty(self.config.d)
        for start in range(0, self.config.d, _ESTIMATE_BLOCK):
            block = slice(start, start + _ESTIMATE_BLOCK)
            self._median_into(out[block], block)
        return out

    def estimates_at(self, indices) -> np.ndarray:
        """Point estimates at a 1-d array of coordinate ``indices``, in their
        order: bit for bit ``estimate_all()[indices]``, by the same median
        network, at a cost that grows with ``indices.size`` and not with d."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.ndim != 1:
            raise ValueError(f"expected a 1-d index array, got shape {indices.shape}")
        out = np.empty(indices.size)
        for start in range(0, indices.size, _ESTIMATE_BLOCK):
            block = slice(start, start + _ESTIMATE_BLOCK)
            self._median_into(out[block], indices[block])
        return out

    def _median_into(self, dest: np.ndarray, coords) -> None:
        # Median over rows of the signed cells of the coordinates ``coords``
        # (a slice or an index array), written into ``dest``.
        fam, r = self._family, self.config.r
        rows = []
        for row, buckets, signs in zip(self.table, fam.buckets[:, coords], fam.signs[:, coords]):
            gathered = row[buckets]
            gathered *= signs
            rows.append(gathered)
        spare = np.empty_like(rows[0])
        for lo, hi, need_min, need_max in _median_network(r):
            a, b = rows[lo], rows[hi]
            if need_min:
                rows[lo] = np.minimum(a, b, out=spare)
                spare = a
            if need_max:
                rows[hi] = np.maximum(a, b, out=b)
        m = r // 2
        if r % 2:
            np.add(rows[m], 0.0, out=dest)
        else:
            np.add(rows[m - 1], 0.0, out=dest)
            with np.errstate(over="ignore"):  # inf, as np.median gives
                dest += rows[m]
            dest /= 2.0

    def coordinates_reaching(self, threshold: float) -> np.ndarray | None:
        """Ascending indices of every coordinate whose estimate can have
        magnitude at least ``threshold``, or None when the table cannot
        bound that.

        A median of r values reaches ``|median| >= t > 0`` only if at least
        ``ceil(r/2)`` of the values do: an odd median is the middle value,
        and an even one ``(0.0 + lower + upper) / 2`` lies between lower and
        upper, because rounding is monotone and doubling is exact unless
        ``lower + upper`` overflows.  So the query
        marks each row's cells with ``|cell| >= threshold``, counts the
        marked cells of each coordinate over the rows, and returns those
        with at least ``ceil(r/2)``: a superset of the coordinates whose
        :meth:`estimate_all` entry has magnitude at least ``threshold``.
        It reads every row's buckets but no sign and forms no median.

        Returns None when ``threshold`` is not a finite positive number, or
        when a cell is not finite or has magnitude at least ``2**1022``,
        where an even-r pair sum can overflow.
        """
        cfg, fam = self.config, self._family
        mags = np.abs(self.table)
        if not (0.0 < threshold < math.inf and mags.max() < _OVERFLOW_CELL):
            return None
        marked = (mags >= threshold).view(np.uint8)
        counts = np.zeros(cfg.d, dtype=np.uint8 if cfg.r < 256 else np.int64)
        for row_marked, buckets in zip(marked, fam.buckets):
            counts += row_marked[buckets]
        return np.flatnonzero(counts >= (cfg.r + 1) // 2)

    def l2_squared_estimate(self) -> float:
        """Median over rows of the row-wise sum of squared cells.

        Each row's sum of squares is an unbiased estimate of the summarized
        vector's squared l2 norm; the median tightens the tail.
        """
        with np.errstate(over="ignore"):  # an overflowing sum reads inf
            return float(np.median(np.sum(self.table * self.table, axis=1)))

    def scale(self, alpha: float) -> "CountSketch":
        """New sketch with every cell multiplied by finite scalar ``alpha``."""
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"scale factor must be finite, got {alpha!r}")
        return CountSketch(self.config, _family=self._family, _table=self.table * alpha)

    def to_bytes(self) -> bytes:
        """Serialize config and cells; round-trips bit-exactly.

        Layout (little-endian): magic ``CSK1``, version u16, d u64, r u32,
        c u32, seed u64, then ``r * c`` float64 cells in row-major order.
        """
        cfg = self.config
        header = _HEADER.pack(_MAGIC, _VERSION, cfg.d, cfg.r, cfg.c, cfg.seed)
        return header + self.table.astype("<f8", copy=False).tobytes(order="C")

    @classmethod
    def from_bytes(cls, data: bytes, config: SketchConfig) -> "CountSketch":
        """Inverse of :meth:`to_bytes` for a sketch of the receiver's
        ``config``; raises ``ValueError`` on a malformed payload, and
        :class:`ConfigMismatchError` when the payload carries another config
        (checked before any hash family is built, so a header cannot make
        the receiver build one for a config it never chose)."""
        if len(data) < _HEADER.size:
            raise ValueError(f"sketch payload truncated: {len(data)} bytes")
        magic, version, d, r, c, seed = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad sketch magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported sketch version {version}")
        expected = _HEADER.size + 8 * r * c
        if len(data) != expected:
            raise ValueError(f"sketch payload has {len(data)} bytes, expected {expected}")
        found = SketchConfig(d=d, r=r, c=c, seed=seed)
        if found != config:
            raise ConfigMismatchError(f"sketch payload carries config {found}, expected {config}")
        table = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(r, c).copy()
        return cls(config, _table=table)


def _dense_vector(config: SketchConfig, vec: np.ndarray) -> np.ndarray:
    """``vec`` as a float64 array, checked to be of shape ``(d,)``."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (config.d,):
        raise ValueError(f"expected vector of shape ({config.d},), got {vec.shape}")
    return vec


def _add_dense(family: HashFamily, tables: list[np.ndarray], vectors: list[np.ndarray]) -> None:
    """Add the sketch of ``vectors[i]`` into ``tables[i]`` under ``family``.

    Rows on the outside, vectors on the inside: each row's buckets and signs
    are read once for all the vectors, not once per vector.  Per row and
    vector, one weighted ``bincount`` (its weights written into one length-d
    buffer) sums each cell's addends in index order from +0.0, and the sum
    is added to the cell: bit for bit what adding the nonzeros one at a time
    in index order would give, since the zero coordinates add signed zeros,
    which change no such sum.  The callers check every shape (through
    :func:`_dense_vector`) before any table changes.  An all-zero vector is
    added too, and its +0.0 sums turn -0.0 cells into +0.0: the tables of
    :func:`sketch_many` start at +0.0, and :meth:`CountSketch.update_dense`
    skips such a vector itself.
    """
    cfg = family.config
    weights = np.empty(cfg.d)
    for j, (buckets, signs) in enumerate(zip(family.buckets, family.signs)):
        for table, vec in zip(tables, vectors):
            table[j] += np.bincount(buckets, weights=np.multiply(signs, vec, out=weights), minlength=cfg.c)


def sketch_many(config: SketchConfig, vectors: list[np.ndarray]) -> list[CountSketch]:
    """One sketch per dense length-d vector, in one pass over each hash row.

    Each table is bit for bit what :meth:`CountSketch.update_dense` of its
    vector gives on a fresh sketch; a vector of the wrong shape raises
    ``ValueError`` before any sketch is filled.
    """
    vectors = [_dense_vector(config, vec) for vec in vectors]
    family = _family_for(config)
    sketches = [CountSketch(config, _family=family) for _ in vectors]
    _add_dense(family, [s.table for s in sketches], vectors)
    return sketches


def sketch_vector(config: SketchConfig, v: np.ndarray) -> CountSketch:
    """Sketch of one dense length-d vector."""
    return sketch_many(config, [v])[0]


def merge_all(sketches) -> CountSketch:
    """Merge sketches by a left fold in the given order.

    Fixing the reduction order keeps float addition bit-reproducible when
    the same collection is merged again.
    """
    sketches = list(sketches)
    if not sketches:
        raise ValueError("cannot merge an empty collection of sketches")
    out = sketches[0].copy()
    for s in sketches[1:]:
        if s.config != out.config:
            raise ConfigMismatchError(
                f"cannot merge sketches with configs {out.config} and {s.config}"
            )
        out.table += s.table
    return out
