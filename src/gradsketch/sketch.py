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

Hashes are degree-3 polynomials over the Mersenne prime ``2**61 - 1``, their
coefficients from a Philox stream keyed by the config seed (a config fixes the
family on every platform), tabulated by exact forward differences.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from gradsketch._params import divide_by_count, integer, real

MERSENNE_P = (1 << 61) - 1
# Interleaved lanes of a hash-family build: its (2r, L) state stays in cache.
_BUILD_LANES = 1 << 10
# Indices per block of every kernel that walks the tables: a block's widened
# buckets, signs and weights, or the r rows a median gathers, stay in cache.
_BLOCK = 1 << 15
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
        d: dimension of the summarized vectors, at most 2**32.
        r: number of table rows (independent hash pairs).
        c: number of buckets per row.
        seed: hash-family seed; must fit in an unsigned 64-bit integer.
    """

    d: int
    r: int
    c: int
    seed: int

    def __post_init__(self):
        # Horner sees only indices below 4 * _BUILD_LANES, so d's cap guards no
        # arithmetic; it bounds the tables, 2 to 5 bytes per row and index.
        # Each field is kept as a Python int, so no narrow numpy type reaches r * c.
        for name, low, high in (("d", 1, 1 << 32), ("r", 1, (1 << 32) - 1), ("c", 1, (1 << 32) - 1), ("seed", 0, (1 << 64) - 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low, high))


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
        ValueError: unless ``k`` and ``d`` are integers (not bools) with
            ``1 <= k <= d``, ``delta`` is in (0, 1) and ``d / delta`` is finite.
    """
    d = integer("d", d, 1)
    k, delta = integer("k", k, 1, d), real("delta", delta, "(0, 1)")
    if math.isinf(d / delta):
        raise ValueError(f"delta={delta!r} is too small for d={d}")
    r = math.ceil(math.log2(d / delta))
    return max(r, 1), 6 * k


def _poly_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation of per-row degree-3 polynomials mod ``2**61 - 1``.

    ``coeffs`` is ``(rows, 4)`` uint64, each below p, highest degree first;
    ``x`` is ``(n,)`` uint64, each below 2**32 (the family build passes
    indices below ``4 * _BUILD_LANES``).  Returns ``(rows, n)`` uint64
    values fully reduced below p.
    """
    p = np.uint64(MERSENNE_P)
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
    s = np.empty_like(hi)
    for deg in range(1, coeffs.shape[1]):
        if deg > 1:
            np.right_shift(s, np.uint64(31), out=hi)
            hi *= x
            np.bitwise_and(s, mask31, out=lo)
            lo *= x
        np.right_shift(hi, np.uint64(30), out=s)
        hi &= mask30
        hi <<= np.uint64(31)
        s += hi
        s += lo
        s += coeffs[:, deg:deg + 1]
        np.right_shift(s, np.uint64(61), out=hi)
        s &= p
        s += hi
    # the one full reduction, branch-free: s < 2p, and when s < p, s - p
    # wraps above s, so the minimum keeps s; otherwise it is s - p
    return np.minimum(s, np.subtract(s, p, out=hi), out=s)


class HashFamily:
    """Bucket and sign hashes for every row of a sketch config.

    The family is materialized as lookup tables over all ``d`` indices:
    ``buckets[j, i]`` is the bucket of index ``i`` in row ``j`` and
    ``signs[j, i]`` its sign.  Row ``j`` draws one degree-3 polynomial for
    its buckets and one for its signs (coefficients from a Philox stream
    keyed by the seed); the bucket is the polynomial's value mod 2**61 - 1,
    then mod ``c``, and the sign is -1 where that value is odd.

    The build splits the indices into ``L = _BUILD_LANES`` interleaved lanes
    (lane ``l`` holds ``l, l + L, l + 2L, ...``), evaluates the 2r
    polynomials by :func:`_poly_eval` at each lane's first four points, and
    steps all lanes L indices at a time by the value and forward differences
    at stride L: ``value += D1; D1 += D2; D2 += D3``, each sum reduced mod p.
    A cubic's third difference is constant, so the tables are exact (Horner's
    at every index, bit for bit, for any L) from a few (2r, L) temporaries.

    ``buckets`` takes the narrowest unsigned type that holds ``c - 1``
    (uint8, uint16 or uint32) and ``signs`` int8, at most 5 bytes per row
    and index.  Each kernel widens the buckets to intp one block at a time,
    which numpy would otherwise do for every gather through a narrow index.
    Every product with a sign casts it to the float64 -1.0 or +1.0 first,
    and multiplying by +-1.0 is exact for every float64 (signed zeros,
    infinities, NaNs and subnormals included), so sketches and estimates
    have the bits a float64 sign table would give.
    """

    def __init__(self, config: SketchConfig):
        self.config = config
        rng = np.random.Generator(np.random.Philox(key=config.seed))
        # the r bucket polynomials, then the r sign polynomials
        polys = rng.integers(0, MERSENNE_P, size=(config.r, 2, 4), dtype=np.uint64).transpose(1, 0, 2).reshape(-1, 4)
        r, d, c, p = config.r, config.d, np.uint64(config.c), np.uint64(MERSENNE_P)
        self.buckets = np.empty((r, d), dtype=np.min_scalar_type(config.c - 1))
        self.signs = np.empty((r, d), dtype=np.int8)
        lanes = min(_BUILD_LANES, d)
        diffs = [_poly_eval(polys, np.arange(k * lanes, (k + 1) * lanes, dtype=np.uint64))
                 for k in range(min(4, -(-d // lanes)))]
        for order in range(1, len(diffs)):
            for k in range(len(diffs) - 1, order - 1, -1):
                diffs[k] -= diffs[k - 1]
                np.minimum(diffs[k], diffs[k] + p, out=diffs[k])  # wrapped below 0: add p
        value, scratch = diffs[0], np.empty_like(diffs[0])
        for start in range(0, d, lanes):
            head = value[:, :d - start]  # the last step may cover fewer lanes
            # v - v // c * c is v % c: numpy divides by a scalar faster than it takes a remainder
            self.buckets[:, start:start + lanes] = head[:r] - head[:r] // c * c
            self.signs[:, start:start + lanes] = 1 - 2 * (head[r:] & np.uint64(1)).astype(np.int8)
            for low, high in zip(diffs, diffs[1:]):
                np.add(low, high, out=low)
                np.subtract(low, p, out=scratch)
                np.minimum(low, scratch, out=low)  # a sum below p wraps above it when p is taken off


# Four families at most: at d = 10**6, r = 5 and c = 10**4 each holds 14 MiB of tables.
@lru_cache(maxsize=4)
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
        # eager, so that perfbench/child.py times a family build as set-up and not in round 1
        self._family = _family if _family is not None else _family_for(config)
        if _table is None:
            self.table = np.zeros((config.r, config.c), dtype=np.float64)
        else:
            self.table = _table

    def update_dense(self, vec: np.ndarray) -> None:
        """Accumulate every nonzero coordinate of a dense length-d vector.

        After its shape check, adds the vector's table from
        :func:`sketch_many`'s kernel into this one; an all-zero vector
        returns early and leaves the table untouched, -0.0 cells included.
        """
        vec = _dense_vector(self.config, vec)
        if vec.any():
            # row by row: which NaN of a NaN + NaN numpy's add keeps depends on the shape
            with np.errstate(over="ignore", invalid="ignore"):
                for row, fresh in zip(self.table, _sketch_tables(self._family, [vec])[0]):
                    row += fresh

    def estimate_all(self) -> np.ndarray:
        """Point estimates for every coordinate as a dense length-d vector.

        Works through the indices in blocks of ``_BLOCK``, in the loop it
        shares with :meth:`estimates_at`, each block by :meth:`_median_into`:
        one gather per row, then the median over rows by a compare-exchange
        network of elementwise min/max, so cost is Theta(d * r^2) flops with
        no sort and the block's r gathered rows stay in cache.  Every step is
        elementwise, so the result is bit for bit ``np.median`` over the
        gathered rows: an odd row count takes the middle value plus +0.0 and
        an even one ``(0.0 + lower + upper) / 2``, the sum numpy's mean
        forms; any NaN in a column makes its estimate NaN.
        """
        return self._medians()

    def estimates_at(self, indices) -> np.ndarray:
        """Point estimates at a 1-d array of coordinate ``indices``, in their
        order: bit for bit ``estimate_all()[indices]``, by the same median
        network, at a cost that grows with ``indices.size`` and not with d;
        bool, non-integer or out-of-range indices raise ``ValueError``."""
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise ValueError(f"expected a 1-d index array, got shape {indices.shape}")
        if indices.size and (indices.dtype.kind not in "iu" or not 0 <= indices.min() <= indices.max() < self.config.d):
            raise ValueError(f"expected integer coordinates in [0, {self.config.d}), got {indices.dtype} indices")
        return self._medians(indices)

    def _medians(self, indices: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(self.config.d if indices is None else indices.size)
        wide = np.empty(min(out.size, _BLOCK), dtype=np.intp)
        for start in range(0, out.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._median_into(out[block], block if indices is None else indices[block], wide)
        return out

    def _median_into(self, dest: np.ndarray, coords, wide: np.ndarray) -> None:
        # median over rows of the signed cells of ``coords`` (a slice or indices), into ``dest``;
        # each row's buckets are widened in turn into ``wide``, at least dest.size intp entries
        fam, r = self._family, self.config.r
        index = wide[:dest.size]
        rows = []
        for row, buckets, signs in zip(self.table, fam.buckets, fam.signs):
            np.copyto(index, buckets[coords])
            gathered = row[index]
            gathered *= signs[coords]
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
            divide_by_count(dest, 2)

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
        It reads every row's buckets, a block at a time, but no sign and
        forms no median.

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
        wide = np.empty(min(cfg.d, _BLOCK), dtype=np.intp)
        for start in range(0, cfg.d, _BLOCK):
            block, index = slice(start, start + _BLOCK), wide[:cfg.d - start]
            for row_marked, buckets in zip(marked, fam.buckets[:, block]):
                np.copyto(index, buckets)
                counts[block] += row_marked[index]
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
        alpha = real("alpha", alpha)
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
        if (d, r, c, seed) != (config.d, config.r, config.c, config.seed):
            found = SketchConfig(d=d, r=r, c=c, seed=seed)
            raise ConfigMismatchError(f"sketch payload carries config {found}, expected {config}")
        table = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(r, c).copy()
        return cls(config, _table=table)


def _dense_vector(config: SketchConfig, vec: np.ndarray) -> np.ndarray:
    """``vec`` as a float64 array, checked to be of shape ``(d,)``."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (config.d,):
        raise ValueError(f"expected vector of shape ({config.d},), got {vec.shape}")
    return vec


def _sketch_tables(family: HashFamily, vectors: list[np.ndarray]) -> np.ndarray:
    """The ``(len(vectors), r, c)`` sketch tables of ``vectors`` under ``family``.

    Blocks of ``_BLOCK`` indices in increasing order, then rows (a
    row's block of signs widened to float64, and of buckets to intp, once
    for all the vectors), then vectors: ``np.add.at`` scatters the block's
    signed weights, one at a time in index order, into the vector's table,
    which starts at +0.0.  That is bit for bit adding the nonzeros one at a
    time in index order, since the zero coordinates add signed zeros, which
    change no such sum; overflow and inf - inf give inf and NaN without a
    warning.  Under round-to-nearest a sum is -0.0 only when both addends
    are, so a cell that starts at +0.0 never holds -0.0, and ``0.0 + s``
    has the bits of such a cell ``s``, NaN included: each table is what
    adding it into a fresh zero table would give.  Callers check every
    shape (:func:`_dense_vector`) first.
    """
    cfg = family.config
    tables = np.zeros((len(vectors), cfg.r, cfg.c))
    buffers = np.empty((2, min(cfg.d, _BLOCK)))
    wide = np.empty(buffers.shape[1], dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.d, _BLOCK):
            block = slice(start, start + _BLOCK)
            signs, weights = buffers[:, :min(cfg.d - start, _BLOCK)]
            buckets = wide[:signs.size]
            pieces = [vec[block] for vec in vectors]
            for j, (row_buckets, row_signs) in enumerate(zip(family.buckets[:, block], family.signs[:, block])):
                np.copyto(signs, row_signs)
                np.copyto(buckets, row_buckets)
                for row, piece in zip(tables[:, j], pieces):
                    np.add.at(row, buckets, np.multiply(signs, piece, out=weights))
    return tables


def sketch_many(config: SketchConfig, vectors: list[np.ndarray]) -> list[CountSketch]:
    """One sketch per dense length-d vector, in one block-wise pass over the
    indices that reads each block of the hash rows once for all the vectors.

    Each table is bit for bit what :meth:`CountSketch.update_dense` of its
    vector gives on a fresh sketch; a vector of the wrong shape raises
    ``ValueError`` before any sketch is filled.  The tables are views of
    one ``(W, r, c)`` array, one disjoint ``(r, c)`` view per sketch.
    """
    vectors = [_dense_vector(config, vec) for vec in vectors]
    family = _family_for(config)
    return [CountSketch(config, _family=family, _table=table) for table in _sketch_tables(family, vectors)]


def sketch_vector(config: SketchConfig, v: np.ndarray) -> CountSketch:
    """Sketch of one dense length-d vector."""
    return sketch_many(config, [v])[0]


def merge_all(sketches) -> CountSketch:
    """Merge sketches by a left fold in the given order.

    Fixing the reduction order keeps float addition bit-reproducible when
    the same collection is merged again: every finite and infinite cell.  A
    NaN + NaN cell is NaN, but which operand's sign bit it keeps depends on
    numpy's loop layout (the cell's position, the numpy build, the CPU).
    """
    sketches = list(sketches)
    if not sketches:
        raise ValueError("cannot merge an empty collection of sketches")
    first = sketches[0]
    out = CountSketch(first.config, _family=first._family, _table=first.table.copy())
    for s in sketches[1:]:
        if s.config != out.config:
            raise ConfigMismatchError(
                f"cannot merge sketches with configs {out.config} and {s.config}"
            )
        out.table += s.table
    return out
