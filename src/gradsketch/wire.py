"""Byte encodings for everything that crosses the worker/server boundary.

Every message is framed as a 1-byte tag, a little-endian u32 payload length,
and the payload.  Payload layouts:

* ``SKETCH_UP``: a serialized count sketch (see ``CountSketch.to_bytes``).
* ``EXACT_REQUEST``: u32 count, then the sorted indices delta-encoded as
  unsigned LEB128 varints (first value absolute, the rest gaps).
* ``EXACT_UP``: u32 count followed by that many float64 values (a worker's
  exact-value reply, or its dense vector in the uncompressed baselines).
* ``UPDATE_DOWN``: u32 count followed by (u64 index, f64 value) pairs with
  strictly increasing indices.  This is the sparse-vector codec.
* ``SPARSE_UP`` / ``VALUES_DOWN``: the ``UPDATE_DOWN`` / ``EXACT_UP`` layouts
  for local top-k's sparse worker uploads and vanilla's dense broadcast.

All integers are little-endian.  Encoding then decoding any message must
reproduce it bit for bit; the transport layer round-trips every message and
checks the tag it receives, so a format or routing bug cannot hide.
"""

from __future__ import annotations

import struct

import numpy as np

from gradsketch.heavyhitters import KSparseVector
from gradsketch.sketch import CountSketch, SketchConfig

TAG_SKETCH_UP = 1
TAG_EXACT_REQUEST = 2
TAG_EXACT_UP = 3
TAG_UPDATE_DOWN = 4
TAG_SPARSE_UP = 5
TAG_VALUES_DOWN = 6

_FRAME = struct.Struct("<BI")
_COUNT = struct.Struct("<I")
_INT64_MAX = (1 << 63) - 1


class WireError(ValueError):
    """Raised for malformed frames or payloads."""


def frame(tag: int, payload: bytes) -> bytes:
    if not 0 < tag < 256:
        raise WireError(f"tag must fit in one byte, got {tag}")
    return _FRAME.pack(tag, len(payload)) + payload


def unframe(data: bytes) -> tuple[int, memoryview]:
    """Tag and payload of a frame; the payload is a view into ``data``,
    so a d-length message is not copied on receipt."""
    if len(data) < _FRAME.size:
        raise WireError(f"frame truncated at {len(data)} bytes")
    tag, length = _FRAME.unpack_from(data, 0)
    if not tag:
        raise WireError("tag 0 is never sent")
    payload = memoryview(data)[_FRAME.size:]
    if len(payload) != length:
        raise WireError(f"frame advertises {length} payload bytes, found {len(payload)}")
    return tag, payload


def _encode_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = shift = 0
    while True:
        if pos >= len(data):
            raise WireError("varint runs past end of payload")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if shift and not byte:
                raise WireError("overlong varint: its last byte is zero")
            return result, pos
        shift += 7


def encode_indices(indices: np.ndarray) -> bytes:
    """Delta-varint encoding of a sorted, strictly increasing index array."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx[0] < 0 or np.any(np.diff(idx) <= 0)):
        raise WireError("indices must be nonnegative and strictly increasing")
    out = bytearray(_COUNT.pack(idx.size))
    prev = 0
    for i, value in enumerate(idx.tolist()):
        _encode_varint(value if i == 0 else value - prev, out)
        prev = value
    return bytes(out)


def decode_indices(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_indices`; rejects what it would never emit.

    A zero gap (a repeated index), an index past the int64 range, an
    overlong varint, or a count larger than the bytes that follow raises
    :class:`WireError`.
    """
    if len(payload) < _COUNT.size:
        raise WireError("index payload truncated")
    (count,) = _COUNT.unpack_from(payload, 0)
    pos = _COUNT.size
    if count > len(payload) - pos:
        raise WireError(f"index payload advertises {count} entries in {len(payload) - pos} bytes")
    out = np.empty(count, dtype=np.int64)
    value = 0
    for i in range(count):
        delta, pos = _decode_varint(payload, pos)
        if i and not delta:
            raise WireError(f"zero gap at index entry {i}: indices must be strictly increasing")
        value = delta if i == 0 else value + delta
        if value > _INT64_MAX:
            raise WireError(f"index entry {i} exceeds the int64 range")
        out[i] = value
    if pos != len(payload):
        raise WireError("trailing bytes after index payload")
    return out


def encode_values(values: np.ndarray) -> bytes:
    vals = np.ascontiguousarray(values, dtype="<f8")
    return b"".join((_COUNT.pack(vals.size), vals))  # the values' buffer is copied once, into the payload


def decode_values(payload: bytes) -> np.ndarray:
    if len(payload) < _COUNT.size:
        raise WireError("value payload truncated")
    (count,) = _COUNT.unpack_from(payload, 0)
    body = memoryview(payload)[_COUNT.size:]  # a view: the one copy is the decoded array's
    if len(body) != 8 * count:
        raise WireError(f"value payload advertises {count} values, found {len(body)} bytes")
    return np.frombuffer(body, dtype="<f8").copy()


_PAIR = np.dtype([("index", "<u8"), ("value", "<f8")])


def encode_sparse(vec: KSparseVector) -> bytes:
    pairs = np.empty(len(vec), dtype=_PAIR)
    pairs["index"] = vec.indices
    pairs["value"] = vec.values
    return _COUNT.pack(len(vec)) + pairs.tobytes()


def decode_sparse(payload: bytes, d: int) -> KSparseVector:
    """Inverse of :func:`encode_sparse` for dimension ``d``; an index at or
    past ``d`` or the int64 range, or a non-increasing index, raises
    :class:`WireError`."""
    if len(payload) < _COUNT.size:
        raise WireError("sparse payload truncated")
    (count,) = _COUNT.unpack_from(payload, 0)
    body = payload[_COUNT.size:]
    if len(body) != _PAIR.itemsize * count:
        raise WireError(f"sparse payload advertises {count} entries, found {len(body)} bytes")
    pairs = np.frombuffer(body, dtype=_PAIR)
    # an index past int64 turns negative here, which KSparseVector rejects
    # as out of range or out of order like any other bad index
    indices, values = pairs["index"].astype(np.int64), pairs["value"].astype(np.float64)
    try:
        return KSparseVector(d=d, indices=indices, values=values)
    except ValueError as exc:
        raise WireError(f"bad sparse payload: {exc}") from exc


def decode_sketch(payload: bytes, config: SketchConfig) -> CountSketch:
    """Inverse of ``CountSketch.to_bytes`` for a sketch of ``config``.

    Any malformed payload, or one that carries another config, raises
    :class:`WireError`; the config is checked before a hash family for it
    could be built.
    """
    try:
        return CountSketch.from_bytes(payload, config)
    except ValueError as exc:
        raise WireError(f"bad sketch payload: {exc}") from exc
