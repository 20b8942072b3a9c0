"""Round-trip and malformed-input tests for the message codecs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsketch.cluster import MeteredChannel
from gradsketch.heavyhitters import KSparseVector
from gradsketch.sketch import _HEADER, CountSketch, SketchConfig
from gradsketch.wire import (
    TAG_EXACT_REQUEST,
    TAG_EXACT_UP,
    TAG_SKETCH_UP,
    TAG_UPDATE_DOWN,
    WireError,
    decode_indices,
    decode_sketch,
    decode_sparse,
    decode_values,
    encode_indices,
    encode_sparse,
    encode_values,
    frame,
    unframe,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFraming:
    def test_round_trip(self):
        tag, payload = unframe(frame(TAG_SKETCH_UP, b"abc"))
        assert tag == TAG_SKETCH_UP and payload == b"abc"

    def test_layout_is_tag_then_length(self):
        blob = frame(TAG_EXACT_UP, b"xy")
        assert blob[0] == TAG_EXACT_UP
        assert int.from_bytes(blob[1:5], "little") == 2
        assert blob[5:] == b"xy"

    def test_bad_tag_rejected(self):
        with pytest.raises(WireError):
            frame(0, b"")
        with pytest.raises(WireError):
            frame(256, b"")

    def test_tag_zero_rejected(self):
        # frame() never sends tag 0, so unframe() must not accept it either
        with pytest.raises(WireError):
            unframe(b"\x00\x00\x00\x00\x00")

    def test_truncated_and_oversized_frames_rejected(self):
        blob = frame(TAG_UPDATE_DOWN, b"abcd")
        with pytest.raises(WireError):
            unframe(blob[:3])
        with pytest.raises(WireError):
            unframe(blob + b"!")

    @settings(max_examples=50, deadline=None)
    @given(tag=st.integers(min_value=1, max_value=255), payload=st.binary(max_size=200))
    def test_round_trip_property(self, tag, payload):
        assert unframe(frame(tag, payload)) == (tag, payload)


class TestIndexCodec:
    def test_examples(self):
        idx = np.array([3, 4, 200, 10**7], dtype=np.int64)
        assert np.array_equal(decode_indices(encode_indices(idx)), idx)
        assert np.array_equal(decode_indices(encode_indices(np.array([], dtype=np.int64))), [])

    def test_delta_encoding_is_compact(self):
        # 100 adjacent small indices: header plus roughly one byte per gap
        idx = np.arange(1000, 1100)
        assert len(encode_indices(idx)) < 4 + 2 + 100

    def test_rejects_unsorted(self):
        with pytest.raises(WireError):
            encode_indices(np.array([2, 1]))
        with pytest.raises(WireError):
            encode_indices(np.array([2, 2]))
        with pytest.raises(WireError):
            encode_indices(np.array([-1, 4]))

    def test_rejects_truncated_payload(self):
        payload = encode_indices(np.array([1, 5, 9]))
        with pytest.raises(WireError, match="^index payload advertises 3 entries in 2 bytes$"):
            decode_indices(payload[:-1])
        with pytest.raises(WireError, match="^trailing bytes after index payload$"):
            decode_indices(payload + b"\x00")
        with pytest.raises(WireError, match="^index payload truncated$"):
            decode_indices(b"\x01")
        with pytest.raises(WireError, match="^varint runs past end of payload$"):
            decode_indices(payload[:-1] + b"\x84")

    def test_rejects_zero_gap(self):
        # count 2, first index 5, then a gap of 0: a repeated index
        with pytest.raises(WireError, match="^zero gap at index entry 1: indices must be strictly increasing$"):
            decode_indices((2).to_bytes(4, "little") + b"\x05\x00")

    def test_rejects_index_past_int64(self):
        # 2**63 as one ten-byte varint, and as 2**62 plus a gap of 2**62
        with pytest.raises(WireError, match="^index entry 0 exceeds the int64 range$"):
            decode_indices((1).to_bytes(4, "little") + b"\x80" * 9 + b"\x01")
        with pytest.raises(WireError, match="^index entry 1 exceeds the int64 range$"):
            decode_indices((2).to_bytes(4, "little") + (b"\x80" * 8 + b"\x40") * 2)
        top = np.array([2**63 - 1], dtype=np.int64)
        assert np.array_equal(decode_indices(encode_indices(top)), top)

    def test_rejects_overlong_varint(self):
        # 0 written as 80 00, and a gap of 1 written as 81 00: the encoder
        # writes 00 and 01
        with pytest.raises(WireError, match="^overlong varint: its last byte is zero$"):
            decode_indices(bytes.fromhex("01000000" "8000"))
        with pytest.raises(WireError, match="^overlong varint: its last byte is zero$"):
            decode_indices(bytes.fromhex("02000000" "05" "8100"))
        assert decode_indices(bytes.fromhex("02000000" "05" "8001")).tolist() == [5, 133]

    def test_rejects_count_past_payload(self):
        # every entry takes at least one byte
        with pytest.raises(WireError, match="^index payload advertises 4294967295 entries in 1 bytes$"):
            decode_indices(b"\xff\xff\xff\xff\x01")

    @pytest.mark.parametrize(
        "count, body, message",
        [
            # each payload holds two faults; the one earlier in the stream is named
            (3, "01" "8100" "00", "overlong varint: its last byte is zero"),
            (3, "01" "00" "8100", "zero gap at index entry 1: indices must be strictly increasing"),
            (3, "01" "80808080808080808001" "00", "index entry 1 exceeds the int64 range"),
            (3, "01" "8080808080808080808000" "00", "overlong varint: its last byte is zero"),
            (3, "808080808080808040" "808080808080808040" "00", "index entry 1 exceeds the int64 range"),
            (3, "01" "02" "808080808080808080", "varint runs past end of payload"),
            (2, "00" "02" "00", "trailing bytes after index payload"),
            # a 10-byte varint is out of range even after a zero gap would be
            (3, "00" "80808080808080808001" "00", "index entry 1 exceeds the int64 range"),
        ],
        ids=["overlong-then-zero", "zero-then-overlong", "ten-bytes-then-zero", "eleven-bytes-overlong",
             "sum-past-int64", "runs-past-end", "trailing", "ten-bytes-after-zero-index"],
    )
    def test_names_the_first_bad_entry(self, count, body, message):
        with pytest.raises(WireError, match=f"^{message}$"):
            decode_indices(count.to_bytes(4, "little") + bytes.fromhex(body))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=100))
    def test_round_trip_property(self, values):
        idx = np.array(sorted(values), dtype=np.int64)
        assert np.array_equal(decode_indices(encode_indices(idx)), idx)


class TestValueCodec:
    def test_examples(self):
        vals = np.array([0.0, -1.5, 3.25e300])
        out = decode_values(encode_values(vals))
        assert np.array_equal(out, vals)
        assert out.dtype == np.float64
        # a strided or non-float64 input is encoded as its float64 copy
        assert encode_values(np.arange(6.0)[::2]) == encode_values(np.array([0.0, 2.0, 4.0])) == encode_values([0, 2, 4])

    def test_rejects_length_mismatch(self):
        payload = encode_values(np.array([1.0, 2.0]))
        with pytest.raises(WireError):
            decode_values(payload[:-1])
        with pytest.raises(WireError):
            decode_values(b"\x05")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, max_size=50))
    def test_round_trip_is_bit_exact(self, values):
        vals = np.array(values, dtype=np.float64)
        out = decode_values(encode_values(vals))
        assert vals.tobytes() == out.tobytes()


class TestSparseCodec:
    def test_examples(self):
        vec = KSparseVector(d=100, indices=np.array([2, 50, 99]), values=np.array([1.0, -2.0, 0.5]))
        out = decode_sparse(encode_sparse(vec), 100)
        assert np.array_equal(out.indices, vec.indices)
        assert np.array_equal(out.values, vec.values)
        assert out.d == 100

    def test_pair_layout(self):
        # u32 count then interleaved (u64 index, f64 value) pairs
        vec = KSparseVector(d=10, indices=np.array([7]), values=np.array([2.0]))
        payload = encode_sparse(vec)
        assert len(payload) == 4 + 16
        assert int.from_bytes(payload[:4], "little") == 1
        assert int.from_bytes(payload[4:12], "little") == 7
        assert np.frombuffer(payload[12:20], dtype="<f8")[0] == 2.0

    def test_rejects_length_mismatch(self):
        payload = encode_sparse(KSparseVector(d=10, indices=np.array([1]), values=np.array([1.0])))
        with pytest.raises(WireError):
            decode_sparse(payload[:-1], 10)
        with pytest.raises(WireError):
            decode_sparse(b"\x01", 10)

    @pytest.mark.parametrize(
        "indices, d",
        [([10], 5), ([5], 5), ([2**63], 2**64), ([2**64 - 1], 2**64), ([3, 3], 10), ([4, 2], 10)],
    )
    def test_rejects_bad_indices(self, indices, d):
        # out of range, past int64 (which would wrap negative), or not
        # strictly increasing
        pairs = b"".join(i.to_bytes(8, "little") + bytes(8) for i in indices)
        with pytest.raises(WireError):
            decode_sparse(len(indices).to_bytes(4, "little") + pairs, d)

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=10**6),
        data=st.data(),
    )
    def test_round_trip_property(self, d, data):
        size = data.draw(st.integers(min_value=0, max_value=min(d, 30)))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        idx = np.sort(rng.choice(d, size=size, replace=False)).astype(np.int64)
        vals = rng.standard_normal(size)
        vec = KSparseVector(d=d, indices=idx, values=vals)
        out = decode_sparse(encode_sparse(vec), d)
        assert np.array_equal(out.indices, vec.indices)
        assert vec.values.tobytes() == out.values.tobytes()


class TestTagValues:
    def test_tags_are_distinct_small_ints(self):
        tags = {TAG_SKETCH_UP, TAG_EXACT_REQUEST, TAG_EXACT_UP, TAG_UPDATE_DOWN}
        assert tags == {1, 2, 3, 4}


# Fuzzing: every decoder, fed any bytes, either returns something that
# encodes back to exactly those bytes or raises WireError, nothing else.

_SKETCH = SketchConfig(d=16, r=2, c=3, seed=7)


def _counted(chunk):
    # a u32 count, then chunks: the count is the number of chunks, or any
    return st.tuples(st.lists(chunk, max_size=6), st.one_of(st.none(), st.integers(0, 2**32 - 1))).map(
        lambda lc: (len(lc[0]) if lc[1] is None else lc[1]).to_bytes(4, "little") + b"".join(lc[0])
    )


def _leb128(value):
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    return bytes(out + bytes([value]))


_varint = st.one_of(
    st.integers(0, 2**70).map(_leb128),
    st.sampled_from([b"\x80\x00", b"\x81\x00", b"\xff\x80\x00", b"\x80", b"\xff"]),
)
_index_payloads = st.one_of(st.binary(max_size=24), _counted(_varint))
_value_payloads = st.one_of(st.binary(max_size=40), _counted(st.binary(min_size=8, max_size=8) | st.binary(max_size=3)))
_pair = st.tuples(
    st.one_of(st.sampled_from([0, 1, 4, 5, 6, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    st.binary(min_size=8, max_size=8),
).map(lambda iv: iv[0].to_bytes(8, "little") + iv[1])
_sparse_payloads = st.one_of(st.binary(max_size=40), _counted(_pair | st.binary(max_size=3)))
_sketch_payloads = st.one_of(
    st.binary(max_size=48),
    st.tuples(
        st.sampled_from([b"CSK1", b"CSK0"]),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0, 1, _SKETCH.d, 2**61, 2**64 - 1]),  # never a d worth building
        st.sampled_from([0, 1, _SKETCH.r, 2**32 - 1]),
        st.sampled_from([0, 1, _SKETCH.c]),
        st.sampled_from([0, _SKETCH.seed]),
        st.one_of(st.binary(max_size=56), st.binary(min_size=48, max_size=48)),
    ).map(lambda f: _HEADER.pack(*f[:6]) + f[6]),
)


class _RawSketch:
    # stands in for a sketch whose serialization is the given bytes
    def __init__(self, data):
        self.config, self.data = _SKETCH, data

    def to_bytes(self):
        return self.data


def _decodes_to_itself_or_wire_error(decode, encode, data):
    try:
        out = decode(data)
    except WireError:
        return
    assert encode(out) == data


class TestDecoderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=16), st.tuples(st.integers(0, 255), st.integers(0, 2**32 - 1), st.binary(max_size=8)).map(
        lambda t: bytes([t[0]]) + (len(t[2]) if t[1] % 2 else t[1]).to_bytes(4, "little") + t[2])))
    def test_unframe(self, data):
        _decodes_to_itself_or_wire_error(unframe, lambda tp: frame(*tp), data)

    @settings(max_examples=300, deadline=None)
    @given(_index_payloads)
    def test_decode_indices(self, data):
        _decodes_to_itself_or_wire_error(decode_indices, encode_indices, data)

    @settings(max_examples=300, deadline=None)
    @given(_value_payloads)
    def test_decode_values(self, data):
        _decodes_to_itself_or_wire_error(decode_values, encode_values, data)

    @settings(max_examples=300, deadline=None)
    @given(_sparse_payloads, st.sampled_from([1, 5, 6, 2**63, 2**64]))
    def test_decode_sparse(self, data, d):
        _decodes_to_itself_or_wire_error(lambda b: decode_sparse(b, d), encode_sparse, data)

    @settings(max_examples=300, deadline=None)
    @given(_sketch_payloads)
    def test_channel_sketch_decode(self, data):
        _decodes_to_itself_or_wire_error(
            lambda b: MeteredChannel().up_sketch(_RawSketch(b), 0), CountSketch.to_bytes, data
        )

    def test_sketch_decode_checks_the_config(self):
        good = CountSketch(_SKETCH).to_bytes()
        assert decode_sketch(good, _SKETCH).to_bytes() == good
        for other in (SketchConfig(d=16, r=2, c=3, seed=8), SketchConfig(d=17, r=2, c=3, seed=7)):
            with pytest.raises(WireError):
                decode_sketch(CountSketch(other).to_bytes(), _SKETCH)
        for bad in (b"XXXX" + good[4:], good[:-1], good[:10], _HEADER.pack(b"CSK1", 2, 16, 2, 3, 7) + good[_HEADER.size:],
                    # a dimension no SketchConfig admits
                    _HEADER.pack(b"CSK1", 1, 2**32 + 1, 2, 3, 7) + good[_HEADER.size:]):
            with pytest.raises(WireError):
                decode_sketch(bad, _SKETCH)
