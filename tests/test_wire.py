"""Round-trip and malformed-input tests for the message codecs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsketch.heavyhitters import KSparseVector
from gradsketch.wire import (
    TAG_EXACT_REQUEST,
    TAG_EXACT_UP,
    TAG_SKETCH_UP,
    TAG_UPDATE_DOWN,
    WireError,
    decode_indices,
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
        with pytest.raises(WireError):
            decode_indices(payload[:-1])
        with pytest.raises(WireError):
            decode_indices(payload + b"\x00")
        with pytest.raises(WireError):
            decode_indices(b"\x01")

    def test_rejects_zero_gap(self):
        # count 2, first index 5, then a gap of 0: a repeated index
        with pytest.raises(WireError):
            decode_indices((2).to_bytes(4, "little") + b"\x05\x00")

    def test_rejects_index_past_int64(self):
        # 2**63 as one ten-byte varint, and as 2**62 plus a gap of 2**62
        with pytest.raises(WireError):
            decode_indices((1).to_bytes(4, "little") + b"\x80" * 9 + b"\x01")
        with pytest.raises(WireError):
            decode_indices((2).to_bytes(4, "little") + (b"\x80" * 8 + b"\x40") * 2)
        top = np.array([2**63 - 1], dtype=np.int64)
        assert np.array_equal(decode_indices(encode_indices(top)), top)

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
