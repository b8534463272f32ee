"""The v3 fixed-layout node codec: round trips, zero-copy, point-key
pages, rejection, and properties over random and mutated pages."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.index.node import Node
from repro.index.nodecodec import (_NODE_HEADER, _POINT_KEYS, decode_node,
                                   encode_node)
from tests.nodepages import node_contents

#: Float64 bit patterns that compare equal as values but not as bytes
#: (``+0.0`` / ``-0.0``) or unequal as values but stored verbatim (NaN
#: payloads, quiet and signalling, both signs), plus the infinities.
SPECIAL_BITS = (0x0000000000000000, 0x8000000000000000,
                0x7FF8000000000000, 0x7FF8000000000001,
                0xFFF8000000000000, 0x7FF0000000000001,
                0x7FF0000000000000, 0xFFF0000000000000)


def leaf_node(page_id=7, count=5, dims=4):
    lower = np.random.default_rng(page_id).random((count, dims))
    return Node(page_id, 0, lower, lower + 0.25,
                [(1000 + index, index) for index in range(count)])


def internal_node(page_id=9, count=4, dims=4):
    lower = np.random.default_rng(page_id).random((count, dims))
    return Node(page_id, 2, lower, lower + 0.5,
                [50 + index for index in range(count)])


def point_leaf(page_id=7, count=5, dims=4):
    lower = np.random.default_rng(page_id).random((count, dims))
    return Node(page_id, 0, lower, lower.copy(),
                [(1000 + index, index) for index in range(count)])


def from_bits(bits):
    """A float64 array holding exactly the given bit patterns."""
    return np.array(bits, dtype="<u8").view("<f8")


def header(payload):
    """``(level, count, dims, flags)`` of an encoded page."""
    return _NODE_HEADER.unpack_from(payload)


def legacy_payload(node):
    """The page 2.9 wrote for ``node``: both matrices, zero flags."""
    count, dims = node.lower.shape
    column = np.array(node.refs, dtype="<i8" if node.is_leaf else "<u8")
    return b"".join((_NODE_HEADER.pack(node.level, count, dims, 0),
                     node.lower.tobytes(), node.upper.tobytes(),
                     column.tobytes()))


class TestRoundTrip:
    def test_leaf_round_trips_exactly(self):
        node = leaf_node()
        rebuilt = decode_node(node.page_id, encode_node(node))
        assert (rebuilt.page_id, rebuilt.level) == (node.page_id, 0)
        assert node_contents(rebuilt) == node_contents(node)

    def test_internal_round_trips_exactly(self):
        node = internal_node()
        rebuilt = decode_node(node.page_id, encode_node(node))
        assert (rebuilt.page_id, rebuilt.level) == (node.page_id, 2)
        assert node_contents(rebuilt) == node_contents(node)

    def test_empty_node_round_trips(self):
        node = Node(3, 0)
        payload = encode_node(node)
        assert len(payload) == _NODE_HEADER.size
        rebuilt = decode_node(3, payload)
        assert rebuilt.refs == [] and rebuilt.level == 0

    def test_bounds_are_bit_identical(self):
        node = leaf_node(count=8)
        rebuilt = decode_node(node.page_id, encode_node(node))
        assert rebuilt.lower.shape == (8, 4)
        assert rebuilt.lower.tobytes() == node.lower.tobytes()
        assert rebuilt.upper.tobytes() == node.upper.tobytes()

    def test_leaf_items_are_python_int_tuples(self):
        rebuilt = decode_node(7, encode_node(leaf_node()))
        for item in rebuilt.refs:
            assert type(item) is tuple
            assert all(type(part) is int for part in item)

    def test_child_ids_are_python_ints(self):
        rebuilt = decode_node(9, encode_node(internal_node()))
        assert all(type(child_id) is int for child_id in rebuilt.refs)


class TestZeroCopy:
    def test_decoded_bounds_view_the_buffer(self):
        node = leaf_node(count=3)
        payload = bytearray(encode_node(node))  # writable backing store
        rebuilt = decode_node(node.page_id, memoryview(payload))
        lower = rebuilt.lower
        assert lower.base is not None  # a view, not a copy
        before = lower[0, 0]
        # Flip one byte inside the first lower bound: the decoded
        # array must observe it, proving it aliases the buffer.
        payload[_NODE_HEADER.size] ^= 0xFF
        assert rebuilt.lower[0, 0] != before

    def test_decode_runs_no_pickle(self, monkeypatch):
        payload = encode_node(leaf_node())

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("decode_node called pickle.loads")

        monkeypatch.setattr(pickle, "loads", forbidden)
        decode_node(7, payload)


class TestRejection:
    def test_non_node_payload_rejected(self):
        with pytest.raises(StorageError, match="R\\*-tree nodes only"):
            encode_node({"not": "a node"})

    def test_mixed_dims_rejected(self):
        node = leaf_node(dims=4)
        node.upper = node.upper[:, :3]
        with pytest.raises(StorageError, match="dimensions"):
            encode_node(node)

    def test_non_pair_leaf_item_rejected(self):
        low = np.zeros((1, 2))
        node = Node(1, 0, low, low + 1.0, [(1, 2, 3)])
        with pytest.raises(StorageError, match="pair of ints"):
            encode_node(node)

    def test_non_int_leaf_item_rejected(self):
        low = np.zeros((1, 2))
        node = Node(1, 0, low, low + 1.0, [(1.5, 2)])
        with pytest.raises(StorageError, match="pair of ints"):
            encode_node(node)

    def test_truncated_payload_rejected(self):
        payload = encode_node(leaf_node())
        with pytest.raises(StorageError, match="expected"):
            decode_node(7, payload[:-8])

    def test_short_header_rejected(self):
        with pytest.raises(StorageError, match="node header"):
            decode_node(7, b"\0\0\0")

    def test_negative_level_rejected(self):
        payload = bytearray(encode_node(leaf_node()))
        payload[:4] = (-1).to_bytes(4, "little", signed=True)
        with pytest.raises(StorageError, match="negative node level"):
            decode_node(7, bytes(payload))

    def test_entries_without_dims_rejected(self):
        payload = _NODE_HEADER.pack(0, 3, 0, 0)
        with pytest.raises(StorageError, match="zero dimensions"):
            decode_node(7, payload)

    def test_empty_node_with_dims_or_flags_rejected(self):
        for fields in ((0, 0, 4, 0), (2, 0, 0, _POINT_KEYS)):
            with pytest.raises(StorageError, match="without entries"):
                decode_node(7, _NODE_HEADER.pack(*fields))

    @pytest.mark.parametrize("bit", range(1, 32))
    def test_unknown_flag_bit_rejected(self, bit):
        payload = bytearray(encode_node(point_leaf()))
        payload[12:16] = (_POINT_KEYS | 1 << bit).to_bytes(4, "little")
        with pytest.raises(StorageError, match="unknown node flags"):
            decode_node(7, bytes(payload))

    @pytest.mark.parametrize("item", [(2 ** 63, 0), (0, -2 ** 63 - 1),
                                      (-2 ** 70, 5)])
    def test_leaf_item_outside_int64_rejected(self, item):
        low = np.zeros((3, 2))
        node = Node(4, 0, low, low, [(1, 1), (2, 2), item])
        with pytest.raises(StorageError, match="entry 2 item"):
            encode_node(node)

    @pytest.mark.parametrize("child", [-1, 2 ** 64, None])
    def test_child_id_outside_uint64_rejected(self, child):
        low = np.zeros((2, 2))
        node = Node(4, 1, low, low + 1.0, [3, child])
        with pytest.raises(StorageError, match="entry 1 child id"):
            encode_node(node)

    def test_column_extremes_round_trip(self):
        low = np.zeros((2, 1))
        leaf = Node(1, 0, low, low, [(2 ** 63 - 1, -2 ** 63), (0, -1)])
        internal = Node(2, 1, low, low + 1.0, [0, 2 ** 64 - 1])
        for node in (leaf, internal):
            assert decode_node(node.page_id, encode_node(node)).refs \
                == node.refs


class TestPointKeys:
    """A page whose two key matrices are bytewise identical stores one
    and says so in bit 0 of its flags word."""

    def test_point_leaf_stores_one_matrix(self):
        node = point_leaf(count=5, dims=12)
        payload = encode_node(node)
        assert header(payload) == (0, 5, 12, _POINT_KEYS)
        assert len(payload) == _NODE_HEADER.size + 5 * (8 * 12 + 16)
        assert len(payload) == len(legacy_payload(node)) - 5 * 12 * 8

    def test_box_leaf_keeps_two_matrices(self):
        payload = encode_node(leaf_node(count=5, dims=12))
        assert header(payload) == (0, 5, 12, 0)
        assert len(payload) == _NODE_HEADER.size + 5 * (16 * 12 + 16)

    def test_internal_node_with_point_rows_is_flagged_too(self):
        lower = np.arange(6.0).reshape(3, 2)
        node = Node(5, 1, lower, lower.copy(), [10, 11, 12])
        payload = encode_node(node)
        assert header(payload)[3] == _POINT_KEYS
        assert len(payload) == _NODE_HEADER.size + 3 * (8 * 2 + 8)

    def test_decoded_upper_is_the_lower_view(self):
        node = point_leaf()
        rebuilt = decode_node(7, encode_node(node))
        assert rebuilt.upper is rebuilt.lower
        assert not rebuilt.lower.flags.writeable
        assert node_contents(rebuilt) == node_contents(node)

    def test_set_row_separates_the_shared_view(self):
        rebuilt = decode_node(7, encode_node(point_leaf(count=3, dims=2)))
        rebuilt.set_row(1, np.zeros(2), np.ones(2))
        assert rebuilt.upper is not rebuilt.lower
        assert rebuilt.lower[1].tolist() == [0.0, 0.0]
        assert rebuilt.upper[1].tolist() == [1.0, 1.0]
        assert header(encode_node(rebuilt))[3] == 0

    @pytest.mark.parametrize("twin", [(0x0, 0x8000000000000000),
                                      (0x7FF8000000000000,
                                       0x7FF8000000000001)])
    def test_equal_values_with_other_bytes_keep_two_matrices(self, twin):
        lower = from_bits([[0x3FF0000000000000, twin[0]]])
        upper = from_bits([[0x3FF0000000000000, twin[1]]])
        node = Node(3, 0, lower, upper, [(1, 2)])
        payload = encode_node(node)
        assert header(payload)[3] == 0
        rebuilt = decode_node(3, payload)
        assert node_contents(rebuilt) == node_contents(node)

    def test_identical_nan_bytes_are_point_keys(self):
        lower = from_bits([[0x7FF8000000000001, 0x8000000000000000]])
        node = Node(3, 0, lower, lower.copy(), [(1, 2)])
        assert header(encode_node(node))[3] == _POINT_KEYS
        rebuilt = decode_node(3, encode_node(node))
        assert node_contents(rebuilt) == node_contents(node)

    def test_two_matrix_page_with_point_keys_still_decodes(self):
        # What 2.9 wrote for a point leaf: both copies, flags 0.
        node = point_leaf(count=4, dims=12)
        legacy = legacy_payload(node)
        rebuilt = decode_node(7, legacy)
        assert node_contents(rebuilt) == node_contents(node)
        assert len(encode_node(rebuilt)) == len(legacy) - 4 * 12 * 8

    def test_flag_without_its_layout_is_a_length_error(self):
        payload = bytearray(legacy_payload(point_leaf()))
        payload[12:16] = _POINT_KEYS.to_bytes(4, "little")
        with pytest.raises(StorageError, match="expected"):
            decode_node(7, bytes(payload))
        flagged = bytearray(encode_node(point_leaf()))
        flagged[12:16] = bytes(4)
        with pytest.raises(StorageError, match="expected"):
            decode_node(7, bytes(flagged))


@st.composite
def key_matrix(draw, count, dims):
    """A ``(count, dims)`` float64 matrix of arbitrary bit patterns,
    special values (signed zeros, NaN payloads) among them."""
    bits = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_BITS),
                  st.integers(0, 2 ** 64 - 1),
                  st.floats(width=64).map(
                      lambda value: int(np.float64(value).view(np.uint64)))),
        min_size=count * dims, max_size=count * dims))
    return from_bits(bits).reshape(count, dims)


@st.composite
def nodes(draw):
    """Leaf and internal nodes with 0–9 entries in 1–12 dimensions and
    point, box or mixed keys; "twin" keys differ from their points only
    by a signed zero or a NaN payload."""
    level = draw(st.sampled_from((0, 0, 1, 3)))
    dims = draw(st.integers(1, 12))
    count = draw(st.integers(0, 9))
    lower = draw(key_matrix(count, dims))
    kind = draw(st.sampled_from(("point", "box", "mixed", "twin")))
    upper = lower.copy()
    if kind == "box":
        upper = draw(key_matrix(count, dims))
    elif kind == "mixed" and count:
        rows = draw(st.lists(st.integers(0, count - 1), max_size=count))
        upper[rows] = draw(key_matrix(len(rows), dims))
    elif kind == "twin" and count:
        row = draw(st.integers(0, count - 1))
        column = draw(st.integers(0, dims - 1))
        upper.view("<u8")[row, column] ^= draw(st.sampled_from(
            (0x8000000000000000, 0x1)))
    if level == 0:
        refs = draw(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1),
                                       st.integers(-2 ** 63, 2 ** 63 - 1)),
                             min_size=count, max_size=count))
    else:
        refs = draw(st.lists(st.integers(0, 2 ** 64 - 1),
                             min_size=count, max_size=count))
    return Node(draw(st.integers(0, 2 ** 40)), level, lower, upper, refs)


def decodes_canonically(page_id, payload):
    """Decode ``payload``: a :class:`StorageError` is a rejection, any
    other exception fails the test, and a node that decodes must encode
    back to exactly ``payload``."""
    try:
        node = decode_node(page_id, payload)
    except StorageError:
        return False
    assert encode_node(node) == payload
    return True


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(nodes())
    def test_round_trip_is_bit_identical(self, node):
        payload = encode_node(node)
        rebuilt = decode_node(node.page_id, payload)
        assert node_contents(rebuilt) == node_contents(node)
        assert encode_node(rebuilt) == payload

    @settings(max_examples=150, deadline=None)
    @given(nodes())
    def test_point_flag_iff_keys_are_bytewise_equal(self, node):
        payload = encode_node(node)
        level, count, dims, flags = header(payload)
        point = bool(node.refs) \
            and node.lower.tobytes() == node.upper.tobytes()
        assert flags == (_POINT_KEYS if point else 0)
        tail = 16 if node.is_leaf else 8
        assert len(payload) == _NODE_HEADER.size \
            + count * ((1 if point else 2) * 8 * dims + tail)

    @settings(max_examples=60, deadline=None)
    @given(nodes(), st.binary(min_size=1, max_size=24))
    def test_mutated_pages_are_rejected_or_canonical(self, node, extra):
        payload = encode_node(node)
        for size in range(len(payload)):
            assert not decodes_canonically(node.page_id, payload[:size])
        assert not decodes_canonically(node.page_id, payload + extra)
        for bit in range(8 * _NODE_HEADER.size):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << bit % 8
            decodes_canonically(node.page_id, bytes(flipped))
        for bit in range(1, 32):
            unknown = bytearray(payload)
            unknown[12:16] = (header(payload)[3] | 1 << bit).to_bytes(
                4, "little")
            assert not decodes_canonically(node.page_id, bytes(unknown))
