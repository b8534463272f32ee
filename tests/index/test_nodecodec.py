"""The v3 fixed-layout node codec: round trips, zero-copy, rejection."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.index.node import Node
from repro.index.nodecodec import _NODE_HEADER, decode_node, encode_node
from tests.nodepages import node_contents


def leaf_node(page_id=7, count=5, dims=4):
    lower = np.random.default_rng(page_id).random((count, dims))
    return Node(page_id, 0, lower, lower + 0.25,
                [(1000 + index, index) for index in range(count)])


def internal_node(page_id=9, count=4, dims=4):
    lower = np.random.default_rng(page_id).random((count, dims))
    return Node(page_id, 2, lower, lower + 0.5,
                [50 + index for index in range(count)])


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
        payload = _NODE_HEADER.pack(0, 3, 0)
        with pytest.raises(StorageError, match="zero dimensions"):
            decode_node(7, payload)
