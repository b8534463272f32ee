"""Model-based property tests: random operation sequences vs. oracles.

The page store is checked against a plain dict; the R*-tree against a
brute-force list.  These catch state-machine bugs (stale buffers,
dangling pages, MBR rot) that single-operation unit tests miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.index.geometry import Rect
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.index.pagestore import MemoryPageStore
from repro.index.storage import MmapPageStore
from tests.nodepages import node_page, page_value


class TestStorageModel:
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["write", "read", "free", "sync"]),
                      st.integers(0, 14), st.integers(0, 10_000)),
            min_size=1, max_size=60,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_file_store_matches_dict_model(self, operations,
                                           tmp_path_factory):
        """Random op sequences on MmapPageStore behave like a dict whose
        values are the very objects written, syncs or not."""
        directory = tmp_path_factory.mktemp("store")
        store = MmapPageStore(directory / "pages.db")
        model: dict[int, Node] = {}
        allocated = 0
        try:
            for op, slot, value in operations:
                if op == "write":
                    while allocated <= slot:
                        store.allocate()
                        allocated += 1
                    model[slot] = node_page(slot, value)
                    store.write(slot, model[slot])
                elif op == "read":
                    if slot in model:
                        assert store.read(slot) is model[slot]
                    else:
                        with pytest.raises(StorageError):
                            store.read(slot)
                elif op == "free":
                    if slot in model:
                        store.free(slot)
                        del model[slot]
                    else:
                        with pytest.raises(StorageError):
                            store.free(slot)
                else:
                    store.sync()
            store.sync()
            for slot, page in model.items():
                assert store.read(slot) is page
        finally:
            store.close()
        # Every live page, and nothing else, reads back after a reopen.
        with MmapPageStore(directory / "pages.db", readonly=True) as reopened:
            assert {slot: page_value(reopened.read(slot))
                    for slot in reopened.page_ids()} \
                == {slot: page_value(page) for slot, page in model.items()}

    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["write", "free"]),
                      st.integers(0, 9)),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_memory_store_matches_dict_model(self, operations):
        store = MemoryPageStore()
        model: dict[int, str] = {}
        allocated = 0
        for op, slot in operations:
            if op == "write":
                while allocated <= slot:
                    store.allocate()
                    allocated += 1
                store.write(slot, f"v{slot}")
                model[slot] = f"v{slot}"
            elif slot in model:
                store.free(slot)
                del model[slot]
        assert len(store) == len(model)


class TestRStarModel:
    @given(
        seed=st.integers(0, 10_000),
        operation_count=st.integers(10, 120),
        max_entries=st.sampled_from([4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_inserts_and_deletes(self, seed, operation_count,
                                       max_entries):
        """Interleaved inserts/deletes keep the tree equivalent to a
        brute-force set under range queries and invariants."""
        rng = np.random.default_rng(seed)
        tree = RStarTree(3, max_entries=max_entries)
        alive: dict[int, np.ndarray] = {}
        next_id = 0
        for _ in range(operation_count):
            if alive and rng.uniform() < 0.35:
                victim = int(rng.choice(list(alive)))
                removed = tree.delete(
                    Rect.from_point(alive[victim]),
                    lambda item, v=victim: item == v)
                assert removed == 1
                del alive[victim]
            else:
                point = rng.uniform(size=3)
                tree.insert_point(point, next_id)
                alive[next_id] = point
                next_id += 1
        tree.check_invariants()
        assert len(tree) == len(alive)
        query = rng.uniform(size=3)
        epsilon = float(rng.uniform(0.1, 0.6))
        hits = sorted(item for _, item in
                      tree.search_within(query, epsilon))
        brute = sorted(
            key for key, point in alive.items()
            if np.linalg.norm(point - query) <= epsilon)
        assert hits == brute
