"""An R*-tree on the on-disk page store, driven as a state machine.

Hypothesis interleaves inserts (point and box keys, and runs of copies
of one key), deletes of one key or of every key at one rectangle,
re-inserts of removed keys, commits, compactions and readonly reopens;
after every step the tree must be sound, must answer what a scan of
the live keys answers (``tests/oracle.py``), and the store must hand
out one object per page id — the contract the tree's in-place node
edits depend on (see :class:`repro.index.pagestore.PageStore`).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.index.geometry import Rect
from repro.index.rstar import RStarTree
from repro.index.storage import MmapPageStore, open_page_store
from tests import oracle

DIMS = 3
#: Coordinates are multiples of 1 / GRID, so keys repeat and touch.
GRID = 32
CELLS = st.tuples(*[st.integers(0, GRID)] * DIMS)
SIDES = st.tuples(*[st.integers(0, 4)] * DIMS)
PICKS = st.integers(0, 1 << 16)

_probes = np.random.default_rng(32).uniform(size=(5, DIMS))
PROBE_POINTS = _probes[:3]
EPSILON = 0.3
PROBE_BOXES = [Rect(point - 0.2, point + 0.15) for point in _probes[3:]]


def assert_answers(tree: RStarTree, alive: dict[int, Rect]) -> None:
    """``tree`` holds exactly the ``alive`` keys and its searches
    return what the brute-force scan returns."""
    boxes = [(rect, (key, 0)) for key, rect in alive.items()]
    assert len(tree) == len(boxes)
    assert sorted(item for _, item in tree.items()) \
        == sorted(item for _, item in boxes)
    for probe in PROBE_BOXES:
        assert sorted(tree.search(probe)) \
            == sorted(oracle.intersecting(boxes, probe))
    for point, hits in zip(PROBE_POINTS,
                           tree.search_within(PROBE_POINTS, EPSILON)):
        assert sorted(item for _, item in hits) == sorted(
            item for _, item in oracle.within(boxes, point, EPSILON))


class TreeOnDisk(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="walrus-store-")
        self.path = os.path.join(self.directory, "tree.pages")
        self.store = MmapPageStore(self.path)
        self.tree = RStarTree(DIMS, store=self.store, max_entries=4)
        self.alive: dict[int, Rect] = {}
        self.removed: dict[int, Rect] = {}
        self.next_key = 0
        self.sync()

    def add(self, key: int, rect: Rect) -> None:
        self.tree.insert(rect, (key, 0))
        self.alive[key] = rect

    def new_key(self) -> int:
        self.next_key += 1
        return self.next_key

    def mark_committed(self) -> None:
        """What a readonly open must now see."""
        self.snapshot = dict(self.alive), self.tree.state()

    # -- rules ----------------------------------------------------------
    @rule(cells=st.lists(CELLS, min_size=1, max_size=6))
    def insert_points(self, cells: list[tuple[int, ...]]) -> None:
        for cell in cells:
            self.add(self.new_key(),
                     Rect.from_point(np.array(cell, dtype=float) / GRID))

    @rule(boxes=st.lists(st.tuples(CELLS, SIDES), min_size=1, max_size=6))
    def insert_boxes(self, boxes: list[tuple[tuple[int, ...], ...]]) -> None:
        for cell, side in boxes:
            lower = np.array(cell, dtype=float) / GRID
            self.add(self.new_key(),
                     Rect(lower, lower + np.array(side, dtype=float) / GRID))

    @rule(cell=CELLS, side=SIDES, copies=st.integers(2, 8))
    def insert_copies(self, cell: tuple[int, ...], side: tuple[int, ...],
                      copies: int) -> None:
        lower = np.array(cell, dtype=float) / GRID
        rect = Rect(lower, lower + np.array(side, dtype=float) / GRID)
        for _ in range(copies):
            self.add(self.new_key(), rect)

    @precondition(lambda self: self.alive)
    @rule(pick=PICKS)
    def delete(self, pick: int) -> None:
        key = sorted(self.alive)[pick % len(self.alive)]
        rect = self.alive.pop(key)
        assert self.tree.delete(rect, lambda item: item == (key, 0)) == 1
        self.removed[key] = rect

    @precondition(lambda self: self.alive)
    @rule(pick=PICKS)
    def delete_every_key_at_one_rect(self, pick: int) -> None:
        rect = self.alive[sorted(self.alive)[pick % len(self.alive)]]
        keys = [key for key, other in self.alive.items() if other == rect]
        assert self.tree.delete(rect, lambda item: True) == len(keys)
        for key in keys:
            self.removed[key] = self.alive.pop(key)

    @precondition(lambda self: self.removed)
    @rule(pick=PICKS)
    def reinsert_removed(self, pick: int) -> None:
        key = sorted(self.removed)[pick % len(self.removed)]
        self.add(key, self.removed.pop(key))

    @rule()
    def sync(self) -> None:
        self.store.sync()
        self.mark_committed()

    @rule()
    def compact(self) -> None:
        self.store.compact()
        self.mark_committed()

    @rule()
    def reopen_readonly_and_query(self) -> None:
        alive, state = self.snapshot
        with open_page_store(self.path, readonly=True) as reader:
            tree = RStarTree.from_state(state, reader)
            assert tree.verify() == []
            assert_answers(tree, alive)

    # -- invariants -----------------------------------------------------
    @invariant()
    def tree_is_sound_and_answers_like_the_scan(self) -> None:
        # verify() first: a search of a tree whose pages form a cycle
        # would never return.
        assert self.tree.verify() == []
        assert_answers(self.tree, self.alive)

    @invariant()
    def one_object_per_page(self) -> None:
        pages = {page_id: self.store.read(page_id)
                 for page_id in self.store.page_ids()}
        assert [page_id for page_id, page in pages.items()
                if self.store.read(page_id) is not page] == []

    def teardown(self) -> None:
        try:
            self.store.abandon()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


TestTreeOnDisk = TreeOnDisk.TestCase
TestTreeOnDisk.settings = settings(max_examples=25, stateful_step_count=40,
                                   deadline=None)
