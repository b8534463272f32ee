"""The R*-tree's search paths against a brute-force scan, and the
properties of the batched ``(Q, d)`` probe itself.

``tests/oracle.py`` scans every box; the tree must agree with it after
every kind of mutation, over the in-memory and the on-disk store, for
both metrics and for point and box keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DeadlineExceededError, SpatialIndexError
from repro.index.geometry import Rect
from repro.index.pagestore import MemoryPageStore
from repro.index.rstar import RStarTree
from repro.index.storage import MmapPageStore
from tests import oracle
from tests.conftest import ticking_deadline

DIMS = 3


def make_boxes(rng: np.random.Generator, count: int, kind: str, *,
               first: int = 0) -> list[tuple[Rect, tuple[int, int]]]:
    lower = rng.uniform(size=(count, DIMS))
    extent = rng.uniform(0.0, 0.08, size=(count, DIMS)) if kind == "box" \
        else np.zeros((count, DIMS))
    return [(Rect(low, low + side), (first + index, index % 5))
            for index, (low, side) in enumerate(zip(lower, extent))]


def assert_equals_oracle(tree: RStarTree, boxes, rng) -> None:
    """Every search entry point of ``tree`` agrees with the scan."""
    assert len(tree) == len(boxes)
    points = rng.uniform(size=(6, DIMS))
    for point in points[:2]:
        probe = Rect(point - 0.15, point + 0.2)
        assert sorted(tree.search(probe)) \
            == sorted(oracle.intersecting(boxes, probe))
        assert sorted(item for _, item in tree.search_entries(probe)) \
            == sorted(tree.search(probe))
    for metric in ("l2", "linf"):
        batched = tree.search_within(points, 0.25, metric=metric)
        assert len(batched) == len(points)
        for point, hits in zip(points, batched):
            assert hits == tree.search_within(point, 0.25, metric=metric)
            expected = oracle.within(boxes, point, 0.25, metric)
            assert sorted(item for _, item in hits) \
                == sorted(item for _, item in expected)
            distances = [distance for distance, _ in hits]
            assert distances == sorted(distances)
            assert distances == pytest.approx(
                [distance for distance, _ in expected], abs=1e-12)
    found = tree.nearest(points[0], k=7)
    assert [distance for distance, _ in found] == pytest.approx(
        oracle.nearest(boxes, points[0], 7), abs=1e-12)
    assert tree.verify() == []


@pytest.mark.parametrize("kind", ["point", "box"])
@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "mmap"])
def test_tree_equals_scan_across_mutations(kind, on_disk, tmp_path):
    rng = np.random.default_rng(26)
    path = tmp_path / "tree.pages"
    store = MmapPageStore(path, buffer_pages=16) if on_disk \
        else MemoryPageStore()
    tree = RStarTree(DIMS, store=store, max_entries=8)
    assert_equals_oracle(tree, [], rng)

    boxes = make_boxes(rng, 260, kind)
    for rect, item in boxes:
        tree.insert(rect, item)
    assert tree.counters.reinsert_ops > 0 and tree.counters.splits > 0
    assert_equals_oracle(tree, boxes, rng)

    for rect, item in boxes[::3]:
        assert tree.delete(rect, lambda found, gone=item: found == gone) == 1
    boxes = [box for index, box in enumerate(boxes) if index % 3]
    assert_equals_oracle(tree, boxes, rng)

    boxes = make_boxes(rng, 300, kind, first=1000)
    tree.rebuild_bulk(boxes)
    assert_equals_oracle(tree, boxes, rng)

    grown = make_boxes(rng, 60, kind, first=2000)
    for rect, item in grown:
        tree.insert(rect, item)
    boxes = boxes + grown
    assert_equals_oracle(tree, boxes, rng)
    tree.check_invariants()

    if on_disk:
        store.compact()
        assert_equals_oracle(tree, boxes, rng)
        state = tree.state()
        store.close()
        with MmapPageStore(path, readonly=True) as reopened:
            assert_equals_oracle(RStarTree.from_state(state, reopened),
                                 boxes, rng)


class TestBatching:
    @pytest.mark.parametrize("build", ["str", "inserts"])
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_matrix_call_is_the_single_calls_tie_order_included(
            self, build, metric):
        """Repeated signatures give equal distances: the batched walk
        must break those ties the way each solo walk does."""
        rng = np.random.default_rng(7)
        distinct = rng.uniform(size=(40, DIMS)).round(1)
        items = [(Rect.from_point(distinct[index % 40]), (index, 0))
                 for index in range(240)]
        if build == "str":
            tree = RStarTree.bulk_load(DIMS, items, max_entries=8)
        else:
            tree = RStarTree(DIMS, max_entries=8)
            for rect, item in items:
                tree.insert(rect, item)
        probes = np.vstack([distinct[:12], rng.uniform(size=(4, DIMS))])
        batched = tree.search_within(probes, 0.3, metric=metric)
        solo = [tree.search_within(probe, 0.3, metric=metric)
                for probe in probes]
        assert batched == solo
        assert any(len({distance for distance, _ in hits}) < len(hits)
                   for hits in solo)

    def test_single_row_matrix_and_empty_matrix(self):
        tree = RStarTree(2)
        tree.insert_point(np.array([0.5, 0.5]), "a")
        assert tree.search_within(np.array([[0.5, 0.5]]), 0.1) \
            == [[(0.0, "a")]]
        assert tree.search_within(np.empty((0, 2)), 0.1) == []

    def two_leaf_tree(self) -> RStarTree:
        """Root + two leaves: four points near x=0, four near x=100."""
        items = [(Rect.from_point(np.array([float(x), 0.0])), x)
                 for x in (0, 1, 2, 3, 100, 101, 102, 103)]
        tree = RStarTree.bulk_load(2, items, max_entries=4, fill_ratio=1.0)
        assert tree.height() == 2 and len(tree.store) == 3
        return tree

    def reads(self, tree: RStarTree, points, epsilon=1.5) -> dict[str, int]:
        before = tree.counters.snapshot()
        tree.search_within(np.asarray(points, dtype=float), epsilon)
        return tree.counters.delta(before)

    def test_probes_reaching_disjoint_leaves_read_root_plus_two(self):
        tree = self.two_leaf_tree()
        delta = self.reads(tree, [[1.0, 0.0], [101.0, 0.0]])
        assert (delta["node_reads"], delta["probes"]) == (3, 2)
        assert self.reads(tree, [1.0, 0.0])["node_reads"] == 2

    def test_probe_given_twice_reads_what_it_reads_once(self):
        tree = self.two_leaf_tree()
        once = self.reads(tree, [[1.0, 0.0]])
        twice = self.reads(tree, [[1.0, 0.0], [1.0, 0.0]])
        assert twice["node_reads"] == once["node_reads"] == 2
        assert (once["probes"], twice["probes"]) == (1, 2)

    def test_batched_reads_never_exceed_the_solo_sum(self):
        rng = np.random.default_rng(3)
        tree = RStarTree(DIMS, max_entries=8)
        for index, point in enumerate(rng.uniform(size=(400, DIMS))):
            tree.insert_point(point, index)
        probes = rng.uniform(size=(10, DIMS))
        solo = sum(self.reads(tree, probe, 0.2)["node_reads"]
                   for probe in probes)
        batched = self.reads(tree, probes, 0.2)["node_reads"]
        assert 1 <= batched <= solo
        assert batched <= len(tree.store)

    def test_expired_deadline_stops_before_the_next_node_read(self):
        rng = np.random.default_rng(5)
        tree = RStarTree(DIMS, max_entries=8)
        for index, point in enumerate(rng.uniform(size=(200, DIMS))):
            tree.insert_point(point, index)
        deadline = ticking_deadline(3)
        before = tree.counters.snapshot()
        with pytest.raises(DeadlineExceededError):
            tree.search_within(rng.uniform(size=(5, DIMS)), 0.5,
                               deadline=deadline)
        # Checks 1-3 passed (one node read each); the fourth raised.
        assert tree.counters.delta(before)["node_reads"] == 3


class TestValidationBeforeTraversal:
    """``search_within`` used to reach its metric check only once a
    candidate entry existed, so a bad call on an empty or far-away
    tree answered ``[]``."""

    def trees(self):
        empty = RStarTree(2)
        far = RStarTree(2)
        far.insert_point(np.array([50.0, 50.0]), "far")
        return [empty, far]

    @pytest.mark.parametrize("point", [np.zeros(2), np.zeros((3, 2))],
                             ids=["point", "matrix"])
    def test_bad_metric_and_epsilon(self, point):
        for tree in self.trees():
            before = tree.counters.snapshot()
            with pytest.raises(SpatialIndexError, match="unknown metric"):
                tree.search_within(point, 0.1, metric="bogus")
            with pytest.raises(SpatialIndexError, match="epsilon"):
                tree.search_within(point, -0.1)
            assert tree.counters.delta(before)["node_reads"] == 0

    def test_bad_shapes(self):
        for tree in self.trees():
            for point in (np.zeros(3), np.zeros((4, 3)),
                          np.zeros((2, 2, 2)), np.float64(1.0)):
                with pytest.raises(SpatialIndexError, match="dimension"):
                    tree.search_within(point, 0.1)


class TestVerifySeesStaleBounds:
    def test_mutation_without_write_is_reported(self):
        tree = RStarTree(2)
        for x in range(3):
            tree.insert_point(np.array([float(x), 0.0]), x)
        tree.search_within(np.zeros(2), 0.5)   # stacks the root's bounds
        assert tree.verify() == []
        root = tree.store.read(tree.root_id)
        root.entries[0].rect = Rect.from_point(np.array([9.0, 9.0]))
        assert any("cached search bounds" in issue
                   for issue in tree.verify())
        tree._write(root)
        assert tree.verify() == []
