"""Tests for the R*-tree, including brute-force equivalence properties."""

from __future__ import annotations

import json
import pathlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SpatialIndexError
from repro.index.geometry import Rect
from repro.index.rstar import RStarTree
from repro.index.storage import MmapPageStore
from tests import oracle
from tests.nodepages import record_sizes, second_copy_bytes

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN_TREE = FIXTURES / "golden_rstar.pages"
#: The same script's file as 2.9 wrote it: every node page stores both
#: key matrices.
GOLDEN_TREE_2_9 = FIXTURES / "golden_rstar_2_9.pages"

#: ``IndexCounters`` after :func:`write_golden_tree`, taken together
#: with ``tests/fixtures/golden_rstar.pages``.
GOLDEN_TREE_COUNTERS = {
    "node_reads": 13035, "node_writes": 7076, "splits": 58,
    "reinsert_ops": 91, "reinserted_entries": 182, "probes": 0,
    "knn_searches": 0}


def write_golden_tree(path) -> RStarTree:
    """The deterministic script ``tests/fixtures/golden_rstar.pages``
    was written with: an STR bulk load, inserts that force reinserts
    and splits on two levels, then deletes that reinsert orphans and
    shrink the root: point and box keys, a third of them on a coarse
    grid, 12 dimensions, a commit after each phase."""
    rng = np.random.default_rng(1999)
    dims = 12

    def keys(count: int, first: int) -> list[tuple[Rect, tuple[int, int]]]:
        lower = rng.uniform(size=(count, dims))
        lower[::3] = lower[::3].round(1)  # ties for every sort to break
        sides = np.where(rng.uniform(size=(count, 1)) < 0.5, 0.0,
                         rng.uniform(0.0, 0.05, size=(count, dims)))
        return [(Rect(low, low + side), (first + index, index % 7))
                for index, (low, side) in enumerate(zip(lower, sides))]

    store = MmapPageStore(path)
    tree = RStarTree.bulk_load(dims, keys(320, 0), store=store,
                               max_entries=8)
    store.sync()
    grown = keys(440, 1000)
    for rect, item in grown:
        tree.insert(rect, item)
    store.sync()
    height = tree.height()
    victims = list(tree.items())
    order = rng.permutation(len(victims))
    for index in order[:685]:
        rect, item = victims[index]
        assert tree.delete(rect, lambda found, gone=item: found == gone) == 1
    assert tree.height() < height
    store.set_metadata(json.dumps(tree.state(), sort_keys=True).encode())
    store.close()
    return tree


def build_point_tree(points: np.ndarray, **kwargs) -> RStarTree:
    tree = RStarTree(points.shape[1], **kwargs)
    for index, point in enumerate(points):
        tree.insert_point(point, index)
    return tree


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(SpatialIndexError):
            RStarTree(0)

    def test_rejects_small_capacity(self):
        with pytest.raises(SpatialIndexError):
            RStarTree(2, max_entries=3)

    def test_rejects_bad_min_fill(self):
        with pytest.raises(SpatialIndexError):
            RStarTree(2, min_fill=0.9)

    def test_rejects_dimension_mismatch_on_insert(self):
        tree = RStarTree(3)
        with pytest.raises(SpatialIndexError):
            tree.insert_point(np.zeros(2), "x")

    def test_rejects_dimension_mismatch_on_search(self):
        tree = RStarTree(3)
        with pytest.raises(SpatialIndexError):
            tree.search_within(np.zeros(2), 0.1)


class TestStructure:
    def test_invariants_after_bulk_insert(self, rng):
        tree = build_point_tree(rng.uniform(size=(800, 3)), max_entries=8)
        tree.check_invariants()
        assert len(tree) == 800

    def test_height_grows_logarithmically(self, rng):
        tree = build_point_tree(rng.uniform(size=(1000, 2)), max_entries=8)
        assert 2 <= tree.height() <= 6

    def test_items_enumerates_everything(self, rng):
        points = rng.uniform(size=(100, 2))
        tree = build_point_tree(points)
        items = sorted(item for _, item in tree.items())
        assert items == list(range(100))

    def test_duplicate_points_supported(self):
        tree = RStarTree(2, max_entries=4)
        for index in range(20):
            tree.insert_point(np.array([0.5, 0.5]), index)
        tree.check_invariants()
        hits = tree.search_within(np.array([0.5, 0.5]), 0.0)
        assert len(hits) == 20

    def test_parent_rows_stay_exact_through_every_insert(self):
        """When forced reinserts ran inside the insertion that evicted
        them, a split they caused moved a child's row out of a parent
        whose insertion was still under way (here: insert 114), and the
        row went stale where it went."""
        rng = np.random.default_rng(43)
        lows = rng.uniform(size=(150, 1))
        sides = rng.uniform(0, 0.3, size=(150, 1))
        tree = RStarTree(1, max_entries=6)
        for index, (low, side) in enumerate(zip(lows[:115], sides)):
            tree.insert(Rect(low, low + side), (index, 0))
            assert tree.verify() == [], index

    def test_no_reinsert_variant(self, rng):
        tree = build_point_tree(rng.uniform(size=(300, 2)),
                                max_entries=8, reinsert_fraction=0.0)
        tree.check_invariants()


class TestRangeSearch:
    def test_matches_brute_force(self, rng):
        points = rng.uniform(size=(500, 4))
        tree = build_point_tree(points, max_entries=16)
        query = points[7]
        for epsilon in (0.0, 0.05, 0.2, 0.5):
            hits = sorted(item for _, item in
                          tree.search_within(query, epsilon))
            brute = sorted(
                index for index in range(len(points))
                if np.linalg.norm(points[index] - query) <= epsilon
            )
            assert hits == brute

    def test_distances_sorted_and_correct(self, rng):
        points = rng.uniform(size=(200, 3))
        tree = build_point_tree(points)
        hits = tree.search_within(points[0], 0.3)
        distances = [d for d, _ in hits]
        assert distances == sorted(distances)
        for distance, item in hits:
            assert distance == pytest.approx(
                np.linalg.norm(points[item] - points[0]))

    def test_linf_metric(self, rng):
        points = rng.uniform(size=(300, 2))
        tree = build_point_tree(points)
        query = np.array([0.5, 0.5])
        hits = sorted(item for _, item in
                      tree.search_within(query, 0.1, metric="linf"))
        brute = sorted(
            index for index in range(len(points))
            if np.abs(points[index] - query).max() <= 0.1
        )
        assert hits == brute

    def test_rectangle_intersection(self, rng):
        lows = rng.uniform(0, 0.8, size=(200, 2))
        highs = lows + rng.uniform(0.01, 0.2, size=(200, 2))
        tree = RStarTree(2, max_entries=8)
        rects = [Rect(lo, hi) for lo, hi in zip(lows, highs)]
        for index, r in enumerate(rects):
            tree.insert(r, index)
        probe = Rect(np.array([0.4, 0.4]), np.array([0.6, 0.6]))
        hits = sorted(tree.search(probe))
        brute = sorted(index for index, r in enumerate(rects)
                       if r.intersects(probe))
        assert hits == brute

    def test_rejects_negative_epsilon(self, rng):
        tree = build_point_tree(rng.uniform(size=(10, 2)))
        with pytest.raises(SpatialIndexError):
            tree.search_within(np.zeros(2), -0.1)

    @given(seed=st.integers(0, 10_000), epsilon=st.floats(0.0, 0.6),
           max_entries=st.sampled_from([4, 8, 16]))
    @settings(max_examples=25, deadline=None)
    def test_range_equals_brute_force_property(self, seed, epsilon,
                                               max_entries):
        points = np.random.default_rng(seed).uniform(size=(120, 3))
        tree = build_point_tree(points, max_entries=max_entries)
        query = points[seed % len(points)]
        hits = sorted(item for _, item in tree.search_within(query, epsilon))
        brute = sorted(index for index in range(len(points))
                       if np.linalg.norm(points[index] - query) <= epsilon)
        assert hits == brute


class TestNearest:
    def test_matches_brute_force(self, rng):
        points = rng.uniform(size=(400, 3))
        tree = build_point_tree(points)
        query = np.array([0.5, 0.5, 0.5])
        for k in (1, 5, 20):
            knn = [item for _, item in tree.nearest(query, k)]
            brute = list(np.argsort(
                np.linalg.norm(points - query, axis=1))[:k])
            assert knn == [int(i) for i in brute]

    def test_k_larger_than_size(self, rng):
        tree = build_point_tree(rng.uniform(size=(5, 2)))
        assert len(tree.nearest(np.zeros(2), k=50)) == 5

    def test_rejects_bad_k(self, rng):
        tree = build_point_tree(rng.uniform(size=(5, 2)))
        with pytest.raises(SpatialIndexError):
            tree.nearest(np.zeros(2), k=0)


class TestDelete:
    def test_delete_then_search(self, rng):
        points = rng.uniform(size=(300, 3))
        tree = build_point_tree(points, max_entries=8)
        for index in range(0, 300, 3):
            removed = tree.delete(Rect.from_point(points[index]),
                                  lambda item, i=index: item == i)
            assert removed == 1
        tree.check_invariants()
        assert len(tree) == 200
        survivors = sorted(item for _, item in tree.items())
        assert survivors == [i for i in range(300) if i % 3 != 0]

    def test_delete_everything(self, rng):
        points = rng.uniform(size=(64, 2))
        tree = build_point_tree(points, max_entries=4)
        for index in range(64):
            assert tree.delete(Rect.from_point(points[index]),
                               lambda item, i=index: item == i) == 1
        assert len(tree) == 0

    def test_delete_missing_is_zero(self, rng):
        tree = build_point_tree(rng.uniform(size=(10, 2)))
        removed = tree.delete(Rect.from_point(np.array([5.0, 5.0])),
                              lambda item: True)
        assert removed == 0

    def test_queries_correct_after_deletes(self, rng):
        points = rng.uniform(size=(200, 2))
        tree = build_point_tree(points, max_entries=8)
        alive = set(range(200))
        for index in rng.permutation(200)[:120]:
            tree.delete(Rect.from_point(points[index]),
                        lambda item, i=int(index): item == i)
            alive.discard(int(index))
        query = np.array([0.5, 0.5])
        hits = sorted(item for _, item in tree.search_within(query, 0.25))
        brute = sorted(i for i in alive
                       if np.linalg.norm(points[i] - query) <= 0.25)
        assert hits == brute

    @pytest.mark.parametrize("survivors", [[], ["survivor"]],
                             ids=["every-entry", "one-survivor"])
    def test_multi_match_delete_that_empties_the_root(self, survivors):
        """One delete matching all five copies of a point in a two-level
        tree empties its root, which must become a leaf that the
        orphaned survivor, and the next insert, can go into."""
        point = np.array([0.5, 0.5])
        tree = build_point_tree(np.tile(point, (5, 1)), max_entries=4)
        for item in survivors:
            tree.insert_point(np.array([0.9, 0.1]), item)
        assert tree.height() == 2
        assert tree.delete(Rect.from_point(point), lambda item: True) == 5
        assert (tree.verify(), tree.height()) == ([], 1)
        tree.insert_point(point, "new")
        assert sorted(item for _, item in tree.items()) \
            == sorted(survivors + ["new"])

    @pytest.mark.parametrize("seed, min_fill", [(7, 0.4), (10, 0.1)],
                             ids=["subtree-taller-than-root",
                                  "lone-child-chain"])
    def test_deleting_every_copy_of_a_point(self, seed, min_fill):
        """Deleting every copy of a common point at once (seed 7)
        dissolves nodes above level 1 and then empties the root, so
        their subtrees must go back as leaf entries; with one-entry
        nodes allowed (seed 10) it leaves a root whose lone child has a
        lone child, and the root must collapse down both."""
        rng = np.random.default_rng(seed)
        point = np.array([0.5, 0.5])
        tree = RStarTree(2, max_entries=4, min_fill=min_fill)
        strays = []
        for index in range(80):
            if rng.uniform() < 0.1:
                tree.insert_point(rng.uniform(size=2), index)
                strays.append(index)
            else:
                tree.insert_point(point, index)
        assert tree.delete(Rect.from_point(point), lambda item: True) \
            == 80 - len(strays)
        assert tree.verify() == []
        root = tree.store.read(tree.root_id)
        assert root.is_leaf or len(root) > 1
        assert sorted(item for _, item in tree.items()) == strays

    def test_verify_reports_an_internal_root_with_no_entries(self):
        tree = RStarTree(2)
        root = tree.store.read(tree.root_id)
        root.level = 1
        assert tree.verify() == [
            f"internal node {root.page_id} has no entries"]


class TestReinsertAfterWalk:
    """Entries a forced reinsert evicts go back only after the walk
    that evicted them has adjusted its path, so no reinsert runs under
    an outer frame.  When they went back inside that walk, its splits
    could split the root the walk started from, or move a row out of a
    node an outer frame still edited: each seeded script below left a
    parent row that no longer matched its child."""

    @pytest.mark.parametrize("seed, operations", [(414, 62), (109, 214)],
                             ids=["root-split-below-walk", "row-moved"])
    def test_rows_match_children_after_every_operation(self, seed,
                                                       operations):
        rng = np.random.default_rng(seed)
        tree = RStarTree(3, max_entries=4)
        alive, key = {}, 0
        for _ in range(operations):
            if alive and rng.uniform() < 0.35:
                victim = int(rng.choice(list(alive)))
                tree.delete(alive.pop(victim),
                            lambda item, v=victim: item == (v, 0))
            else:
                low = rng.integers(0, 32, size=3) / 32
                alive[key] = Rect(low, low + rng.integers(0, 3, size=3) / 32) \
                    if rng.uniform() < 0.5 else Rect.from_point(low)
                tree.insert(alive[key], (key, 0))
                key += 1
            assert tree.verify() == []

    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([1, 3, 12]),
           max_entries=st.sampled_from([4, 5, 8]))
    @settings(max_examples=80, deadline=None)
    def test_random_scripts_keep_the_tree_exact(self, seed, dims,
                                                max_entries):
        """Point and box inserts and deletes on a coarse grid: the tree
        is sound after every operation and answers like the scan."""
        rng = np.random.default_rng(seed)
        tree = RStarTree(dims, max_entries=max_entries)
        alive: dict[int, Rect] = {}
        epsilon = 0.3 * np.sqrt(dims)
        for step in range(200):
            if alive and rng.uniform() < 0.35:
                key = int(rng.choice(list(alive)))
                assert tree.delete(alive.pop(key),
                                   lambda item, k=key: item == k) == 1
            else:
                low = rng.integers(0, 16, size=dims) / 16
                side = rng.integers(0, 3, size=dims) / 16 \
                    if rng.uniform() < 0.5 else 0.0
                alive[step] = Rect(low, low + side)
                tree.insert(alive[step], step)
            assert tree.verify() == [], step
            if step % 25 == 24:
                boxes = [(rect, key) for key, rect in alive.items()]
                probe = rng.uniform(size=dims)
                assert sorted(item for _, item in
                              tree.search_within(probe, epsilon)) \
                    == sorted(item for _, item in
                              oracle.within(boxes, probe, epsilon))


class TestFileBacked:
    def test_tree_over_file_store(self, rng, tmp_path):
        points = rng.uniform(size=(300, 3))
        with MmapPageStore(tmp_path / "tree.db") as store:
            tree = RStarTree(3, store=store, max_entries=8)
            for index, point in enumerate(points):
                tree.insert_point(point, (index, 0))
            tree.check_invariants()
            hits = sorted(item for _, item in
                          tree.search_within(points[0], 0.2))
            brute = sorted((i, 0) for i in range(300)
                           if np.linalg.norm(points[i] - points[0]) <= 0.2)
            assert hits == brute

    def test_reopen_via_state(self, rng, tmp_path):
        points = rng.uniform(size=(150, 2))
        path = tmp_path / "tree.db"
        store = MmapPageStore(path)
        tree = RStarTree(2, store=store, max_entries=8)
        for index, point in enumerate(points):
            tree.insert_point(point, (index, 0))
        state = tree.state()
        expected = sorted(item for _, item in
                          tree.search_within(points[3], 0.3))
        store.close()

        with MmapPageStore(path) as reopened_store:
            reopened = RStarTree.from_state(state, reopened_store)
            hits = sorted(item for _, item in
                          reopened.search_within(points[3], 0.3))
            assert hits == expected
            reopened.check_invariants()


class TestGoldenTree:
    """Insert, split, forced reinsert, delete/condense and STR packing
    write the pages of the committed golden tree, in the same order,
    and count the same work."""

    def test_replay_is_byte_identical(self, tmp_path):
        path = tmp_path / "replay.pages"
        tree = write_golden_tree(path)
        assert tree.counters.snapshot() == GOLDEN_TREE_COUNTERS
        assert path.read_bytes() == GOLDEN_TREE.read_bytes()

    def test_golden_tree_is_healthy(self):
        with MmapPageStore(GOLDEN_TREE, readonly=True) as store:
            tree = RStarTree.from_state(json.loads(store.metadata), store)
            assert tree.verify() == []
            assert len(tree) == 75


def golden_searches(path) -> list:
    """Every answer the tree in ``path`` gives to a fixed set of probes:
    its items, then ε-probes (both metrics), k-NN and box searches
    around a sample of its keys and of random points."""
    with MmapPageStore(path, readonly=True) as store:
        tree = RStarTree.from_state(json.loads(store.metadata), store)
        items = sorted((rect.lower.tobytes(), rect.upper.tobytes(), item)
                       for rect, item in tree.items())
        rng = np.random.default_rng(7)
        probes = [np.frombuffer(lower) for lower, _, _ in items[::5]]
        probes += list(rng.uniform(size=(10, tree.dimensions)))
        answers: list = [items]
        for point in probes:
            for metric in ("l2", "linf"):
                answers.append(tree.search_within(point, 0.9,
                                                  metric=metric))
            answers.append(tree.nearest(point, k=5))
            answers.append(sorted(tree.search(Rect(point - 0.3,
                                                   point + 0.3))))
        return answers


class TestTreeWrittenBy29:
    """2.9 stored every key twice; its files open unchanged and answer
    every search as the current layout does, before and after their
    first compaction."""

    def test_opens_healthy_and_checks_clean(self):
        with MmapPageStore(GOLDEN_TREE_2_9, readonly=True) as store:
            assert store.scan().ok
            tree = RStarTree.from_state(json.loads(store.metadata), store)
            assert tree.verify() == []
            assert len(tree) == 75

    def test_searches_equal_the_current_golden(self):
        assert golden_searches(GOLDEN_TREE_2_9) \
            == golden_searches(GOLDEN_TREE)

    def test_compaction_keeps_box_pages_and_answers(self, tmp_path):
        # Every live leaf of this tree holds a box key, so compaction
        # drops dead versions but re-encodes each live page at its
        # size (tests/core/test_database_api.py shows point leaves
        # shrinking).
        path = tmp_path / "regions.pages"
        shutil.copy(GOLDEN_TREE_2_9, path)
        with MmapPageStore(path) as store:
            sizes, saved = record_sizes(store), second_copy_bytes(store)
            store.compact()
            assert {page_id: sizes[page_id] - size for page_id, size
                    in record_sizes(store).items()} == saved
        assert set(saved.values()) == {0}
        assert golden_searches(path) == golden_searches(GOLDEN_TREE)
