"""``query`` / ``query_batch`` against the brute-force scan of
``tests/oracle.py``, across the life of an on-disk database.

The probe sends all of a query's regions down the R*-tree in one walk
and files the results through two caches; the scan does neither, so a
dropped or invented pair, a stale cache entry or a mis-filed batch row
ends in a different pair set or ranking.
"""

from __future__ import annotations

import pytest

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets import DatasetSpec, generate_dataset
from repro.exceptions import DeadlineExceededError
from tests import oracle
from tests.conftest import ticking_deadline


@pytest.fixture(scope="module")
def images():
    return generate_dataset(DatasetSpec(images_per_class=2, seed=26)).images


def ranking(result) -> list[tuple[int, float]]:
    return [(match.image_id, match.similarity) for match in result.matches]


def assert_equals_oracle(database: WalrusDatabase, queries, metric) -> None:
    catalog = {image_id: record.regions
               for image_id, record in database.images.items()}
    assert database.index.verify() == []
    for refine_epsilon in (None, 0.3):
        qp = QueryParameters(metric=metric, refine_epsilon=refine_epsilon)
        expected = []
        for image in queries:
            regions, _ = database._query_regions(image)
            expected.append(oracle.answer(catalog, regions, qp))
            pairs, counts = database._probe(regions, qp)
            assert sorted((q_index, image_id, t_index)
                          for image_id, found in pairs.items()
                          for q_index, t_index in found) \
                == expected[-1]["pairs"]
            assert counts.pairs_probed - counts.pairs_refined_out \
                == len(expected[-1]["pairs"])
            assert ranking(database.query(image, qp)) \
                == expected[-1]["ranked"]
        assert any(answer["pairs"] for answer in expected)
        batch = database.query_batch(list(queries) + [queries[0]], qp)
        assert [ranking(result) for result in batch] \
            == [answer["ranked"] for answer in expected + expected[:1]]


@pytest.mark.parametrize("probe_cache", [None, 0], ids=["cache", "nocache"])
@pytest.mark.parametrize("metric", ["l2", "linf"])
@pytest.mark.parametrize("mode", ["centroid", "bbox"])
def test_queries_equal_scan_across_database_life(mode, metric, probe_cache,
                                                 images, tmp_path):
    params = ExtractionParameters(window_min=16, window_max=32, stride=8,
                                  signature_mode=mode,
                                  refine_signature_size=4)
    queries = [images[-1], images[-2], images[0]]
    path = str(tmp_path / "db")
    database = WalrusDatabase.create(path, params=params, max_entries=8,
                                     probe_cache=probe_cache)
    database.add_images(images[:10], bulk=True)           # STR rebuild_bulk
    assert_equals_oracle(database, queries, metric)
    for image in images[10:16]:                           # inserts, reinserts
        database.add_image(image)
    assert database.index.counters.reinsert_ops > 0
    assert_equals_oracle(database, queries, metric)
    for image_id in (0, 7, 12):
        database.remove_image(image_id)
    assert_equals_oracle(database, queries, metric)
    database.checkpoint()
    database.index.store.compact()
    assert_equals_oracle(database, queries, metric)
    database.close()
    with WalrusDatabase.open(path, readonly=True) as reopened:
        assert_equals_oracle(reopened, queries, metric)


def test_probe_cut_short_by_a_deadline_leaves_no_half_answer(images):
    """The batched probe files its result lists before the walk fills
    them; a walk that dies must not leave the empty ones behind."""
    params = ExtractionParameters(window_min=16, window_max=32, stride=8)
    database = WalrusDatabase.create(params=params, max_entries=8)
    database.add_images(images[:12])
    query = images[0]
    regions, _ = database._query_regions(query)   # extraction now cached
    # One check after extract, one per region, then one per node read:
    # expire on the third node.
    with pytest.raises(DeadlineExceededError) as cut:
        database.query(query, deadline=ticking_deadline(1 + len(regions) + 2))
    assert cut.value.context == "rstar.search"
    catalog = {image_id: record.regions
               for image_id, record in database.images.items()}
    expected = oracle.answer(catalog, regions, QueryParameters())
    assert expected["ranked"]
    assert ranking(database.query(query)) == expected["ranked"]
