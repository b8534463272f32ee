"""Definition 4.3 is symmetric in Q and T, through the whole database.

``tests/core/test_matching_properties.py::TestSymmetry`` holds the bare
matchers to it.  Here the query goes through an on-disk database that
was closed and reopened, so the target's rows come from its row record
and quick matching ORs the catalog's packed rows: with point
signatures and the l2 metric the epsilon test is symmetric, and image A
queried against a database holding only B must score bit for bit what
B scores against a database holding only A.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import SCENE_CLASSES, render_scene

PARAMS = ExtractionParameters(window_min=8, window_max=16, stride=4,
                              signature_mode="centroid")
SIZES = [(48, 48), (48, 64), (64, 48)]

images = st.builds(
    lambda label, seed, size: render_scene(label, seed=seed, size=size,
                                           name=f"{label}-{seed}"),
    st.sampled_from(sorted(SCENE_CLASSES)), st.integers(0, 10_000),
    st.sampled_from(SIZES))


def similarities(query, target, epsilon: float) -> list[float]:
    """What ``query`` scores against a reopened database of ``target``
    alone."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "db")
        with WalrusDatabase.create(path, params=PARAMS) as database:
            database.add_image(target)
        with WalrusDatabase.open(path, readonly=True) as database:
            result = database.query(query, QueryParameters(
                epsilon=epsilon, tau=0.0, metric="l2", area_mode="both",
                matching="quick"))
    return [match.similarity for match in result]


@given(first=images, second=images,
       epsilon=st.sampled_from([0.05, 0.08, 0.1, 0.15]))
@settings(max_examples=25, deadline=None)
def test_reopened_database_scores_symmetrically(first, second, epsilon):
    forward = similarities(first, second, epsilon)
    assert forward == similarities(second, first, epsilon)


def test_symmetry_is_checked_on_partial_cover():
    """Images of one class at epsilon 0.05 match on part of each image:
    the property above is not only ever comparing 1.0 with 1.0."""
    first = render_scene("flowers", seed=1, size=(48, 64))
    second = render_scene("flowers", seed=2, size=(64, 48))
    forward = similarities(first, second, 0.05)
    assert len(forward) == 1 and 0 < forward[0] < 1
    assert forward == similarities(second, first, 0.05)
