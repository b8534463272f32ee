"""Quickstart: index a handful of images and run a region query.

Demonstrates the three core calls of the public API:

1. ``WalrusDatabase.create(params=ExtractionParameters(...))`` —
   configure the pipeline (color space, window range, clustering
   threshold).  ``create()`` with no path keeps the index in memory;
   ``create("some/dir")`` makes it durable.
2. ``database.add_images([...])`` — decompose each image into regions
   and index their wavelet signatures in the R*-tree (the batch's
   images are clustered in lockstep, and a fresh database is packed in
   one STR bulk-load pass).
3. ``database.query(image, QueryParameters(...))`` — decompose the
   query the same way and rank database images by the fraction of area
   covered by matching regions (the paper's Definition 4.3).

Run: python examples/quickstart.py
"""

from __future__ import annotations

from repro import ExtractionParameters, QueryParameters, WalrusDatabase
from repro.datasets import render_scene


def main() -> None:
    # Multi-scale windows (Section 5.1); everything else is the paper's
    # Section 6.4 setting (YCC, 2x2 signatures, eps_c = 0.05).
    params = ExtractionParameters(window_min=16, window_max=64, stride=8)
    database = WalrusDatabase.create(params=params)

    print("indexing 10 synthetic scenes ...")
    scenes = [
        render_scene("flowers", seed=1, name="flowers-a"),
        render_scene("flowers", seed=2, name="flowers-b"),
        render_scene("sunset", seed=3, name="sunset-a"),
        render_scene("sunset", seed=4, name="sunset-b"),
        render_scene("ocean", seed=5, name="ocean-a"),
        render_scene("brick_wall", seed=6, name="bricks-a"),
        render_scene("dog_lawn", seed=7, name="dog-a"),
        render_scene("night_sky", seed=8, name="night-a"),
        render_scene("forest", seed=9, name="forest-a"),
        render_scene("desert", seed=10, name="desert-a"),
    ]
    database.add_images(scenes)
    print(f"  {len(database)} images, {database.region_count} regions "
          f"in the index\n")

    query = render_scene("flowers", seed=99, name="my-query")
    print(f"querying with a held-out flower scene "
          f"({query.height}x{query.width}) ...")
    result = database.query(query, QueryParameters(epsilon=0.085))

    stats = result.stats
    print(f"  {stats.query_regions} query regions, "
          f"{stats.regions_retrieved} matching regions, "
          f"{stats.candidate_images} candidate images, "
          f"{stats.elapsed_seconds:.2f}s\n")
    print("ranked matches (Definition 4.3 similarity):")
    for rank, match in enumerate(result, start=1):
        print(f"  {rank}. {match.name:12s} {match.similarity:.3f}")

    best = result.matches[0]
    assert best.name.startswith("flowers"), "expected a flower scene first"
    print("\nthe flower scenes rank first despite their flowers sitting "
          "at different positions and sizes — the behaviour a single "
          "whole-image signature cannot deliver.")


if __name__ == "__main__":
    main()
