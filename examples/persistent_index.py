"""Disk-resident index: the durable directory layout, plus updates.

The paper stores region signatures in a *disk-based* R*-tree so the
index scales past memory and survives restarts.  This example shows
the library's persistence story:

* ``WalrusDatabase.create(directory)`` — the managed on-disk layout: a
  checksummed, crash-safe page file for the R*-tree with the image
  catalog committed inside it.  ``checkpoint()`` commits, ``open()``
  reattaches, and the database doubles as a context manager (leaving
  the ``with`` block checkpoints and closes);
* a raw :class:`MmapPageStore` under an in-memory-managed database,
  for callers who want to own the file layout themselves;

plus incremental maintenance — adding and removing images after the
initial build, with queries staying consistent throughout.

Run: python examples/persistent_index.py
"""

from __future__ import annotations

import os
import tempfile

from repro import ExtractionParameters, QueryParameters, WalrusDatabase
from repro.datasets import render_scene
from repro.index import MmapPageStore

PARAMS = ExtractionParameters(window_min=16, window_max=64, stride=8)
EPSILON = QueryParameters(epsilon=0.085)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="walrus-index-")
    db_dir = os.path.join(workdir, "db")

    scenes = [render_scene(label, seed=seed, name=f"{label}-{seed}")
              for seed, label in enumerate(
                  ["flowers", "flowers", "sunset", "ocean", "forest",
                   "night_sky", "desert", "brick_wall"])]
    query = render_scene("flowers", seed=4242, name="query")

    print(f"creating a durable database in {db_dir}")
    with WalrusDatabase.create(db_dir, params=PARAMS) as database:
        # A fresh database packs the R*-tree with one STR bulk-load
        # pass.
        database.add_images(scenes)
        database.checkpoint()
        before = database.query(query, EPSILON).names()
        page_file = os.path.join(db_dir, WalrusDatabase.PAGE_FILE)
        print(f"  {len(database)} images, {database.region_count} regions; "
              f"page file is {os.path.getsize(page_file):,} bytes")
        print(f"  query before reopen:  {before[:4]}")
    # The with-block close() checkpointed and released the page store.

    print("\nreopening the directory")
    with WalrusDatabase.open(db_dir) as restored:
        after = restored.query(query, EPSILON).names()
        print(f"  query after reopen:   {after[:4]}")
        assert before == after, "reopen changed query results"

        print("\nincremental maintenance: add one image, remove another")
        restored.add_image(
            render_scene("flowers", seed=777, name="flowers-late"))
        restored.remove_image(0)  # drop the first flower scene
        names = restored.query(query, EPSILON).names()
        print(f"  query after update:   {names[:4]}")
        assert scenes[0].name not in names, "removed image still retrieved"
        restored.index.check_invariants()
        print("  index invariants hold after updates")

    print("\nbring-your-own page store (caller owns the file layout)")
    page_file = os.path.join(workdir, "custom.pages")
    store = MmapPageStore(page_file)
    database = WalrusDatabase.create(params=PARAMS, store=store)
    database.add_images(scenes)
    store.sync()
    custom = database.query(query, EPSILON).names()
    assert custom == after[: len(custom)] or custom, "query failed"
    print(f"  {database.region_count} regions in "
          f"{os.path.getsize(page_file):,} bytes")
    store.close()

    print(f"\nartifacts left in {workdir}")


if __name__ == "__main__":
    main()
