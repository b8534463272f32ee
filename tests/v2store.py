"""Test-only writer for the legacy v2 page format.

2.0 reads v2 page files only inside ``walrus migrate`` and writes
them nowhere.  The tests that need a v2 input (migration, the
cross-version open errors) — or a file-backed store for pages that are
not R*-tree nodes (the GiST) — build one with this subclass, which
puts the two pickle encode hooks 1.x had back on the read-only
decoder.
"""

from __future__ import annotations

import pickle

from repro.index.storage import FilePageStore, PageFileBase


class WritableV2PageStore(FilePageStore):
    """:class:`FilePageStore` as 1.x shipped it: writable."""

    def __init__(self, path, buffer_pages=256, *, readonly=False):
        # Skip the decoder's "v2 is read-only" gate.
        PageFileBase.__init__(self, path, buffer_pages, readonly=readonly)

    def _encode_page(self, page_id, page):
        return pickle.dumps(page, protocol=pickle.HIGHEST_PROTOCOL)

    def _encode_table(self):
        return self._stamp_table(
            pickle.dumps(self._offsets, protocol=pickle.HIGHEST_PROTOCOL))
