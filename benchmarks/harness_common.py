"""Shared plumbing for ``experiments.py`` and the ledger: the
retrieval extraction settings, a one-shot timer and the plain
fixed-width table printer the paper's tables are reproduced in.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.parameters import ExtractionParameters

#: Retrieval-experiment extraction parameters: Section 6.4's settings
#: with multi-scale 16..64 windows (see DESIGN.md, substitution notes).
RETRIEVAL_PARAMS = ExtractionParameters(window_min=16, window_max=64,
                                        stride=8, cluster_threshold=0.05,
                                        color_space="ycc")


def timed(function: Callable, *args: object,
          **kwargs: object) -> tuple[float, object]:
    """Run ``function`` once; return ``(elapsed_seconds, result)``."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - started, result


def print_table(headers: list[str], rows: list[list], *,
                title: str = "") -> None:
    """Fixed-width table printer (matches the paper's plain tables)."""
    if title:
        print(f"\n== {title} ==")
    widths = [max(len(str(headers[i])),
                  max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(headers))]
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i])
                        for i, cell in enumerate(row)))
