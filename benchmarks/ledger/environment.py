"""Where and when a run happened, and whether its numbers compare."""

from __future__ import annotations

import os
import platform
from typing import Any

import numpy as np


def _steal_ticks() -> int:
    """Cumulative ``steal`` of the ``cpu`` line of ``/proc/stat``."""
    try:
        with open("/proc/stat") as stream:
            fields = stream.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


class Watch:
    """Opened before set-up, finished after the last round."""

    def __init__(self, scale: float, seconds: float) -> None:
        self.scale = scale
        #: What the rounds were sized to take, and what they took.
        self.seconds = seconds
        self.rounds_seconds = 0.0
        self.load_at_start = os.getloadavg()[0]
        self.steal_at_start = _steal_ticks()

    def finish(self) -> dict[str, Any]:
        """The environment record.  A run started on a busy box, made
        at another scale or far slower than it was sized for is marked
        non-comparable, with the reasons."""
        cpus = os.cpu_count() or 1
        reasons = []
        if self.load_at_start > 0.5 * cpus:
            reasons.append(f"1-min load {self.load_at_start:.2f} at start "
                           f"> 0.5 x {cpus} cpus")
        if self.scale != 1.0:
            reasons.append(f"scale {self.scale:g} != 1")
        if self.rounds_seconds > 1.5 * self.seconds:
            reasons.append(f"the rounds took {self.rounds_seconds:.1f} s, "
                           f"sized for {self.seconds:g} s")
        return {
            "nproc": cpus,
            "python": platform.python_version(),
            "numpy": str(np.__version__),
            "load_1min_at_start": self.load_at_start,
            "steal_ticks": _steal_ticks() - self.steal_at_start,
            "scale": self.scale,
            "rounds_seconds": self.rounds_seconds,
            "comparable": not reasons,
            "non_comparable_because": reasons,
        }
