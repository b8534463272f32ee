"""The ledger's fixed vocabulary: rules, metric names and workload sizes.

The metric tables and the workloads' reasons are read from
``BENCHMARK.json`` at the repository root, the contract the driver
reads, so the two cannot drift apart; the sizes live here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from benchmarks.harness_common import RETRIEVAL_PARAMS
from repro.core.parameters import QueryParameters

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Set-up repetitions; ``setup_s`` is their median.
BUILDS = 3

DEFAULT_SEED = 1999

#: The extraction settings of the ``run_*.py`` harnesses and of
#: ``tools/bench/history.py`` (Section 6.4, multi-scale 16..64 windows).
WORKLOAD_PARAMS = RETRIEVAL_PARAMS

#: Every query of every workload: the paper's epsilon, quick matching.
QUERY_PARAMS = QueryParameters()


class LedgerError(Exception):
    """A run that cannot produce a trustworthy ledger row."""


class PhaseMixError(LedgerError):
    """R3 — a phase meant to be all cache misses (or all hits) was not."""


@dataclass(frozen=True)
class Metric:
    """One named number: its unit, its good direction and, for an
    end-to-end metric, the share by which it may worsen."""

    name: str
    unit: str
    better: str
    bound: float | None = None


with open(os.path.join(ROOT, "BENCHMARK.json")) as _stream:
    _CONTRACT = json.load(_stream)

#: Emitted by every workload with ``--trace 0``.  What each name means
#: is the first table of README.md; where the bounds come from is its
#: "Noise" section.
END_TO_END = tuple(Metric(**entry) for entry in _CONTRACT["end_to_end"])

#: Emitted by every workload with ``--trace 1``; a layer a workload
#: never enters reads 0 there.
PER_LAYER = tuple(Metric(**entry) for entry in _CONTRACT["per_layer"])

#: Timed end-to-end metrics: those with a ``ledger.noise_ratio.*`` twin.
TIMED = tuple(metric.name.removeprefix("ledger.noise_ratio.")
              for metric in PER_LAYER
              if metric.name.startswith("ledger.noise_ratio."))

@dataclass(frozen=True)
class Sizes:
    """How many rounds a workload runs and how much work one of them
    does at ``--scale 1``.  A field a workload does not use stays 0.

    R1 — the script runs ``rounds`` times from an identical starting
    state and an operation's latency is its minimum over the rounds.
    The count is fixed, so that a slow spell cannot buy a run fewer
    rounds (and higher minima) than a quiet one; it is as high as the
    workload's fixed cost per round lets ``run_seconds`` hold.
    """

    rounds: int
    images: int
    #: The fixture database: ``images`` are bulk-loaded and more of the
    #: ``pool`` added one by one until it holds ``regions`` regions.  A
    #: probe's cost grows with the regions it finds, and the seeds'
    #: collections differ by +-8 % in regions per image: with a fixed
    #: image count ``queries_per_s`` moved by 12 % from seed to seed,
    #: as much as the box's noise.
    pool: int = 0
    regions: int = 0
    #: Images per database of an ingest lap, and of how many of the
    #: collection's images the lap is made when it is not the workload's
    #: own work (``cold_query``, ``serve``).
    shard: int = 0
    filler: int = 0
    checkpoints: int = 0
    shard_opens: int = 0
    opens: int = 0
    cold: int = 0
    warm_images: int = 0
    warm_laps: int = 0
    hot_requests: int = 0
    steps: int = 0
    adds_per_step: int = 0
    removes_per_step: int = 0
    cold_per_step: int = 0

    def scaled(self, scale: float) -> "Sizes":
        """The same script with its repetition counts multiplied by
        ``scale``.  A count in use keeps a floor of 2 (the cold set
        keeps enough images to draw the warm set from)."""
        def count(value: int, floor: int = 2) -> int:
            return max(floor, round(value * scale)) if value else 0
        return replace(
            self,
            rounds=count(self.rounds),
            images=10 * max(1, round(self.images / 10 * scale)),
            pool=10 * max(1, round(self.pool / 10 * scale)) if self.pool else 0,
            regions=round(self.regions * scale),
            checkpoints=count(self.checkpoints),
            shard_opens=count(self.shard_opens),
            opens=count(self.opens),
            cold=count(self.cold, self.warm_images),
            warm_laps=count(self.warm_laps),
            hot_requests=count(self.hot_requests, 8),
            steps=count(self.steps),
        )


#: ``--scale 1`` sizes of the workloads ``BENCHMARK.json`` names.
WORKLOADS = {
    "bulk_ingest": Sizes(rounds=10, images=60, shard=20, checkpoints=3,
                         shard_opens=3, cold=3, warm_images=1, warm_laps=12),
    "cold_query": Sizes(rounds=9, images=80, pool=120, regions=1800,
                        shard=5, filler=20, opens=6, cold=12, warm_images=4,
                        warm_laps=12),
    "serve": Sizes(rounds=6, images=80, pool=120, regions=1800, shard=5,
                   filler=20, opens=6, cold=10, warm_images=4,
                   hot_requests=60),
    "churn": Sizes(rounds=7, images=80, pool=120, regions=1800, shard=5,
                   filler=20, opens=6, warm_images=4, warm_laps=12, steps=3,
                   adds_per_step=5, removes_per_step=2, cold_per_step=4),
}

if list(WORKLOADS) != [entry["name"] for entry in _CONTRACT["workloads"]]:
    raise LedgerError("BENCHMARK.json and spec.WORKLOADS name different "
                      "workloads")
