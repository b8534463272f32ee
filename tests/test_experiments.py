"""The paper's Section 6 at ``--quick`` scale, checked in process.

``benchmarks/experiments.py`` regenerates every table of EXPERIMENTS.md.
Apart from its timing columns each table is deterministic under the
fixed seeds, so this runs every experiment that is not a timing sweep
(Fig. 6(a)/(b) are nothing but wall-clock) and compares its
deterministic cells, facts and shape checks with the committed payload
``tests/fixtures/experiments_quick.json``.  A change that trades recall
for speed, or breaks an experiment outright, fails here.  Regenerate
the payload on purpose with::

    PYTHONPATH=src python -m benchmarks.experiments --quick \\
        --json tests/fixtures/experiments_quick.json
"""

from __future__ import annotations

import json
import os
from typing import Callable

import pytest

from benchmarks.experiments import (EXPERIMENTS, QUICK, Lab, Outcome,
                                    deterministic)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "experiments_quick.json")
TIMING_SWEEPS = ("fig6a", "fig6b")
IDS = [experiment_id for experiment_id in EXPERIMENTS
       if experiment_id not in TIMING_SWEEPS]


@pytest.fixture(scope="module")
def outcome() -> Callable[[str], Outcome]:
    """Runs an experiment on first use; every experiment shares one
    :class:`Lab`, so each collection and database is built once."""
    lab = Lab()
    done: dict[str, Outcome] = {}

    def run(experiment_id: str) -> Outcome:
        if experiment_id not in done:
            done[experiment_id] = EXPERIMENTS[experiment_id](lab, QUICK)
        return done[experiment_id]

    return run


@pytest.fixture(scope="module")
def committed() -> dict[str, dict]:
    with open(FIXTURE, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scale"] == "quick"
    return payload["experiments"]


@pytest.mark.parametrize("experiment_id", IDS)
def test_deterministic_cells_match_the_committed_payload(
        outcome, committed, experiment_id):
    # A JSON round trip first, so tuples and lists compare alike.
    fresh = json.loads(json.dumps(outcome(experiment_id).to_json()))
    assert deterministic(fresh) == deterministic(committed[experiment_id])


@pytest.mark.parametrize("experiment_id", IDS)
def test_deterministic_shape_checks_hold(outcome, experiment_id):
    # Table 1's selectivity, Section 6.6's region counts, WALRUS over
    # WBIIS on flowers, robustness, RGB >= YCC, same-texture region
    # pairs and greedy <= exact <= quick.  Timing checks depend on the
    # machine and are only printed.
    result = outcome(experiment_id)
    failed = [name for name, ok in result.checks.items()
              if not ok and name not in result.timing]
    assert not failed, result.rows


def test_the_matching_order_is_checked_on_real_candidates(outcome):
    # The order checks above are vacuous without candidates that the
    # exact matcher solved and on which the one-to-one constraint bites.
    result = outcome("abl-match")
    assert result.facts["solved exactly"] >= 5
    assert any(row[2] != row[3] for row in result.rows)


def test_every_design_id_is_registered():
    assert list(EXPERIMENTS) == [
        "fig6a", "fig6b", "fig7/fig8", "table1", "sec6.6", "robustness",
        "region-quality", "abl-match", "abl-sig", "abl-window",
        "abl-color", "abl-ext", "scaling"]
