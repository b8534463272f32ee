"""One fresh process per build and per round (R2).

``python -m benchmarks.ledger.worker JOB.json`` runs the script the job
names and writes what it measured next to the job file.  The driver
starts workers strictly one at a time.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import asdict
from typing import Any

from benchmarks.ledger import tracing
from benchmarks.ledger.scripts import SCRIPTS, Job, Round, peak_rss_kb
from benchmarks.ledger.spec import Sizes


def run_job(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one job description; returns the JSON-ready result."""
    round_ = Round()
    job = Job(script=spec["script"], workdir=spec["workdir"],
              round_index=spec["round"], sizes=Sizes(**spec["sizes"]))
    uninstall = None
    if spec["trace"]:
        job.recorder = tracing.Recorder(lambda: round_.phase)
        uninstall = tracing.install(job.recorder)
    started = time.perf_counter()
    try:
        SCRIPTS[job.script](job, round_)
    finally:
        if uninstall is not None:
            uninstall()
    result = asdict(round_)
    del result["phase"]
    result["wall_s"] = time.perf_counter() - started
    result["rss_kb"] = peak_rss_kb()
    result["spans"] = job.recorder.spans if job.recorder else []
    return result


def main(argv: list[str]) -> int:
    job_path = argv[0]
    with open(job_path) as stream:
        spec = json.load(stream)
    try:
        result = run_job(spec)
    except Exception:  # the boundary: report, then fail the run
        result = {"error": traceback.format_exc()}
    with open(spec["out"], "w") as stream:
        json.dump(result, stream)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
