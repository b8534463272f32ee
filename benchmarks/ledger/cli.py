"""Command line of the ledger: ``run`` one workload, ``all`` four, or
``agree`` (two interleaved sets of runs held to the bounds)."""

from __future__ import annotations

import argparse
import json
from typing import Sequence

from benchmarks.ledger import agree, driver
from benchmarks.ledger.spec import (DEFAULT_SEED, END_TO_END, PER_LAYER,
                                    WORKLOADS, LedgerError)

ARROWS = {"higher": "↑", "lower": "↓"}


def print_report(report: driver.Report) -> None:
    """Every metric by name with unit, direction and bound, the
    deterministic counts, the environment, and the contract's result
    line last."""
    mode = "traced" if report.trace else "untraced"
    table = PER_LAYER if report.trace else END_TO_END
    print(f"== {report.workload}  seed={report.seed} scale={report.scale:g} "
          f"rounds={report.rounds} ({mode}) ==")
    for metric in table:
        bound = (f"  bound {metric.bound:.1%}" if metric.bound is not None
                 else "")
        print(f"{metric.name:42s} {report.metrics[metric.name]:14.4f} "
              f"{metric.unit:6s} {ARROWS[metric.better]}{bound}")
    print(f"ops_attempted={report.attempted} ops_failed={report.failed}")
    print("counts (identical in every round): "
          + " ".join(f"{key}={value}"
                     for key, value in sorted(report.counts.items())))
    print("environment: " + json.dumps(report.environment))
    if not report.environment["comparable"]:
        print("NON-COMPARABLE RUN: "
              + "; ".join(report.environment["non_comparable_because"]))
    for problem in report.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {metric.name: {"value": report.metrics[metric.name],
                                  "unit": metric.unit}
                    for metric in table},
    }))


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "all", "agree"):
        command = commands.add_parser(name)
        if name == "run":
            command.add_argument("--workload", required=True,
                                 choices=sorted(WORKLOADS))
        command.add_argument("--seed", type=int, default=DEFAULT_SEED)
        command.add_argument("--seconds", type=float, default=20.0,
                             help="what the rounds are sized to take; a "
                                  "run half as slow again is marked "
                                  "non-comparable")
        command.add_argument("--trace", type=int, choices=(0, 1), default=0)
        command.add_argument("--scale", type=float, default=1.0,
                             help="shrink or grow every size (runs at "
                                  "another scale are non-comparable)")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    options = dict(seed=args.seed, seconds=args.seconds,
                   trace=bool(args.trace), scale=args.scale)
    try:
        if args.command == "agree":
            return agree.main(options)
        names = ([args.workload] if args.command == "run"
                 else list(WORKLOADS))
        status = 0
        for name in names:
            report = driver.run_workload(name, **options)
            print_report(report)
            if not report.correct:
                status = 1
        return status
    except LedgerError as error:
        print(f"ledger: {error}")
        return 1
