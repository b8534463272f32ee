"""``agree``: do two sets of runs of the same code agree?

Runs every workload twice in A, B, A, B order (so drift in the box
lands on both sets), each run the way the driver makes it — ``run.py``
in a process of its own — and prints, per (workload, metric) pair, the
two values, their relative difference and the bound.  Exits non-zero
when any pair differs by more than its bound or a run was incorrect.
The committed ``AGREE.txt`` is the output of consecutive invocations on
the reference box, breaches and all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any

from benchmarks.ledger.spec import END_TO_END, WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(name: str, options: dict[str, Any]) -> dict[str, Any] | None:
    """One untraced run; its result line, or ``None`` if it failed."""
    command = [sys.executable, RUN, "--workload", name, "--trace", "0"]
    for option in ("seed", "seconds", "scale"):
        command += [f"--{option}", str(options[option])]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"{name}: run failed (exit {completed.returncode})\n"
              f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
        return None
    result: dict[str, Any] = json.loads(lines[-1])
    return result


def main(options: dict[str, Any]) -> int:
    print(f"agree: seed {options['seed']}, started "
          f"{time.strftime('%Y-%m-%d %H:%M:%S')}")
    results: dict[str, list[dict[str, Any] | None]] = {
        name: [] for name in WORKLOADS}
    for _ in "AB":
        for name in WORKLOADS:
            results[name].append(run_once(name, options))
    breaches = 0
    print(f"{'workload':12s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'diff':>7s} {'bound':>6s}")
    for name, (first, second) in results.items():
        if first is None or second is None:
            breaches += 1
            continue
        for metric in END_TO_END:
            a = first["metrics"][metric.name]["value"]
            b = second["metrics"][metric.name]["value"]
            difference = abs(a - b) / min(a, b)
            assert metric.bound is not None
            breach = difference > metric.bound
            breaches += breach
            print(f"{name:12s} {metric.name:22s} {a:12.4f} {b:12.4f} "
                  f"{difference:7.2%} {metric.bound:6.0%}"
                  f"{'  BREACH' if breach else ''}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
