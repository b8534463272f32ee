"""Entry point named by ``BENCHMARK.json``.

    python3 benchmarks/ledger/run.py --workload cold_query --seed 7 \
        --seconds 20 --trace 0

Runs one workload once, prints its ledger rows and, as the last line, a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without a result line when the program it
measures is not there, when a round fails, or when an answer is wrong.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"ledger: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.ledger import cli
    return cli.main(["run", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
