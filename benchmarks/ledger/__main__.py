"""``python -m benchmarks.ledger {run,all,agree} ...``"""

import sys

from benchmarks.ledger import cli

sys.exit(cli.main(sys.argv[1:]))
