"""Check the result line of a benchmark smoke run.

Reads the last line ``perfbench/run.py`` prints, either one workload's
result or the table of every workload's result, and exits non-zero naming
each workload that is not correct or has a failed operation:

    tail -n 1 bench.out | python3 .github/check_bench.py LABEL

LABEL names a single workload's result in that message.
"""

import json
import sys

result = json.load(sys.stdin)
table = {sys.argv[1]: result} if "correct" in result else result
bad = [name for name, r in table.items() if not r["correct"] or r["failed"]]
sys.exit(f"not correct or with failed operations: {bad}" if bad else 0)
