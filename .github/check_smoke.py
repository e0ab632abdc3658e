"""Check one benchmark smoke run: read the output of ``bench/run.py`` on
stdin, print the last line's ``correct``, ``attempted`` and ``failed``,
and exit 1 unless it is correct with no failed operation.

    python3 bench/run.py --workload check-ast --seed 1 --seconds 1 --trace 0 \\
        | python3 .github/check_smoke.py
"""

import json
import sys

result = json.loads(sys.stdin.read().splitlines()[-1])
print(result["correct"], result["attempted"], result["failed"])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
