"""Check one benchmark smoke run: read the output of ``bench/run.py`` on
stdin, print the last line's ``correct``, ``attempted`` and ``failed``,
and exit 1 unless it is correct with no failed operation. A last line
that is not such a result (or no output at all) is reported in one line,
with the line read, and exits 1.

    python3 bench/run.py --workload check-ast --seed 1 --seconds 1 --trace 0 \\
        | python3 .github/check_smoke.py
"""

import json
import sys

lines = sys.stdin.read().splitlines()
last = lines[-1] if lines else ""
try:
    result = json.loads(last)
    correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
except (ValueError, KeyError, TypeError) as exc:
    print(f"no result line from bench/run.py ({type(exc).__name__}: {exc}); last line read: {last!r}")
    sys.exit(1)
print(correct, attempted, failed)
sys.exit(0 if correct is True and failed == 0 else 1)
