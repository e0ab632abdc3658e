"""Check one benchmark smoke run: read the output of ``bench/run.py`` on
stdin, print the last line's ``correct``, ``attempted`` and ``failed``,
and exit 1 unless it is correct with no failed operation. A last line
that is not such a result (or no output at all) is reported in one line,
with the line read, and exits 1.

An optional argument is the expected ``outcome_digest``: the run then also
exits 1 unless the details line before the result line carries it.

    python3 bench/run.py --workload check-ast --seed 1 --seconds 1 --trace 0 \\
        | python3 .github/check_smoke.py 11e1f9170b8908e9
"""

import json
import sys

expected_digest = sys.argv[1] if len(sys.argv) > 1 else None
lines = sys.stdin.read().splitlines()
last = lines[-1] if lines else ""
try:
    result = json.loads(last)
    correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
except (ValueError, KeyError, TypeError) as exc:
    print(f"no result line from bench/run.py ({type(exc).__name__}: {exc}); last line read: {last!r}")
    sys.exit(1)
print(correct, attempted, failed)
ok = correct is True and failed == 0
if expected_digest is not None:
    details = lines[-2] if len(lines) > 1 else ""
    try:
        digest = json.loads(details)["outcome_digest"]
    except (ValueError, KeyError, TypeError) as exc:
        print(f"no outcome_digest in the details line ({type(exc).__name__}: {exc}); line read: {details!r}")
        sys.exit(1)
    print("outcome_digest", digest, "expected", expected_digest)
    ok = ok and digest == expected_digest
sys.exit(0 if ok else 1)
