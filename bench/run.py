"""Closed-loop benchmark of the refax command: one client, in-process.

Run from the repository root:

    python3 bench/run.py --workload joos-wide --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` (``workloads.py``) and written to
``.bench_run/``; refax sees only those files, through
``refax.cli.main(argv)``. The next request is sent only when the previous
one has returned. Every outcome is checked (``oracle.py``). With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the traced pipeline of ``traced.py`` and reports the per-layer
metrics. The last line of standard output is the result as JSON; the
line before it holds the details (tail percentile, refusals, digests).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from time import perf_counter

from harness import SRC, Session, load_refax, spawn
from workloads import WORKLOADS

SETUP_SPAWNS = 7
TAIL_BEYOND = 10
MIN_SAMPLES = 2 * TAIL_BEYOND + 1  # the tail then sits at or above the median
_SPAWN_MAIN = ("import sys; sys.path.insert(0, {src!r}); from refax.cli import main; "
               "sys.exit(main(sys.argv[1:]))")


def setup_seconds(session: Session, req) -> tuple[float, list[float]]:
    """Median wall time from spawning a fresh interpreter to the end of one
    tiny request: interpreter start, ``import refax.cli``, the lazily built
    slot tables and the request itself."""
    code = _SPAWN_MAIN.format(src=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        proc = spawn(["-c", code, *session.argv(req)])
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            session.failures.append(f"set-up request exited {proc.returncode}: {proc.stderr[-300:]}")
    return statistics.median(times), times


def cycles(workload, seconds: float) -> int:
    """Whole cycles for a run of ``seconds``: a fixed count, not a time
    limit, so that every run has the same requests and sample count and
    the median and tail are the same order statistics."""
    wanted = max(1, round(seconds / workload.cycle_seconds))
    return max(wanted, math.ceil(MIN_SAMPLES / len(workload.cycle)))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def run_untraced(session: Session, seconds: float) -> tuple[dict, dict, int, int]:
    workload = session.workload
    setup, setup_times = setup_seconds(session, workload.tiny[0])
    for req in workload.tiny:  # warm-up: lazy tables, first imports
        session.check(req, session.call(req))
    warm_failures = len(session.failures)
    latencies: list[float] = []
    by_label: dict[str, list[float]] = {}
    nodes = failed = 0
    busy = 0.0
    for _ in range(cycles(workload, seconds)):
        for req in workload.cycle:
            out = session.call(req)
            failed += not session.check(req, out)
            latencies.append(out.seconds)
            by_label.setdefault(f"{req.lang}-{req.label}", []).append(out.seconds)
            busy += out.seconds
            nodes += session.nodes(req)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    value, percentile, beyond = tail(latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "nodes_per_s": (nodes / busy, "nodes/s"),
        "ok_ratio": ((len(latencies) - failed) / len(latencies), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup, "s"),
    }
    detail = {
        "samples": len(latencies),
        "busy_s": round(busy, 3),
        "tail_percentile": round(percentile, 1),
        "tail_samples_beyond": beyond,
        "failed_ratio": failed / len(latencies),
        "p50_ms_by_label": {k: round(statistics.median(v) * 1e3, 1) for k, v in sorted(by_label.items())},
        "setup_spawns_s": [round(t, 4) for t in setup_times],
        "warmup_failures": warm_failures,
    }
    return metrics, detail, len(latencies), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_refax()
    build = WORKLOADS[args.workload]
    workload = build(args.seed)
    session = Session(workload)
    try:
        if build(args.seed) != workload:
            session.failures.append("the generator is not deterministic for this seed")
        if args.trace:
            import traced

            metrics, detail, attempted, failed = traced.run(session, args.seed)
        else:
            metrics, detail, attempted, failed = run_untraced(session, args.seconds)
    finally:
        session.close()
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "refusals": dict(sorted(session.refusals.items())),
        "field_read": session.field_read,
        "inputs": session.counts(),
        "input_digest": session.input_digest(),
        "outcome_digest": session.outcome_digest(workload.cycle),
        "failures": session.failures[:20],
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not session.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
