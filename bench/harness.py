"""Shared pieces of the benchmark: locating the checkout's refax, the
work directory of one run, calling ``main`` in-process, and judging and
fingerprinting outcomes."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SPAWN_TIMEOUT = 120


def load_refax() -> None:
    """Put this checkout's sources first on the path and refuse to measure
    any other copy of refax."""
    if not (SRC / "refax" / "cli.py").is_file():
        sys.exit("bench: refax sources not found under src/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import refax

    if Path(refax.__file__).resolve().parent != (SRC / "refax").resolve():
        sys.exit(f"bench: imported refax from {refax.__file__}, not from src/")


def tree_size(t) -> tuple[int, int]:
    """(nodes, depth) of a term, the root at depth 1."""
    nodes, depth, stack = 0, 0, [(t, 1)]
    while stack:
        t, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in t.children())
    return nodes, depth


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


class Session:
    """One run's work directory, its inputs, and the first outcome seen
    for each distinct request (checked once, then compared byte for byte)."""

    def __init__(self, workload) -> None:
        from oracle import Input, minilet_value
        from refax import joos, minilet

        self.workload = workload
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out_path = self.dir / "out"
        self.inputs: dict[str, Input] = {}
        self.decl_nodes: dict[str, int] = {}
        for name, text in workload.files.items():
            (self.dir / name).write_text(text, encoding="utf-8")
            if name.endswith(".joos"):
                program = joos.parse_program(text)
                methods = sum(len(c.methods.methods) for c in program.classes)
                self.inputs[name] = Input(text, *tree_size(program), methods, None)
            elif name.endswith(".mlt"):
                program = minilet.parse_program(text)
                self.inputs[name] = Input(text, *tree_size(program), 0, minilet_value(text))
            else:
                parse = joos.parse_method if name.endswith(".jdecl") else minilet.parse_fundef
                self.decl_nodes[name] = tree_size(parse(text))[0]
        self.first: dict = {}
        self.failures: list[str] = []
        self.refusals: Counter[str] = Counter()
        self.field_read: str = ""

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    def argv(self, req) -> list[str]:
        argv = [req.command, "--lang", req.lang, "--file", str(self.dir / req.file)]
        if req.focus:
            argv += ["--focus", req.focus]
        if req.command == "extract":
            argv += ["--name", req.name]
        if req.cls:
            argv += ["--class", req.cls]
        if req.decl:
            argv += ["--decl", str(self.dir / req.decl)]
        if req.command in ("extract", "introduce"):
            argv += ["--output", str(self.out_path)]
        return argv

    def nodes(self, req) -> int:
        return self.inputs[req.file].nodes + self.decl_nodes.get(req.decl, 0)

    def call(self, req):
        """Run one request through ``main``; only ``main`` is timed."""
        from oracle import Outcome
        from refax.cli import main

        argv = self.argv(req)
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # as the console script would exit
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # a traceback escaping main is a failed request
                code, error = None, traceback.format_exc()
            seconds = perf_counter() - start
        output = self.out_path.read_text(encoding="utf-8") if self.out_path.exists() else None
        return Outcome(code, output, stdout.getvalue(), stderr.getvalue(), error, seconds)

    def check(self, req, out) -> bool:
        """Judge the first outcome of ``req``; later ones must repeat it."""
        from oracle import judge, refusal_reason

        reason = refusal_reason(out.stderr) if out.code == 1 else ""
        key = digest(out.code, out.output, out.stdout, reason, bool(out.error))
        inp = self.inputs[req.file]
        if (self.dir / req.file).read_text(encoding="utf-8") != inp.source:
            failure = "input file changed"
        elif req not in self.first:
            failure, reason = judge(req, out, inp)
            self.first[req] = (key, failure)
            if out.code == 1 and req.command in ("extract", "introduce") and not failure:
                self.refusals[reason] += 1
            if req.expect == "either":
                self.field_read = f"refused:{reason}" if out.code == 1 else f"accepted:exit{out.code}"
        else:
            failure = "" if key == self.first[req][0] else "outcome differs from its first run"
        if failure:
            self.failures.append(f"{req.label} {req.lang} {req.focus}: {failure}")
        return not failure

    def outcome_digest(self, requests) -> str:
        return digest([self.first[r][0] for r in requests if r in self.first])

    def input_digest(self) -> str:
        return digest(sorted(self.workload.files.items()))

    def counts(self) -> dict:
        return {name: [i.nodes, i.depth] for name, i in sorted(self.inputs.items())}


def spawn(args: list[str]) -> subprocess.CompletedProcess:
    """Run this interpreter on ``args`` in the checkout and wait for it."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, timeout=SPAWN_TIMEOUT,
                          capture_output=True, text=True)


def representatives(workload) -> list:
    seen, reps = set(), []
    for req in workload.cycle:
        if (req.label, req.lang, req.command) not in seen:
            seen.add((req.label, req.lang, req.command))
            reps.append(req)
    return reps


def digest_child(name: str, seed: int) -> None:
    """Entry point of the cross-process determinism check: regenerate the
    workload in a fresh interpreter, run one request of each label and
    print the outcome digests."""
    load_refax()
    from workloads import WORKLOADS

    session = Session(WORKLOADS[name](seed))
    try:
        reps = representatives(session.workload)
        for req in reps:
            session.check(req, session.call(req))
        print(json.dumps({"inputs": session.input_digest(), "outcomes": session.outcome_digest(reps),
                          "counts": session.counts()}))
    finally:
        session.close()
