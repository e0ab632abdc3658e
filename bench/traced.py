"""Traced run: per-layer metrics, timed from the benchmark's side.

Nothing inside refax is patched or instrumented. Each traced request
first runs untraced through ``main`` (checked as in the closed loop) and
then again as the stages ``main`` would run, one public call per layer, in
pipeline order: tokenize, parse, place the focus, extract or introduce,
pretty-print, static check. A stage's self time is its call minus the
separately timed call it contains: parse minus tokenize,
``place_focus_by_span`` minus parse. The CLI's own share of ``main`` (its
argument parsing, reading the inputs, writing the result) is timed
directly, as the difference of two timings of a whole request would be
mostly noise.
``framework.extract`` runs once whole and once replayed phase by phase
from the language's public ingredients; the replay must give the same
result or the same refusal, and the whole minus its phases is the
residual (mostly the trailing focus-wrapper scans).

Spans (request, name, start, end, parent) are kept in memory and written
to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from refax import framework, joos, minilet
from refax.cli import build_parser
from refax.framework import FocusPresent, RefactoringError
from refax.joos import ast as jast
from refax.joos import parser as jparser
from refax.lexing import Span, tokenize
from refax.minilet import parser as mparser
from refax.minilet.refactoring import check_extractable as minilet_check_extractable
from refax.strategy import SortCase, StrategyFailure, above_tp, fail_tp, fail_tu, oncetd_tu
from refax.terms import dump

import workloads
from harness import ROOT, Session, representatives, spawn, tree_size
from oracle import Input, Outcome, judge, refusal_reason

OUT = ROOT / ".bench_out"
IMPORT_SPAWNS = 5
PHASES = ("bound_typed_names", "free_typed_names", "mark_host", "introduce", "replace_focus")
REASONS = ("HasReturn", "AssignsFreeVariable", "ExtractsDeclaration", "NameClash")
SWEEP_LAYERS = (
    "lexing.tokenize", "parser.parse_self", "refactoring.place_focus_self",
    *(f"framework.{p}" for p in PHASES), "framework.extract_residual", "pretty.pretty",
    "analysis.check",
)
_IMPORT = ("import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
           "import refax.cli; print(time.perf_counter() - t)")
_DIGEST = ("import sys; sys.path[:0] = [{bench!r}, {src!r}]; import harness; "
           "harness.digest_child({name!r}, {seed})")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"framework.{p}_ms", "ms") for p in PHASES]
    names += [
        ("framework.extract_residual_ms", "ms"),
        ("framework.refused_ratio", "ratio"),
        ("framework.wasted_ms", "ms"),
        *((f"framework.refused.{r}", "count") for r in (*REASONS, "other")),
        ("strategy.oncetd_pass_us_per_node", "us/node"),
        ("strategy.above_pass_us_per_node", "us/node"),
        ("terms.children_us_per_node", "us/node"),
        ("terms.rebuild_us_per_node", "us/node"),
        ("terms.dump_ms", "ms"),
        ("lexing.tokenize_ms", "ms"),
        ("lexing.tokens", "count"),
        ("parser.parse_self_ms", "ms"),
        ("parser.nodes", "count"),
        ("parser.max_depth", "count"),
        ("refactoring.place_focus_self_ms", "ms"),
        ("refactoring.check_extractable_ms", "ms"),
        ("analysis.check_ms", "ms"),
        ("pretty.pretty_ms", "ms"),
        ("cli.self_ms", "ms"),
        ("setup.import_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
    for n in workloads.SWEEP_METHODS:
        names.append((f"sweep.m{n}.nodes", "count"))
        names += [(f"sweep.m{n}.{layer}_us_per_node", "us/node") for layer in SWEEP_LAYERS]
    return names


@dataclass(frozen=True)
class Lang:
    """One language's public entry points and framework ingredients."""

    module: Any
    keywords: frozenset
    symbols: tuple
    parse_decl: Callable
    check: Callable
    extract: Callable
    introduce: Callable
    check_extractable: Callable
    sig: framework.AbstractionSignature
    find: SortCase
    mark: SortCase
    find2: SortCase
    fragment_kind: str


LANGS = {
    "joos": Lang(
        joos, jparser._KEYWORDS, jparser._SYMBOLS, parse_decl=joos.parse_method,
        check=joos.static_check, extract=joos.extract_method, introduce=joos.introduce_method,
        check_extractable=joos.check_extractable, sig=joos.method_signature,
        find=joos.statement_focus, mark=joos.method_list_host, find2=joos.method_list_focus,
        fragment_kind="statement",
    ),
    "minilet": Lang(
        minilet, mparser._KEYWORDS, mparser._SYMBOLS, parse_decl=minilet.parse_fundef,
        check=minilet.resolution_check, extract=minilet.extract_function,
        introduce=minilet.introduce_function, check_extractable=minilet_check_extractable,
        sig=minilet.function_signature, find=minilet.expr_focus, mark=minilet.let_defs_host,
        find2=minilet.fundef_list_focus, fragment_kind="expr",
    ),
}


class Tracer:
    """Spans of the current request, recorded around calls into refax."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, str]] = []
        self.request = 0
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.request, name, start, end, parent))

    def durations(self, request: int) -> dict[str, float]:
        """Milliseconds per span name within one request."""
        out: dict[str, float] = {}
        for req, name, start, end, _ in self.spans:
            if req == request:
                out[name] = out.get(name, 0.0) + (end - start) * 1e3
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for req, name, start, end, parent in self.spans:
                handle.write(json.dumps({"request": req, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def _replay(tr: Tracer, lang: Lang, name: str, prog):
    """``framework.extract`` as its composition of public framework calls."""
    sig = lang.sig
    declared, referenced = lang.module.declared_pairs, lang.module.referenced_names
    with tr.span("framework.bound_typed_names"):
        env, fragment = framework.bound_typed_names(declared, lang.find, prog)
    with tr.span("refactoring.check_extractable"):
        lang.check_extractable(fragment)
    with tr.span("framework.free_typed_names"):
        pairs = framework.free_typed_names(declared, referenced, env, fragment)
    abstr = sig.make_abstraction(name, sig.make_formals(pairs), sig.body_from_fragment(fragment))
    with tr.span("framework.mark_host"):
        marked = framework.mark_host(lang.mark, lang.find, prog)
    with tr.span("framework.introduce"):
        extended = framework.introduce(declared, referenced, lang.find2, sig, abstr, marked)
    app = sig.make_application(name, sig.make_actuals(pairs))

    def put(t):
        lang.find.fn(t)
        return sig.fragment_from_application(app)

    with tr.span("framework.replace_focus"):
        return framework.replace_focus(SortCase(lang.find.sort, put), extended)


def _focus_class(program, cls: str):
    """The CLI's `introduce --class`: wrap the named class's method list."""
    classes = tuple(
        dataclasses.replace(c, methods=jast.MethodDeclarationFocus(c.methods)) if c.name == cls else c
        for c in program.classes
    )
    return dataclasses.replace(program, classes=classes)


def _refusal(exc: Exception | None) -> str:
    return refusal_reason(f"{type(exc).__name__}: {exc}") if exc is not None else ""


def traced_request(tr: Tracer, session: Session, req) -> tuple[str | None, str, str]:
    """Run ``req`` stage by stage. Returns (printed text or None, refusal
    reason, failure)."""
    lang = LANGS[req.lang]
    result, refused, text, failure = None, None, None, ""
    with tr.span("request"):
        with tr.span("cli.parse_args"):
            build_parser().parse_args(session.argv(req))
        with tr.span("cli.read"):
            src = (session.dir / req.file).read_text(encoding="utf-8")
            decl_src = (session.dir / req.decl).read_text(encoding="utf-8") if req.decl else ""
        with tr.span("lexing.tokenize"):
            tokenize(src, lang.keywords, lang.symbols)
        with tr.span("parser.parse_program"):
            program = lang.module.parse_program(src)
        if req.command == "check":
            with tr.span("analysis.check"):
                text = "".join(d + "\n" for d in lang.check(program))
        elif req.command == "ast":
            with tr.span("terms.dump"):
                text = dump(program) + "\n"
        elif req.command == "extract":
            with tr.span("refactoring.place_focus_by_span"):
                focused = lang.module.place_focus_by_span(src, lang.fragment_kind, Span.parse(req.focus))
            try:
                with tr.span("framework.extract"):
                    result = lang.extract(req.name, focused)
            except (RefactoringError, FocusPresent) as exc:
                refused = exc
            try:
                replayed, replay_refused = _replay(tr, lang, req.name, focused), None
            except (RefactoringError, FocusPresent) as exc:
                replayed, replay_refused = None, exc
            if replayed != result or _refusal(refused) != _refusal(replay_refused):
                failure = "the phase-by-phase replay differs from framework.extract"
        else:
            with tr.span("parser.parse_decl"):
                decl = lang.parse_decl(decl_src)
            if req.cls:
                focused = _focus_class(program, req.cls)
            else:
                with tr.span("refactoring.place_focus_by_span"):
                    focused = lang.module.place_focus_by_span(src, "fundeflist", Span.parse(req.focus))
            try:
                with tr.span("framework.introduce"):
                    result = lang.introduce(decl, focused)
            except (RefactoringError, FocusPresent) as exc:
                refused = exc
        if result is not None:
            with tr.span("pretty.pretty"):
                text = lang.module.pretty(result)
            with tr.span("analysis.check"):
                lang.check(result)
        if text is not None:
            with tr.span("cli.write"):
                if req.command in ("check", "ast"):
                    io.StringIO().write(text)
                else:
                    session.out_path.write_text(text, encoding="utf-8")
    return text, _refusal(refused), failure


def _traced(tr: Tracer, session: Session, req) -> tuple[str | None, str, str]:
    tr.request += 1
    try:
        return traced_request(tr, session, req)
    except Exception as exc:  # the traced stages must not be less robust than main
        return None, "", f"traced stages raised {type(exc).__name__}: {exc}"


def stage_ms(d: dict[str, float], untraced_ms: float | None) -> dict[str, float]:
    """Per-layer figures of one traced request from its span durations."""
    out = {"lexing.tokenize": d["lexing.tokenize"],
           "parser.parse_self": d["parser.parse_program"] - d["lexing.tokenize"]}
    if "refactoring.place_focus_by_span" in d:
        out["refactoring.place_focus_self"] = d["refactoring.place_focus_by_span"] - d["parser.parse_program"]
    for name in ("refactoring.check_extractable", "pretty.pretty", "analysis.check", "terms.dump",
                 *(f"framework.{p}" for p in PHASES)):
        if name in d:
            out[name] = d[name]
    if "framework.extract" in d and "pretty.pretty" in d:
        parts = sum(d[f"framework.{p}"] for p in PHASES) + d["refactoring.check_extractable"]
        out["framework.extract_residual"] = d["framework.extract"] - parts
    out["cli.self"] = sum(d.get(s, 0.0) for s in ("cli.parse_args", "cli.read", "cli.write"))
    if untraced_ms is not None:
        out["trace.overhead"] = d["request"] - untraced_ms
    return out


def _passes(programs: list) -> dict[str, float]:
    """One whole-tree pass of each kind over the workload's own trees."""
    total = sum(tree_size(p)[0] for p in programs)
    timings = {"terms.children": 0.0, "terms.rebuild": 0.0, "strategy.oncetd_pass": 0.0,
               "strategy.above_pass": 0.0}
    oncetd, above = oncetd_tu(fail_tu()), above_tp(fail_tp(), fail_tu())
    for program in programs:
        nodes, stack = [], [program]
        while stack:
            t = stack.pop()
            nodes.append(t)
            stack.extend(t.children())
        start = perf_counter()
        kids = [t.children() for t in nodes]
        timings["terms.children"] += perf_counter() - start
        start = perf_counter()
        for t, k in zip(nodes, kids):
            t.rebuild(k)
        timings["terms.rebuild"] += perf_counter() - start
        for name, scheme in (("strategy.oncetd_pass", oncetd), ("strategy.above_pass", above)):
            start = perf_counter()
            try:
                scheme(program)
            except StrategyFailure:
                pass
            timings[name] += perf_counter() - start
    return {f"{k}_us_per_node": v * 1e6 / total for k, v in timings.items()}


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run(session: Session, seed: int) -> tuple[dict, dict, int, int]:
    """One traced cycle of the workload (with its probes), the whole-tree
    passes, the size sweep, the import timing and the cross-process
    determinism check."""
    workload = session.workload
    for req in workload.tiny:  # warm-up, as in the untraced loop
        session.check(req, session.call(req))
    tr = Tracer()
    figures: dict[str, list[float]] = {}
    cycle = workload.cycle + workload.probes
    refused: dict[str, int] = {}
    wasted = 0.0
    attempted = failed = 0
    for req in cycle:
        out = session.call(req)
        ok = session.check(req, out)
        text, reason, failure = _traced(tr, session, req)
        refactoring = req.command in ("extract", "introduce")
        printed = out.output if refactoring else out.stdout
        main_reason = refusal_reason(out.stderr) if refactoring and out.code == 1 else ""
        if not failure and (reason != main_reason or (text is not None and text != printed)):
            failure = "traced stages disagree with main"
        if failure:
            session.failures.append(f"{req.label} {req.lang} {req.focus}: {failure}")
        attempted += 1
        failed += bool(failure) or not ok
        for name, value in stage_ms(tr.durations(tr.request), out.seconds * 1e3).items():
            figures.setdefault(name, []).append(value)
        if reason:
            key = reason if reason in REASONS else "other"
            refused[key] = refused.get(key, 0) + 1
            wasted += out.seconds * 1e3
    metrics: dict[str, float] = {}
    for p in PHASES:
        metrics[f"framework.{p}_ms"] = _median(figures.get(f"framework.{p}", []))
    metrics["framework.extract_residual_ms"] = _median(figures.get("framework.extract_residual", []))
    metrics["framework.refused_ratio"] = sum(refused.values()) / attempted
    metrics["framework.wasted_ms"] = wasted / attempted
    for r in (*REASONS, "other"):
        metrics[f"framework.refused.{r}"] = refused.get(r, 0)

    sources = sorted({req.file for req in cycle})
    programs = []
    metrics["lexing.tokens"] = 0
    for name in sources:
        lang = LANGS["joos" if name.endswith(".joos") else "minilet"]
        programs.append(lang.module.parse_program(session.inputs[name].source))
        start = perf_counter()
        dump(programs[-1])
        figures.setdefault("terms.dump", []).append((perf_counter() - start) * 1e3)
        metrics["lexing.tokens"] += len(tokenize(session.inputs[name].source, lang.keywords, lang.symbols))
    metrics.update(_passes(programs))
    metrics["terms.dump_ms"] = _median(figures["terms.dump"])
    metrics["lexing.tokenize_ms"] = _median(figures["lexing.tokenize"])
    metrics["parser.parse_self_ms"] = _median(figures["parser.parse_self"])
    metrics["parser.nodes"] = sum(session.inputs[n].nodes for n in sources)
    metrics["parser.max_depth"] = max(session.inputs[n].depth for n in sources)
    for name in ("refactoring.place_focus_self", "refactoring.check_extractable",
                 "analysis.check", "pretty.pretty", "cli.self", "trace.overhead"):
        metrics[f"{name}_ms"] = _median(figures.get(name, []))

    imports = []
    for _ in range(IMPORT_SPAWNS):
        proc = spawn(["-c", _IMPORT.format(src=str(ROOT / "src"))])
        if proc.returncode != 0:
            session.failures.append(f"import spawn exited {proc.returncode}")
            continue
        imports.append(float(proc.stdout.strip()) * 1e3)
    metrics["setup.import_ms"] = _median(imports)

    sweep = {}
    for n in workloads.SWEEP_METHODS:
        source, req = workloads.sweep(seed, n)
        (session.dir / req.file).write_text(source, encoding="utf-8")
        text, reason, failure = _traced(tr, session, req)
        nodes, depth = tree_size(joos.parse_program(source))
        attempted += 1
        if not failure:
            out = Outcome(0 if text is not None else 1, text, "", "", "", 0.0)
            failure, _ = judge(req, out, Input(source, nodes, depth, n, None))
        if failure:
            failed += 1
            session.failures.append(f"sweep m{n}: {failure}")
        spans = tr.durations(tr.request)
        stages = stage_ms(spans, None)
        metrics[f"sweep.m{n}.nodes"] = nodes
        for layer in SWEEP_LAYERS:
            if layer in stages:
                metrics[f"sweep.m{n}.{layer}_us_per_node"] = stages[layer] * 1e3 / nodes
        sweep[f"m{n}"] = {"nodes": nodes, "extract_ms": round(spans.get("framework.extract", 0.0), 1)}

    child = spawn(["-c", _DIGEST.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"),
                                        name=workload.name, seed=seed)])
    reps = representatives(workload)
    mine = {"inputs": session.input_digest(), "outcomes": session.outcome_digest(reps),
            "counts": session.counts()}
    try:
        theirs = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        theirs = {"error": child.stderr[-300:]}
    if theirs != json.loads(json.dumps(mine)):
        session.failures.append(f"a fresh interpreter disagrees on this seed: {theirs} vs {mine}")

    tr.write(OUT / f"spans-{workload.name}-{seed}.jsonl")
    names = per_layer_names()
    missing = [k for k, _ in names if metrics.get(k) is None]
    if missing:
        session.failures.append(f"per-layer metrics not measured: {missing}")
    detail = {"traced_requests": attempted, "sweep": sweep,
              "cross_process_digest": mine["outcomes"]}
    return {k: (metrics.get(k) or 0.0, u) for k, u in names}, detail, attempted, failed

