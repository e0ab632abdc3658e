"""Correctness checks on refax outcomes, and a minilet evaluator that
shares no code with refax.

A request fails when it escapes ``main`` with an exception, exits outside
{0,1,2,3}, refuses when it should succeed or succeeds when it should
refuse, names the wrong reason, touches its input or writes an output
when refused, or produces an output that does not reparse, does not pass
``check`` (beyond the planted diagnostics), lacks the new abstraction,
or (minilet) evaluates to another value than the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from refax import joos, minilet

from workloads import Request


@dataclass(frozen=True)
class Outcome:
    code: int | None  # None when main raised
    output: str | None  # the --output file, or None when none was written
    stdout: str
    stderr: str
    error: str  # traceback text when main raised
    seconds: float


@dataclass(frozen=True)
class Input:
    """What the checks need to know about one input file."""

    source: str
    nodes: int
    depth: int
    methods: int  # JOOS method count
    value: int | None  # minilet value by the evaluator below


# -- minilet evaluator ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")
_PREC = {"+": 1, "*": 2}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out + [""]


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _tokens(text)
        self.i = 0

    def take(self, want: str | None = None) -> str:
        tok = self.toks[self.i]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def expr(self, min_prec: int = 1):
        left = self.primary()
        while _PREC.get(self.toks[self.i], 0) >= min_prec:
            op = self.take()
            left = (op, left, self.expr(_PREC[op] + 1))
        return left

    def primary(self):
        tok = self.take()
        if tok == "let":
            defs = []
            while self.toks[self.i] != "in":
                defs.append(self.fundef())
            self.take("in")
            return ("let", defs, self.expr())
        if tok.isdigit():
            return ("int", int(tok))
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if self.toks[self.i] == "(":
            self.take("(")
            args = []
            while self.toks[self.i] != ")":
                args.append(self.expr())
                if self.toks[self.i] == ",":
                    self.take(",")
            self.take(")")
            return ("call", tok, args)
        return ("var", tok)

    def fundef(self):
        name = self.take()
        self.take("(")
        params = []
        while self.toks[self.i] != ")":
            params.append(self.take())
            if self.toks[self.i] == ",":
                self.take(",")
        self.take(")")
        self.take("=")
        body = self.expr()
        self.take(";")
        return (name, params, body)


def minilet_value(text: str) -> int:
    """Value of a closed minilet program (letrec scoping, call by value)."""
    p = _Parser(text)
    tree = p.expr()
    p.take("")
    return _eval(tree, {}, {})


def _eval(e, funcs: dict, env: dict) -> int:
    kind = e[0]
    if kind == "int":
        return e[1]
    if kind == "var":
        return env[e[1]]
    if kind == "+":
        return _eval(e[1], funcs, env) + _eval(e[2], funcs, env)
    if kind == "*":
        return _eval(e[1], funcs, env) * _eval(e[2], funcs, env)
    if kind == "call":
        params, body, scope, closure = funcs[e[1]]
        if len(params) != len(e[2]):
            raise ValueError(f"arity mismatch calling {e[1]}")
        frame = dict(closure)
        frame.update(zip(params, (_eval(a, funcs, env) for a in e[2])))
        return _eval(body, scope, frame)
    inner = dict(funcs)
    for name, params, body in e[1]:
        inner[name] = (params, body, inner, env)
    return _eval(e[2], inner, env)


# -- outcome checks ----------------------------------------------------------------


def refusal_reason(stderr: str) -> str:
    """`CheckFailed: AssignsFreeVariable(x)` -> `AssignsFreeVariable`;
    `NameClash: name ...` -> `NameClash`."""
    head = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    kind, _, detail = head.partition(": ")
    if kind == "CheckFailed":
        return detail.split("(")[0].strip()
    return kind


def _diag_problem(diags: list[str], marks: tuple[str, ...]) -> str:
    if len(diags) != len(marks) or not all(any(m in d for d in diags) for m in marks):
        return f"check reports {diags[:3]}, planted {list(marks)}"
    return ""


def _output_problem(req: Request, text: str, inp: Input) -> str:
    words = len(re.findall(rf"\b{re.escape(req.name)}\(", text))
    if req.lang == "joos":
        program = joos.parse_program(text)
        problem = _diag_problem(joos.static_check(program), req.marks)
        heads = len(re.findall(r"^    (?:void|int|boolean) \w+\(", text, re.M))
        defined = len(re.findall(rf"^    void {re.escape(req.name)}\(", text, re.M))
        calls = words - defined
        if not problem and (heads != inp.methods + 1 or defined != 1):
            problem = f"{heads} methods and {defined} definitions of {req.name}"
        if not problem and req.command == "extract" and calls != 1:
            problem = f"{calls} calls of {req.name}"
        return problem
    problem = _diag_problem(minilet.resolution_check(minilet.parse_program(text)), req.marks)
    want = 2 if req.command == "extract" else 1
    if not problem and words != want:
        problem = f"{req.name} occurs {words} times, expected {want}"
    if not problem and minilet_value(text) != inp.value:
        problem = "minilet value changed"
    return problem


def judge(req: Request, out: Outcome, inp: Input) -> tuple[str, str]:
    """(failure, refusal reason); an empty failure means the outcome is correct."""
    if out.error:
        return f"traceback: {out.error.strip().splitlines()[-1]}", ""
    if out.code not in (0, 1, 2, 3):
        return f"exit code {out.code}", ""
    if req.command == "check":
        want = 1 if req.marks else 0
        if out.code != want:
            return f"check exited {out.code}, expected {want}", ""
        return _diag_problem(out.stdout.splitlines(), req.marks), ""
    if req.command == "ast":
        lines = out.stdout.splitlines()
        depth = max((len(ln) - len(ln.lstrip(" "))) // 2 for ln in lines) + 1 if lines else 0
        if out.code != 0 or len(lines) != inp.nodes or depth != inp.depth:
            return f"ast: exit {out.code}, {len(lines)} lines, depth {depth}", ""
        return "", ""
    if out.code == 1:
        reason = refusal_reason(out.stderr)
        if out.output is not None:
            return "refused but wrote an output", reason
        if req.expect == "either" or (req.expect == "refuse" and reason == req.reason):
            return "", reason
        return f"refused with {reason}, expected {req.expect} {req.reason}".strip(), reason
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.strip()[:200]}", ""
    if req.expect == "refuse":
        return f"succeeded, expected refusal {req.reason}", ""
    if out.output is None:
        return "exit 0 without an output", ""
    try:
        return _output_problem(req, out.output, inp), ""
    except Exception as exc:  # an output that does not reparse or evaluate
        return f"output rejected: {type(exc).__name__}: {exc}", ""
