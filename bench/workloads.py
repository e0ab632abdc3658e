"""Seeded inputs and request streams for the benchmark workloads.

The seed changes names, constants, call targets and which methods carry
the planted features; it never changes the amount of work. Node counts,
nesting depth and the relative positions of the focus targets are fixed
by construction, so runs with different seeds measure the same load.
Focus spans are computed here from the generated text, not read back
from the refax parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JOOS_METHODS = 300
# Nested-let depth of minilet-deep and check-ast. An extract at the
# deepest level of this shape first raises RecursionError at 79 levels
# (Python 3.11, default recursion limit, called in-process from this
# benchmark), so 40 keeps the workloads at about half of that limit.
MINILET_DEPTH = 40
MINILET_GROUPS = 2
CHECK_MINILET_GROUPS = 6
CHECK_UNDEFINED_CALLS = 6
SWEEP_METHODS = (100, 300, 1000)

_FIELDS = 4
_JITTER = 3


@dataclass(frozen=True)
class Request:
    """One refax invocation and the outcome planted by construction.

    ``expect`` is ``ok`` (exit 0 with a correct output), ``refuse`` (exit 1
    naming ``reason``, input untouched), ``either`` (a JOOS fragment that
    reads a field: exit 0 with a correct output, or exit 1 with the input
    untouched; which one is recorded) or ``diags`` (``check`` printing
    exactly one diagnostic per entry of ``marks``). ``name`` is the
    abstraction a successful output must define; ``marks`` are the planted
    undefined calls a static check of the input or output must report.
    """

    label: str
    lang: str
    command: str
    file: str
    focus: str = ""
    name: str = ""
    cls: str = ""
    decl: str = ""
    expect: str = "ok"
    reason: str = ""
    marks: tuple[str, ...] = ()


@dataclass
class Workload:
    """Files to write, the request cycle the closed loop repeats, the
    probes added to a traced cycle, and the tiny requests used for warm-up
    (one per language; the first also times set-up). ``cycle_seconds`` is
    the busy time of one cycle when the benchmark was defined, on the
    reference machine of README.md; a run of ``--seconds`` repeats the cycle
    ``seconds / cycle_seconds`` times, so every run measures the same
    requests."""

    name: str
    files: dict[str, str]
    cycle: list[Request]
    probes: list[Request]
    tiny: list[Request]
    cycle_seconds: float


def _span(line: int, col: int, end_line: int, end_col: int) -> str:
    return f"{line}:{col}-{end_line}:{end_col}"


# -- JOOS: one wide class ------------------------------------------------------


@dataclass
class JoosClass:
    source: str
    heads: list[int]  # header line of each method
    decl_ends: list[int]  # end column of each method's first declaration
    field_methods: set[int]  # methods whose extractable block reads a field
    marks: tuple[str, ...]  # planted calls of undefined methods

    def block(self, k: int) -> str:
        """A block `{ int t = x + y; this.m(t, ..); }` that extracts."""
        h = self.heads[k]
        return _span(h + 3, 9, h + 6, 10)

    def loop(self, k: int) -> str:
        """`while (x < y) { x = x + c; }`: assigns the method's local x."""
        h = self.heads[k]
        return _span(h + 7, 9, h + 9, 10)

    def returning(self, k: int) -> str:
        """A block holding `if (b < c) { return ..; }`."""
        h = self.heads[k]
        return _span(h + 10, 9, h + 14, 10)

    def declaration(self, k: int) -> str:
        """The bare declaration `int x = a + c;`."""
        h = self.heads[k]
        return _span(h + 1, 9, h + 1, self.decl_ends[k])


def joos_class(rng: random.Random, n: int, undefined: int = 0) -> JoosClass:
    """Class W with ``n`` two-parameter methods of one shape: half void,
    half int. A tenth pass a field instead of a constant in their
    extractable block, and ``undefined`` of the others call a method that
    does not exist, so a static check reports exactly those calls."""
    field_methods = set(rng.sample(range(n), n // 10))
    others = [k for k in range(n) if k not in field_methods]
    undefined_methods = set(rng.sample(others, undefined))
    int_methods = set(rng.sample(range(n), n // 2))
    lines = ["class W {"] + [f"    int fld{i};" for i in range(_FIELDS)]
    heads, decl_ends, marks = [], [], []
    for k in range(n):
        c = [rng.randrange(1, 100) for _ in range(5)]
        callee = f"m{rng.randrange(n)}"
        if k in undefined_methods:
            callee = f"undef{k}"
            marks.append(callee)
        arg = f"fld{rng.randrange(_FIELDS)}" if k in field_methods else str(c[1])
        result = "int" if k in int_methods else "void"
        decl = f"int x = a + {c[0]};"
        lines.append("")
        heads.append(len(lines) + 1)
        decl_ends.append(9 + len(decl))
        lines += [
            f"    {result} m{k}(int a, int b) {{",
            f"        {decl}",
            "        int y = b * x;",
            "        {",
            "            int t = x + y;",
            f"            this.{callee}(t, {arg});",
            "        }",
            "        while (x < y) {",
            f"            x = x + {c[2]};",
            "        }",
            "        {",
            f"            if (b < {c[3]}) {{",
            f"                return {c[4]};" if result == "int" else "                return;",
            "            }",
            "        }",
        ]
        if result == "int":
            lines.append("        return y;")
        lines.append("    }")
    lines.append("}")
    return JoosClass("\n".join(lines) + "\n", heads, decl_ends, field_methods, tuple(marks))


def _position(rng: random.Random, n: int, frac: float, avoid: set[int]) -> int:
    """Method near ``frac`` of the class, jittered by the seed."""
    k = min(n - 1, max(0, round(frac * (n - 1)) + rng.randint(-_JITTER, _JITTER)))
    while k in avoid:
        k = (k + 1) % n
    return k


def _nearest(n: int, frac: float, pool: set[int]) -> int:
    target = frac * (n - 1)
    return min(sorted(pool), key=lambda k: abs(k - target))


def _joos_decl(rng: random.Random, name: str, n: int) -> str:
    return (
        f"void {name}(int a) {{\n"
        f"    int z = a + {rng.randrange(1, 100)};\n"
        f"    this.m{rng.randrange(n)}(z, z);\n"
        "}\n"
    )


def joos_extract(jc: JoosClass, k: int, name: str, file: str) -> Request:
    return Request("extract", "joos", "extract", file, jc.block(k), name, marks=jc.marks)


def joos_wide(seed: int) -> Workload:
    n = JOOS_METHODS
    rng = random.Random(seed)
    jc = joos_class(rng, n)
    files = {"wide.joos": jc.source}
    avoid = jc.field_methods

    def extract(frac: float, i: int) -> Request:
        return joos_extract(jc, _position(rng, n, frac, avoid), f"ext{i}", "wide.joos")

    def refuse(frac: float, reason: str) -> Request:
        k = _position(rng, n, frac, avoid)
        focus, name = {
            "HasReturn": (jc.returning(k), "ret0"),
            "AssignsFreeVariable": (jc.loop(k), "loop0"),
            "ExtractsDeclaration": (jc.declaration(k), "decl0"),
            "NameClash": (jc.block(k), f"m{rng.randrange(n)}"),
        }[reason]
        return Request(f"refuse-{reason}", "joos", "extract", "wide.joos", focus, name,
                       expect="refuse", reason=reason)

    def introduce(i: int) -> Request:
        name = f"added{i}"
        files[f"add{i}.jdecl"] = _joos_decl(rng, name, n)
        return Request("introduce", "joos", "introduce", "wide.joos", name=name, cls="W",
                       decl=f"add{i}.jdecl")

    field_read = Request("field-read", "joos", "extract", "wide.joos",
                         jc.block(_nearest(n, 0.5, jc.field_methods)), "fread0", expect="either")
    # Extracts dominate, as in interactive use. Their focus sits in the
    # middle two fifths of the class: the passes that stop at the focus cost
    # in proportion to its position, and a narrow band keeps the extracts,
    # which hold the median, within a few percent of each other.
    cycle = [
        extract(0.30, 0),
        refuse(0.15, "HasReturn"),
        extract(0.38, 1),
        introduce(0),
        extract(0.46, 2),
        refuse(0.35, "AssignsFreeVariable"),
        field_read,
        extract(0.54, 3),
        refuse(0.65, "ExtractsDeclaration"),
        extract(0.62, 4),
        introduce(1),
        extract(0.70, 5),
        refuse(0.85, "NameClash"),
    ]
    return Workload("joos-wide", files, cycle, [], [_tiny_joos(seed, files)], 10.0)


def _tiny_joos(seed: int, files: dict[str, str]) -> Request:
    jc = joos_class(random.Random(seed), 2)
    files["tiny.joos"] = jc.source
    return joos_extract(jc, 0, "tiny", "tiny.joos")


# -- minilet: nested lets ------------------------------------------------------


@dataclass
class MiniletProgram:
    source: str
    # per level (1-based, index 0 unused): focus spans and defined names
    levels: list[dict[str, str]]


def minilet_program(rng: random.Random, depth: int, groups: int) -> MiniletProgram:
    """``depth`` nested lets; each level defines ``groups`` times six
    functions that call earlier siblings and the level above, and its body
    adds some of their calls to the next level's let. Evaluation does a
    bounded amount of work per level."""
    def c() -> int:
        return rng.randrange(1, 10)

    lines = ["let"]
    levels: list[dict[str, str]] = [{}]
    for i in range(1, depth + 1):
        pad = "  " * i
        first = len(lines) + 1
        spans: dict[str, str] = {}
        for g in range(groups):
            a, b, cc, d, e, f = (f"f{i}_{g}{s}" for s in "abcdef")
            up = f"f{i - 1}_{g}a(x)" if i > 1 else "x"
            ca, cb = c(), c()
            defs = [
                f"{a}(x) = x * {ca} + {c()};",
                f"{b}(x, y) = (x + {cb}) * (y + {c()});",
                f"{cc}(x) = {a}(x) + {b}(x, {c()});",
                f"{d}(x, y) = {cc}(x + y) * {c()} + {up};",
                f"{e}(x) = {d}(x, x * {c()}) + {a}({c()});",
                f"{f}() = {e}({c()}) + {c()};",
            ]
            if g == 0:
                row = len(lines) + 1
                col = len(pad) + len(f"{a}(x) = ") + 1
                spans["product"] = _span(row, col, row, col + len(f"x * {ca}"))
                row += 1
                col = len(pad) + len(f"{b}(x, y) = ") + 1
                spans["body"] = _span(row, col, row, len(pad) + len(defs[1]))
                row += 3
                col = len(pad) + len(f"{e}(x) = ") + 1
                call = defs[4][len(f"{e}(x) = "):].split(" + ")[0]
                spans["call"] = _span(row, col, row, col + len(call))
                spans["defined"] = a
            lines += [pad + text for text in defs]
        spans["list"] = _span(first, len(pad) + 1, len(lines), len(lines[-1]) + 1)
        lines.append("  " * (i - 1) + "in")
        head = f"f{i}_0c({c()})"
        spans["head"] = _span(len(lines) + 1, len(pad) + 1, len(lines) + 1, len(pad) + 1 + len(head))
        body = pad + " + ".join([head] + [f"f{i}_{g}f()" for g in range(groups)])
        lines.append(body + (" + (let" if i < depth else ")" * (depth - 1)))
        levels.append(spans)
    return MiniletProgram("\n".join(lines) + "\n", levels)


def _level(rng: random.Random, depth: int, frac: float) -> int:
    if frac >= 1.0:
        return depth
    return min(depth, max(1, round(frac * depth) + rng.randint(-1, 1)))


def minilet_extract(mp: MiniletProgram, level: int, where: str, name: str, file: str) -> Request:
    return Request("extract", "minilet", "extract", file, mp.levels[level][where], name)


def minilet_deep(seed: int) -> Workload:
    rng = random.Random(seed)
    depth = MINILET_DEPTH
    mp = minilet_program(rng, depth, MINILET_GROUPS)
    files = {"deep.mlt": mp.source}

    def extract(frac: float, where: str, i: int) -> Request:
        return minilet_extract(mp, _level(rng, depth, frac), where, f"ext{i}", "deep.mlt")

    def introduce(frac: float, i: int) -> Request:
        name = f"added{i}"
        files[f"add{i}.mdecl"] = f"{name}(z) = z * {rng.randrange(1, 10)} + 1;\n"
        focus = mp.levels[_level(rng, depth, frac)]["list"]
        return Request("introduce", "minilet", "introduce", "deep.mlt", focus, name,
                       decl=f"add{i}.mdecl")

    level = _level(rng, depth, 0.6)
    clash = Request("refuse-NameClash", "minilet", "extract", "deep.mlt",
                    mp.levels[level]["body"], mp.levels[level]["defined"],
                    expect="refuse", reason="NameClash")
    # The fragment kind of each extract is fixed, like its depth, because
    # the kinds differ in cost; the seed picks names and constants.
    cycle = [
        extract(0.1, "product", 0),
        extract(0.5, "body", 1),
        introduce(0.4, 0),
        extract(0.9, "call", 2),
        clash,
        extract(0.3, "head", 3),
        introduce(0.8, 1),
        extract(0.7, "product", 4),
        extract(1.0, "body", 5),
    ]
    return Workload("minilet-deep", files, cycle, [], [_tiny_minilet(seed, files)], 3.5)


def _tiny_minilet(seed: int, files: dict[str, str]) -> Request:
    mp = minilet_program(random.Random(seed), 2, 1)
    files["tiny.mlt"] = mp.source
    return minilet_extract(mp, 1, "body", "tiny", "tiny.mlt")


# -- check-ast: read-only commands on large programs ---------------------------


def check_ast(seed: int) -> Workload:
    rng = random.Random(seed)
    jc = joos_class(rng, JOOS_METHODS, CHECK_UNDEFINED_CALLS)
    mp = minilet_program(rng, MINILET_DEPTH, CHECK_MINILET_GROUPS)
    files = {"big.joos": jc.source, "big.mlt": mp.source}
    cycle = [
        Request("check", "joos", "check", "big.joos", expect="diags", marks=jc.marks),
        Request("ast", "joos", "ast", "big.joos"),
        Request("check", "minilet", "check", "big.mlt", expect="diags"),
        Request("ast", "minilet", "ast", "big.mlt"),
    ]
    # Probes reach the refactoring layers on this workload's own trees in
    # the traced run only; the untraced loop never runs them.
    avoid = jc.field_methods
    ret = _position(rng, JOOS_METHODS, 0.25, avoid)
    probes = [
        joos_extract(jc, _position(rng, JOOS_METHODS, 0.5, avoid), "probe0", "big.joos"),
        Request("refuse-HasReturn", "joos", "extract", "big.joos", jc.returning(ret), "probe1",
                expect="refuse", reason="HasReturn"),
        minilet_extract(mp, MINILET_DEPTH // 2, "body", "probe2", "big.mlt"),
    ]
    tiny = [Request("check", "joos", "check", _tiny_joos(seed, files).file, expect="diags"),
            Request("check", "minilet", "check", _tiny_minilet(seed, files).file, expect="diags")]
    return Workload("check-ast", files, cycle, probes, tiny, 1.0)


WORKLOADS = {"joos-wide": joos_wide, "minilet-deep": minilet_deep, "check-ast": check_ast}


def sweep(seed: int, n: int) -> tuple[str, Request]:
    """joos-wide's class at ``n`` methods and one extract from its middle."""
    rng = random.Random(seed)
    jc = joos_class(rng, n)
    k = _position(rng, n, 0.5, jc.field_methods)
    return jc.source, joos_extract(jc, k, "swept", f"sweep{n}.joos")
