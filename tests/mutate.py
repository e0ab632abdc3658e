"""Mutation audit of ``src/refax``: every mutant of a module must fail tier-1.

Usage::

    python tests/mutate.py [module ...]

With no module it audits every module of ``src/refax`` that holds behaviour:
all but the package ``__init__.py`` files, which only re-export, and the
``ast.py`` node declarations, whose slot tables ``tests/test_terms.py``
pins. It copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml``
into a temporary directory, one copy for each of its two jobs, and never
writes to the checkout. Tier-1 must first pass on a copy with the audited
modules ``ast.unparse``d but not mutated, so that a mutant differs from its
baseline by one change only. Then each mutant makes one change, skipping docstrings:

* ``pass``: a statement other than an import or a definition is replaced
  by ``pass``;
* ``compare``: one comparison operator is flipped (``==``/``!=``,
  ``<``/``>=``, ``>``/``<=``, ``is``/``is not``, ``in``/``not in``);
* ``boolop``: ``and`` and ``or`` are swapped;
* ``not``: a ``not`` is dropped;
* ``int``: an ``int`` constant is shifted by +1 or -1.

Each mutant runs ``python -m pytest -x -q -p no:cacheprovider tests`` in its
own session, with no bytecode written, under ``RLIMIT_AS`` and a timeout that
kills the whole process group: ``TIMEOUT_FACTOR`` times the wall time of the
unmutated run, so that a mutant that loops forever costs a few tier-1
lengths. A failing run or a timeout kills the mutant.
The runner prints one line per surviving mutant,
``module:line mutation | source line``, and exits 1 if any survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests")
TIMEOUT_FACTOR = 3  # a mutant's timeout, in wall times of the unmutated run
JOBS = 2
MEMORY_BYTES = 2 << 30

_FLIPPED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


# A definition is mutated through its body, statement by statement, and an
# import that goes fails at its first use; ``pass`` has nothing to remove.
_KEPT = (ast.Pass, ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Mutant:
    line: int
    kind: str
    description: str
    source: str


def _docstrings(tree: ast.Module) -> set[int]:
    """Ids of the docstring statements of the module, classes and functions."""
    owners = [tree, *(n for n in ast.walk(tree)
                      if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))]
    return {
        id(owner.body[0]) for owner in owners
        if owner.body and isinstance(owner.body[0], ast.Expr)
        and isinstance(owner.body[0].value, ast.Constant)
        and isinstance(owner.body[0].value.value, str)
    }


def _sites(tree: ast.Module):
    """Yield ``(line, kind, description, apply, undo)`` for each one-change mutant."""
    docstrings = _docstrings(tree)
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if isinstance(value, ast.expr):
                yield from _expr_sites(parent, field, value)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, ast.expr):
                        yield from _expr_sites(value, i, item)
                    elif isinstance(item, ast.stmt) and not isinstance(item, _KEPT) and id(item) not in docstrings:
                        stand_in = ast.copy_location(ast.Pass(), item)
                        yield _site(value, i, stand_in, item.lineno, "pass", "statement -> pass")


def _expr_sites(holder, key, node: ast.expr):
    """The mutants that change ``node``, which is ``holder[key]`` or ``holder.key``."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            flipped = _FLIPPED[type(op)]()
            yield _site(node.ops, i, flipped, node.lineno, "compare", f"{_name(op)} -> {_name(flipped)}")
    elif isinstance(node, ast.BoolOp):
        swapped, text = (ast.Or(), "and -> or") if isinstance(node.op, ast.And) else (ast.And(), "or -> and")
        yield _site(node, "op", swapped, node.lineno, "boolop", text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield _site(holder, key, node.operand, node.lineno, "not", "drop not")
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for shifted in (node.value + 1, node.value - 1):
            constant = ast.copy_location(ast.Constant(shifted), node)
            yield _site(holder, key, constant, node.lineno, "int", f"{node.value} -> {shifted}")


def _name(op: ast.cmpop) -> str:
    return ast.unparse(ast.Compare(ast.Name("a"), [op], [ast.Name("b")]))[2:-2]


def _site(holder, key, new, line: int, kind: str, description: str):
    """The mutant that puts ``new`` at ``holder[key]`` (a list) or
    ``holder.key`` (a node), with the change and its undoing."""
    if isinstance(holder, list):
        old = holder[key]

        def put(value):
            holder[key] = value
    else:
        old = getattr(holder, key)

        def put(value):
            setattr(holder, key, value)

    return line, kind, description, lambda: put(new), lambda: put(old)


def mutants(source: str) -> list[Mutant]:
    """Every one-change mutant of ``source``, each as the whole unparsed module."""
    tree = ast.parse(source)
    baseline = ast.unparse(tree)
    found = []
    for line, kind, description, apply, undo in list(_sites(tree)):
        apply()
        try:
            text = ast.unparse(tree)
        finally:
            undo()
        if text != baseline:
            found.append(Mutant(line, kind, description, text))
    return sorted(found, key=lambda m: m.line)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tests(copy: Path, timeout: float | None = None) -> str:
    """Run tier-1 in ``copy``, stopped after ``timeout`` seconds if given:
    ``"killed"``, ``"timeout"`` or ``"survived"``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [sys.executable, *PYTEST], cwd=copy, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=_limit_memory,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "survived" if code == 0 else "killed"


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def default_modules() -> list[Path]:
    return sorted(
        p for p in (ROOT / "src" / "refax").rglob("*.py")
        if p.name not in ("__init__.py", "ast.py")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", type=Path)
    args = parser.parse_args(argv)
    modules = [m.resolve() for m in args.modules] or default_modules()
    relative = [m.relative_to(ROOT) for m in modules]
    originals = {rel: (ROOT / rel).read_text(encoding="utf-8") for rel in relative}
    baselines = {rel: ast.unparse(ast.parse(text)) for rel, text in originals.items()}

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="refax-mutate-") as tmp:
        copies = [Path(tmp) / f"copy{j}" for j in range(JOBS)]
        for copy in copies:
            _copy_tree(copy)
            for rel, text in baselines.items():
                (copy / rel).write_text(text, encoding="utf-8")
        unmutated = time.monotonic()
        if run_tests(copies[0]) != "survived":
            print("tier-1 fails on the unmutated copy; no mutant was run", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - unmutated)

        work = [(rel, m) for rel in relative for m in mutants(originals[rel])]
        free = list(copies)

        def judge(item):
            rel, mutant = item
            copy = free.pop()
            try:
                (copy / rel).write_text(mutant.source, encoding="utf-8")
                return item, run_tests(copy, timeout)
            finally:
                (copy / rel).write_text(baselines[rel], encoding="utf-8")
                free.append(copy)

        survivors = timeouts = 0
        pool = ThreadPoolExecutor(JOBS)
        try:
            for (rel, mutant), outcome in pool.map(judge, work):
                if outcome == "killed":
                    continue
                source = originals[rel].splitlines()[mutant.line - 1].strip()
                line = f"{rel}:{mutant.line} {mutant.description} | {source}"
                if outcome == "timeout":
                    timeouts += 1
                    line = f"timeout (killed): {line}"
                else:
                    survivors += 1
                print(line, flush=True)
        finally:  # on an interrupt, start no more mutants
            pool.shutdown(cancel_futures=True)

    elapsed = time.monotonic() - started
    print(f"{len(work)} mutants, {len(work) - survivors} killed "
          f"({timeouts} by timeout), {survivors} survived; "
          f"{elapsed:.0f} s, {elapsed / max(1, len(work)):.1f} s per mutant "
          f"with {JOBS} jobs, {timeout:.0f} s timeout", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
