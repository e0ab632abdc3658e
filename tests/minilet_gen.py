"""Random generator for closed, terminating minilet programs, and a small
evaluator used only to witness that extraction preserves meaning.

Termination is by construction: a function body may call functions of
enclosing lets or earlier siblings in its own let, never itself or a
later sibling, so the call graph is acyclic. Function and variable pools
are disjoint, which keeps the evaluator's two namespaces honest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from refax.minilet import ast


def gen_program(rng: random.Random) -> ast.Program:
    counter = [0]
    body = _gen_let(rng, depth=0, funcs={}, variables=(), counter=counter)
    return ast.Program(body)


def _gen_let(rng, depth, funcs, variables, counter) -> ast.Let:
    defs = []
    visible = dict(funcs)
    for _ in range(rng.randrange(1, 4)):
        counter[0] += 1
        name = f"f{counter[0]}"
        params = tuple(f"x{counter[0]}_{j}" for j in range(rng.randrange(0, 3)))
        body = _gen_expr(rng, depth + 1, dict(visible), variables + params, counter, 3)
        defs.append(ast.FunDef(name, params, body))
        visible[name] = len(params)
    body = _gen_expr(rng, depth + 1, visible, variables, counter, 3)
    return ast.Let(ast.FunDefList(tuple(defs)), body)


def _gen_expr(rng, depth, funcs, variables, counter, size) -> ast.Expression:
    roll = rng.random()
    if size <= 0 or roll < 0.35:
        if variables and rng.random() < 0.6:
            return ast.Var(rng.choice(variables))
        return ast.IntLit(rng.randrange(0, 20))
    if roll < 0.75:
        op = rng.choice(("+", "+", "*"))
        return ast.BinOp(op, _gen_expr(rng, depth, funcs, variables, counter, size - 1),
                         _gen_expr(rng, depth, funcs, variables, counter, size - 1))
    if roll < 0.85 and depth < 3:
        return _gen_let(rng, depth, funcs, variables, counter)
    if funcs:
        name = rng.choice(sorted(funcs))
        args = tuple(
            _gen_expr(rng, depth, funcs, variables, counter, size - 1)
            for _ in range(funcs[name])
        )
        return ast.Call(name, args)
    return ast.IntLit(rng.randrange(0, 20))


# -- evaluation (test-only) ----------------------------------------------------


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class _Closure:
    fundef: ast.FunDef
    funcs: dict
    variables: dict


def eval_program(program: ast.Program) -> int:
    return _eval(program.body, {}, {}, [0])


def _eval(e: ast.Expression, funcs: dict, variables: dict, steps: list[int]) -> int:
    steps[0] += 1
    if steps[0] > 200_000:
        raise EvalError("step budget exceeded")
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.Var):
        if e.name not in variables:
            raise EvalError(f"unbound variable {e.name}")
        return variables[e.name]
    if isinstance(e, ast.BinOp):
        left = _eval(e.left, funcs, variables, steps)
        right = _eval(e.right, funcs, variables, steps)
        return left + right if e.op == "+" else left * right
    if isinstance(e, ast.Call):
        if e.name not in funcs:
            raise EvalError(f"undefined function {e.name}")
        closure = funcs[e.name]
        args = [_eval(a, funcs, variables, steps) for a in e.args]
        if len(args) != len(closure.fundef.params):
            raise EvalError(f"arity mismatch calling {e.name}")
        frame = dict(closure.variables)
        frame.update(zip(closure.fundef.params, args))
        return _eval(closure.fundef.body, closure.funcs, frame, steps)
    if isinstance(e, ast.Let):
        defs = e.defs.defs if isinstance(e.defs, ast.FunDefList) else ()
        inner = dict(funcs)
        for fd in defs:
            inner[fd.name] = _Closure(fd, inner, variables)
        return _eval(e.body, inner, variables, steps)
    raise EvalError(f"cannot evaluate {e.tag}")


# -- focus planting -----------------------------------------------------------


def expr_nodes_under_let(program: ast.Program) -> list[ast.Expression]:
    """Expressions that have an enclosing let (so extraction has a host),
    excluding focus-illegal positions: nothing from ``defs`` sections and
    not the whole program body."""
    out: list[ast.Expression] = []

    def walk(t, inside_let: bool) -> None:
        if isinstance(t, ast.Let):
            walk(t.defs, True)
            walk(t.body, True)
            return
        if isinstance(t, ast.Expression) and inside_let:
            out.append(t)
        for c in t.children():
            walk(c, inside_let)

    walk(program.body, False)
    return out


def used_identifiers(t) -> set[str]:
    out = set(a for a in t.atoms() if isinstance(a, str))
    for c in t.children():
        out |= used_identifiers(c)
    return out


def fresh_name(program: ast.Program, base: str = "picked") -> str:
    taken = used_identifiers(program)
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def nested_lets(depth: int) -> tuple[str, list[str]]:
    """``depth`` lets, each nested in the body of the one above, one line
    per element. Level ``i`` defines ``f{i}(x) = x * {i} + 1``; the second
    result holds, per level (index 0 unused), the span of that ``x * {i}``
    in ``L:C-L:C`` form."""
    lines: list[str] = []
    spans = [""]
    for i in range(1, depth + 1):
        head = f"f{i}(x) = "
        lines += ["let", f"{head}x * {i} + 1;", "in"]
        row, col = len(lines) - 1, len(head) + 1
        spans.append(f"{row}:{col}-{row}:{col + len(f'x * {i}')}")
        lines.append(f"f{i}(1) + (" if i < depth else f"f{i}(1)" + ")" * (depth - 1))
    return "\n".join(lines) + "\n", spans
