"""Random generator for statically valid JOOS programs, plus the
statements a focus may be planted on.

Method headers are generated before bodies so calls always hit an
existing method with the right arity. Scope discipline matches the
language's rule (declarations are visible throughout their block), and
else-branches are never attached to an if whose then-branch ends in an
open if, which keeps every generated tree inside the parser's image.
"""

from __future__ import annotations

import random

from refax.joos import ast

ETYPES = ("int", "boolean")


def gen_program(rng: random.Random) -> ast.Program:
    classes = tuple(_gen_class(rng, i) for i in range(rng.choice((1, 1, 2))))
    return ast.Program(classes)


def _gen_class(rng: random.Random, index: int) -> ast.ClassDecl:
    name = f"C{index}"
    fields = tuple(
        ast.FieldDecl(rng.choice(ETYPES), f"fld{i}") for i in range(rng.randrange(0, 3))
    )
    headers = []
    for i in range(rng.randrange(1, 4)):
        formals = tuple(
            ast.Formal(rng.choice(ETYPES), f"p{j}") for j in range(rng.randrange(0, 3))
        )
        headers.append((rng.choice(("void", "int", "boolean")), f"m{i}", formals))
    arities = {name: len(formals) for _, name, formals in headers}
    methods = []
    for return_type, mname, formals in headers:
        scope = [f.name for f in fields] + [f.name for f in formals]
        body = _gen_block(rng, scope, arities, depth=0)
        methods.append(ast.MethodDecl(return_type, mname, formals, body))
    return ast.ClassDecl(name, fields, ast.MethodList(tuple(methods)))


def _gen_block(rng, scope: list[str], arities: dict[str, int], depth: int) -> ast.Block:
    scope = list(scope)
    fresh = 0
    statements = []
    own_locals: list[str] = []
    for _ in range(rng.randrange(1, 5)):
        statements.append(_gen_statement(rng, scope, own_locals, arities, depth, fresh))
        fresh += 1
    return ast.Block(tuple(statements))


def _gen_statement(rng, scope, own_locals, arities, depth, fresh) -> ast.Statement:
    roll = rng.random()
    if roll < 0.28:
        outer_only = [n for n in scope if n not in own_locals]
        if rng.random() < 0.2 and outer_only:
            name = rng.choice(outer_only)  # shadow an outer binding
        else:
            name = f"v{depth}_{fresh}"
            while name in scope:
                name += "x"
        init = _gen_expr(rng, scope, arities, 2) if rng.random() < 0.5 else None
        decl = ast.LocalVarDecl(rng.choice(ETYPES), name, init)
        scope.append(name)
        own_locals.append(name)
        return decl
    if roll < 0.52 and scope:
        pool = own_locals if own_locals and rng.random() < 0.6 else scope
        return ast.Assign(rng.choice(pool), _gen_expr(rng, scope, arities, 2))
    if roll < 0.64 and arities:
        name = rng.choice(sorted(arities))
        args = tuple(_gen_expr(rng, scope, arities, 1) for _ in range(arities[name]))
        return ast.CallStmt(ast.Call(True, name, args))
    if roll < 0.74 and depth < 2:
        cond = _gen_expr(rng, scope, arities, 2)
        then_branch = _gen_branch(rng, scope, arities, depth)
        else_branch = _gen_branch(rng, scope, arities, depth) if rng.random() < 0.4 else None
        if else_branch is not None and _ends_with_open_if(then_branch):
            then_branch = ast.Block((then_branch,))
        return ast.If(cond, then_branch, else_branch)
    if roll < 0.82 and depth < 2:
        return ast.While(_gen_expr(rng, scope, arities, 2), _gen_branch(rng, scope, arities, depth))
    if roll < 0.90:
        value = _gen_expr(rng, scope, arities, 1) if rng.random() < 0.6 else None
        return ast.Return(value)
    return _gen_block(rng, scope, arities, depth + 1)


def _gen_branch(rng, scope, arities, depth) -> ast.Statement:
    if rng.random() < 0.55:
        return _gen_block(rng, scope, arities, depth + 1)
    if scope and rng.random() < 0.7:
        return ast.Assign(rng.choice(scope), _gen_expr(rng, scope, arities, 1))
    return ast.Return(None)


def _ends_with_open_if(s: ast.Statement) -> bool:
    if isinstance(s, ast.If):
        return s.else_branch is None or _ends_with_open_if(s.else_branch)
    if isinstance(s, ast.While):
        return _ends_with_open_if(s.body)
    return False


def _gen_expr(rng, scope, arities, depth) -> ast.Expression:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if scope and rng.random() < 0.6:
            return ast.VarRef(rng.choice(scope))
        if rng.random() < 0.25:
            return ast.BoolLit(rng.random() < 0.5)
        return ast.IntLit(rng.randrange(0, 100))
    if roll < 0.75:
        op = rng.choice(("+", "-", "*", "/", "<", "==", "&&", "||"))
        return ast.BinOp(op, _gen_expr(rng, scope, arities, depth - 1),
                         _gen_expr(rng, scope, arities, depth - 1))
    if roll < 0.85:
        return ast.Not(_gen_expr(rng, scope, arities, depth - 1))
    if arities:
        name = rng.choice(sorted(arities))
        args = tuple(_gen_expr(rng, scope, arities, depth - 1) for _ in range(arities[name]))
        return ast.Call(rng.random() < 0.8, name, args)
    return ast.IntLit(rng.randrange(0, 100))


# -- focus planting -----------------------------------------------------------


def statement_nodes(program: ast.Program) -> list[ast.Statement]:
    """All statements, excluding method bodies themselves (wrapping the
    whole body would leave the method without a block)."""
    out: list[ast.Statement] = []

    def walk(t, is_method_body: bool) -> None:
        if isinstance(t, ast.Statement) and not is_method_body:
            out.append(t)
        if isinstance(t, ast.MethodDecl):
            walk(t.body, True)
            return
        for c in t.children():
            walk(c, False)

    walk(program, False)
    return out


def used_identifiers(t) -> set[str]:
    out = set(a for a in t.atoms() if isinstance(a, str))
    for c in t.children():
        out |= used_identifiers(c)
    return out


def fresh_name(program: ast.Program, base: str = "helper") -> str:
    taken = used_identifiers(program)
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"
