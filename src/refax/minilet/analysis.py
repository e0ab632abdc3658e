"""Name analyses for minilet.

Variables are the parameters of function definitions: ``binds`` states
that scope once, ``declared_pairs`` types it with the universal type
``"val"`` and ``resolution_check`` reads it. Function names are not
variables: a let binds them over all its definitions (letrec scoping) in
the call name space, which only calls reference, so as in JOOS they are
not part of the free-name currency. ``referenced_names`` succeeds on
identifier expressions.

``resolution_check`` backs the CLI's check command: unbound variables,
calls to undefined functions, call-arity mismatches and duplicate names
within one definition list. It is one preorder walk over ``children()``
that names only the kinds it judges (a variable, a call, and a let,
which walks its definitions itself) and walks the rest through in field
order, so its diagnostics come in source order. A focus wrapper is
rejected (``FocusPresent``) where the walk meets one.
"""

from __future__ import annotations

from ..framework import FocusPresent, NameTypePair
from ..strategy import QueryTU, SortCase, mono_tu
from . import ast


def binds(t: ast.FunDef) -> tuple[str, ...]:
    """The variables the binder ``t`` puts in scope over its body."""
    return t.params


declared_pairs: QueryTU = mono_tu(
    SortCase(ast.FunDef, lambda t: tuple(NameTypePair(p, ast.VAL) for p in binds(t)))
)
referenced_names: QueryTU = mono_tu(SortCase(ast.Var, lambda t: (t.name,)))


_WRAPPED = "resolution check requires a wrapper-free program"


def resolution_check(program: ast.Program) -> list[str]:
    """Diagnostics for unbound variables, undefined or misapplied
    functions, and duplicate definitions. Empty means clean."""
    diags: list[str] = []
    _check_expr(program.body, {}, frozenset(), diags)
    return diags


def _check_expr(e, funcs: dict[str, int], vars_: frozenset[str], diags: list[str]) -> None:
    """Judge ``e``, then walk its children in field order, which is source
    order, with the functions and variables in scope there. A let walks
    each definition's body itself, with its parameters in scope: one frame
    for a let nested in a definition body, not one each for the let, its
    definition list and the definition."""
    kind = type(e)
    if kind is ast.Var:
        if e.name not in vars_:
            diags.append(f"unbound variable '{e.name}'")
        return
    if kind is ast.Call:
        if e.name not in funcs:
            diags.append(f"call of undefined function '{e.name}'")
        elif funcs[e.name] != len(e.args):
            diags.append(
                f"call arity mismatch for '{e.name}' (expected {funcs[e.name]}, got {len(e.args)})"
            )
    elif kind is ast.Let:
        if not isinstance(e.defs, ast.FunDefList):
            raise FocusPresent(_WRAPPED)
        defs = e.defs.defs
        seen = set()
        for fd in defs:
            if fd.name in seen:
                diags.append(f"duplicate definition of '{fd.name}' in one let")
            seen.add(fd.name)
        funcs = funcs | {fd.name: len(fd.params) for fd in defs}
        for fd in defs:
            dup = [p for p in fd.params if fd.params.count(p) > 1]
            if dup:
                diags.append(f"duplicate parameter '{dup[0]}' of '{fd.name}'")
            _check_expr(fd.body, funcs, vars_ | frozenset(binds(fd)), diags)
        _check_expr(e.body, funcs, vars_, diags)
        return
    elif kind is ast.ExprFocus:
        raise FocusPresent(_WRAPPED)
    for child in e.children():
        _check_expr(child, funcs, vars_, diags)
