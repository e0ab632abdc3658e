"""Minilet instantiation of the generic refactorings.

The host of a focused expression is the definition list of the innermost
enclosing let, found by marking let nodes whose subtree contains the
focus; a focus in the let body and a focus inside one of its definitions
both belong to that let's list. Extraction needs no language-specific
precondition: pure expressions contain no returns or assignments.
"""

from __future__ import annotations

import dataclasses

from .. import framework
from ..framework import AbstractionSignature, ConstructorRejected
from ..strategy import SortCase, StrategyFailure
from . import ast
from .analysis import declared_pairs, referenced_names


def _unwrap_expr_focus(t: ast.Expression) -> ast.Expression:
    if isinstance(t, ast.ExprFocus):
        return t.expr
    raise StrategyFailure("no expression focus here")


def _wrap_let_defs(t: ast.Expression) -> ast.Expression:
    if isinstance(t, ast.Let) and isinstance(t.defs, ast.FunDefList):
        return dataclasses.replace(t, defs=ast.FunDefListFocus(t.defs))
    raise StrategyFailure("not a let with a plain definition list")


def _unwrap_list_focus(t: ast.FunDefSection) -> ast.FunDefList:
    if isinstance(t, ast.FunDefListFocus):
        return t.inner
    raise StrategyFailure("no definition list focus here")


# As in JOOS, each case names the constructor it accepts; called directly,
# each function still refuses other constructors by raising.
expr_focus = SortCase(ast.EXPRESSION, _unwrap_expr_focus, ast.ExprFocus)
let_defs_host = SortCase(ast.EXPRESSION, _wrap_let_defs, ast.Let)
fundef_list_focus = SortCase(ast.FUNDEF_LIST, _unwrap_list_focus, ast.FunDefListFocus)


def _make_formals(pairs) -> tuple[str, ...]:
    for p in pairs:
        if p.tpe != ast.VAL:
            raise ConstructorRejected(f"formal {p.name!r} has unexpected type {p.tpe}")
    return tuple(p.name for p in pairs)


def _make_abstraction(name: str, formals, body) -> ast.FunDef:
    if not isinstance(body, ast.Expression):
        raise ConstructorRejected(f"function body must be an expression, got {body.tag}")
    return ast.FunDef(name, tuple(formals), body)


def _get_abs_name(fd) -> str:
    if isinstance(fd, ast.FunDef):
        return fd.name
    raise ConstructorRejected(f"not a function definition: {fd.tag}")


function_signature = AbstractionSignature(
    get_abs_name=_get_abs_name,
    make_abstraction=_make_abstraction,
    make_formals=_make_formals,
    make_application=lambda name, actuals: ast.Call(name, tuple(actuals)),
    make_actuals=lambda pairs: tuple(ast.Var(p.name) for p in pairs),
    body_from_fragment=lambda fragment: fragment,
    fragment_from_application=lambda call: call,
)


def check_extractable(fragment: ast.Expression) -> None:
    """Pure expressions carry no extraction conditions."""


def extract_function(new_name: str, program: ast.Program) -> ast.Program:
    """Extract the focused expression into a new function of the innermost
    enclosing let, replacing the focus with a call."""
    return framework.extract(
        declared_pairs,
        referenced_names,
        expr_focus,
        let_defs_host,
        fundef_list_focus,
        check_extractable,
        function_signature,
        new_name,
        program,
    )


def introduce_function(fundef: ast.FunDef, program: ast.Program) -> ast.Program:
    """Append ``fundef`` to the focused definition list, rejecting clashes."""
    return framework.introduce(
        declared_pairs,
        referenced_names,
        fundef_list_focus,
        function_signature,
        fundef,
        program,
    )
