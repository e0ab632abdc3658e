"""Minilet ingredients of the generic refactorings.

``minilet.LANGUAGE`` builds extract-function and introduce-function from
the host case and the function signature below; its focus recognisers
come from ``ast.FOCUS_KINDS``. The host of a focused expression is the
definition list of the innermost enclosing let, found by marking let
nodes whose subtree contains the focus; a focus in the let body and a
focus inside one of its definitions both belong to that let's list.
Extraction needs no language-specific precondition: pure expressions
contain no returns or assignments.
"""

from __future__ import annotations

from operator import attrgetter

from ..framework import AbstractionSignature, ConstructorRejected
from ..lexing import is_identifier
from ..strategy import SortCase, StrategyFailure
from . import ast
from .parser import _KEYWORDS


def _wrap_let_defs(t: ast.Expression) -> ast.Expression:
    if isinstance(t, ast.Let) and isinstance(t.defs, ast.FunDefList):
        return ast.Let(ast.FunDefListFocus(t.defs), t.body, span=t.span)
    raise StrategyFailure("not a let with a plain definition list")


# As in JOOS, the host case names the constructor it accepts.
let_defs_host = SortCase(ast.Let, _wrap_let_defs)


def _make_abstraction(name: str, formals, body) -> ast.FunDef:
    if not is_identifier(name, _KEYWORDS):
        raise ConstructorRejected(f"{name!r} is not a minilet identifier")
    return ast.FunDef(name, tuple(formals), body)


function_signature = AbstractionSignature(
    get_abs_name=attrgetter("name"),
    make_abstraction=_make_abstraction,
    make_formals=lambda pairs: tuple(p.name for p in pairs),
    make_application=lambda name, actuals: ast.Call(name, tuple(actuals)),
    make_actuals=lambda pairs: tuple(ast.Var(p.name) for p in pairs),
    body_from_fragment=lambda fragment: fragment,
    fragment_from_application=lambda call: call,
)


def check_extractable(fragment: ast.Expression) -> None:
    """Pure expressions carry no extraction conditions."""
