"""JOOS ingredients of the generic refactorings.

``joos.LANGUAGE`` builds extract-method and introduce-method from the
method-list host, the extraction precondition and the method signature
below; its focus recognisers come from ``ast.FOCUS_KINDS``. Extracted
methods always have result void: the fragment is a statement, returns
inside it are rejected, and assignments to free variables are rejected,
so no value flows back. Generated calls are this-qualified.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

from .. import framework
from ..framework import AbstractionSignature, CheckFailed, ConstructorRejected, NoHost
from ..lexing import is_identifier
from ..strategy import SortCase, StrategyFailure, focus_paths, mono_tu
from . import ast
from .analysis import ExprType, declared_pairs, defined_names
from .parser import _KEYWORDS


def _wrap_method_list(t: ast.MethodSection) -> ast.MethodSection:
    if isinstance(t, ast.MethodList):
        return ast.MethodDeclarationFocus(t)
    raise StrategyFailure("not a plain method list")


# The host case names the constructor it accepts, so the strategies built
# from it pass every other node without entering it.
method_list_host = SortCase(ast.MethodList, _wrap_method_list)


# -- the Abstraction instance for JOOS method declarations ------------------


def _make_formals(pairs) -> tuple[ast.Formal, ...]:
    formals = []
    for p in pairs:
        if not isinstance(p.tpe, ExprType):
            raise ConstructorRejected(f"formal {p.name!r} has a non-expression type {p.tpe}")
        formals.append(ast.Formal(p.tpe.name, p.name))
    return tuple(formals)


def _make_actuals(pairs) -> tuple[ast.VarRef, ...]:
    return tuple(ast.VarRef(p.name) for p in pairs)


def _make_abstraction(name: str, formals, body) -> ast.MethodDecl:
    if not is_identifier(name, _KEYWORDS):
        raise ConstructorRejected(f"{name!r} is not a JOOS identifier")
    return ast.MethodDecl("void", name, tuple(formals), body)


def _body_from_fragment(fragment) -> ast.Block:
    if isinstance(fragment, ast.Block):
        return fragment
    return ast.Block((fragment,))


method_signature = AbstractionSignature(
    get_abs_name=attrgetter("name"),
    make_abstraction=_make_abstraction,
    make_formals=_make_formals,
    make_application=lambda name, actuals: ast.Call(True, name, tuple(actuals)),
    make_actuals=_make_actuals,
    body_from_fragment=_body_from_fragment,
    fragment_from_application=lambda call: ast.CallStmt(call),
)


# -- extraction preconditions ------------------------------------------------


def _contains_return(fragment: ast.Statement) -> bool:
    returns = mono_tu(SortCase(ast.Return, lambda t: True))
    return next(focus_paths(returns, fragment), None) is not None


def check_extractable(fragment: ast.Statement) -> None:
    """A fragment is extractable when it contains no return statement,
    assigns only variables it declares itself, and is not a bare local
    declaration (whose variable would go out of scope at the old site)."""
    if _contains_return(fragment):
        raise CheckFailed("HasReturn")
    declared = framework.declared_names(declared_pairs)
    frees = framework.free_names(declared, defined_names, fragment)
    if frees:
        raise CheckFailed(f"AssignsFreeVariable({frees[0]})")
    if isinstance(fragment, ast.LocalVarDecl):
        raise CheckFailed("ExtractsDeclaration")


def focus_class_methods(program: ast.Program, class_name: str) -> ast.Program:
    """Wrap the method list of the first class named ``class_name``. A
    parsed program holds only plain method lists."""

    def wrap(cls: ast.ClassDecl) -> ast.ClassDecl:
        return dataclasses.replace(cls, methods=ast.MethodDeclarationFocus(cls.methods))

    try:
        return framework.wrap_first(ast.ClassDecl, lambda c: c.name == class_name, wrap, program)
    except StrategyFailure:
        raise NoHost(f"no class named {class_name!r}") from None
