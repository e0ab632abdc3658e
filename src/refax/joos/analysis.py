"""Name analyses for JOOS.

JOOS has a single name space: variables, fields, parameters and methods
are all plain identifiers. Types split into expression types (int,
boolean) and method types (result plus parameter types).

The queries feed the generic framework:

* ``binds`` states the variable scopes once: a block binds its immediate
  local declarations, throughout the block; a method its parameters (the
  class binds its header); a class its method headers and then its
  fields, so a field hides a method of the same name.
* ``declared_pairs`` succeeds on exactly those binders with ``binds``
  typed (``MethodType`` for a header, ``ExprType`` otherwise), so a
  block or class that declares nothing yields ``()``.
* ``defined_names`` succeeds on assignments with the assigned name.
* ``used_names`` succeeds on identifier expressions. Call names are
  member references resolved at class scope, not variable uses, so they
  stay out of the free-name currency (they survive an extraction
  unchanged and can never become parameters).
* ``referenced_names`` is the choice of the two.

``static_check`` resolves every variable use through frames of what
``binds`` yields at the class, the method and each block, and never types a
declaration. It reports unresolved names, duplicate methods, arity
mismatches and assignments to non-variables (method headers). It is not
a type checker. A focus wrapper is rejected (``FocusPresent``) where
the check meets one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..framework import FocusPresent, NameTypePair
from ..strategy import QueryTU, SortCase, choice_tu, mono_tu
from ..terms import Term
from . import ast


@dataclass(frozen=True)
class ExprType:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MethodType:
    result: str
    params: tuple[str, ...]

    def __str__(self) -> str:
        return f"({', '.join(self.params)}) -> {self.result}"


def binds(t: ast.Block | ast.MethodDecl | ast.ClassDecl) -> Sequence[Term]:
    """The declarations the binder ``t`` puts in scope over its subtree; a
    later one hides an earlier one of the same name."""
    if isinstance(t, ast.Block):
        return [s for s in t.statements if isinstance(s, ast.LocalVarDecl)]
    if isinstance(t, ast.MethodDecl):
        return t.formals
    methods = t.methods.methods if isinstance(t.methods, ast.MethodList) else ()
    return methods + t.fields


def _pair(d: Term) -> NameTypePair:
    if isinstance(d, ast.MethodDecl):
        return NameTypePair(d.name, MethodType(d.return_type, tuple(f.type_name for f in d.formals)))
    return NameTypePair(d.name, ExprType(d.type_name))


def _declared(t: ast.Block | ast.MethodDecl | ast.ClassDecl) -> tuple[NameTypePair, ...]:
    return tuple(map(_pair, binds(t)))


declared_pairs: QueryTU = choice_tu(
    choice_tu(
        mono_tu(SortCase(ast.Block, _declared)),
        mono_tu(SortCase(ast.MethodDecl, _declared)),
    ),
    mono_tu(SortCase(ast.ClassDecl, _declared)),
)


def _name(t: ast.Assign | ast.VarRef) -> tuple[str, ...]:
    return (t.name,)


defined_names: QueryTU = mono_tu(SortCase(ast.Assign, _name))
used_names: QueryTU = mono_tu(SortCase(ast.VarRef, _name))
referenced_names: QueryTU = choice_tu(defined_names, used_names)


# ---------------------------------------------------------------------------
# Static checking
# ---------------------------------------------------------------------------

_WRAPPED = "static check requires a wrapper-free program"


def static_check(program: ast.Program) -> list[str]:
    """Diagnostics for unresolved names, duplicate methods, call-arity
    mismatches and assignments to non-variables. Empty means clean."""
    diags: list[str] = []
    for cls in program.classes:
        _check_class(cls, diags)
    return diags


def _check_class(cls: ast.ClassDecl, diags: list[str]) -> None:
    if not isinstance(cls.methods, ast.MethodList):
        raise FocusPresent(_WRAPPED)
    methods = cls.methods.methods
    arities: dict[str, int] = {}
    for m in methods:
        if m.name in arities:
            diags.append(f"class {cls.name}: duplicate method '{m.name}'")
        else:
            arities[m.name] = len(m.formals)
    class_frame = _frame(binds(cls))
    for m in methods:
        scopes = [class_frame, _frame(binds(m))]
        _check_stmt(m.body, scopes, arities, f"{cls.name}.{m.name}", diags)


def _frame(decls: Sequence[Term]) -> dict[str, Term]:
    return {d.name: d for d in decls}


def _resolve(name: str, scopes: list[dict[str, Term]]) -> Term | None:
    for scope in reversed(scopes):
        if name in scope:
            return scope[name]
    return None


def _check_stmt(s, scopes, arities, where, diags) -> None:
    if isinstance(s, ast.Block):
        decls = binds(s)
        if decls:  # no empty frame for the uses below to search
            scopes.append(_frame(decls))
        for inner in s.statements:
            _check_stmt(inner, scopes, arities, where, diags)
        if decls:
            scopes.pop()
    elif isinstance(s, ast.LocalVarDecl):
        if s.init is not None:
            _check_expr(s.init, scopes, arities, where, diags)
    elif isinstance(s, ast.Assign):
        decl = _resolve(s.name, scopes)
        if decl is None:
            diags.append(f"{where}: assignment to undeclared variable '{s.name}'")
        elif isinstance(decl, ast.MethodDecl):
            diags.append(f"{where}: assignment to non-variable '{s.name}'")
        _check_expr(s.value, scopes, arities, where, diags)
    elif isinstance(s, ast.If):
        _check_expr(s.condition, scopes, arities, where, diags)
        _check_stmt(s.then_branch, scopes, arities, where, diags)
        if s.else_branch is not None:
            _check_stmt(s.else_branch, scopes, arities, where, diags)
    elif isinstance(s, ast.While):
        _check_expr(s.condition, scopes, arities, where, diags)
        _check_stmt(s.body, scopes, arities, where, diags)
    elif isinstance(s, ast.Return):
        if s.value is not None:
            _check_expr(s.value, scopes, arities, where, diags)
    elif isinstance(s, ast.CallStmt):
        _check_expr(s.call, scopes, arities, where, diags)
    else:
        raise FocusPresent(_WRAPPED)


def _check_expr(e, scopes, arities, where, diags) -> None:
    if isinstance(e, ast.VarRef):
        if _resolve(e.name, scopes) is None:
            diags.append(f"{where}: unresolved name '{e.name}'")
    elif isinstance(e, ast.Call):
        if e.name not in arities:
            diags.append(f"{where}: call of undefined method '{e.name}'")
        elif arities[e.name] != len(e.args):
            diags.append(
                f"{where}: call arity mismatch for '{e.name}' "
                f"(expected {arities[e.name]}, got {len(e.args)})"
            )
        for a in e.args:
            _check_expr(a, scopes, arities, where, diags)
    elif isinstance(e, ast.BinOp):
        _check_expr(e.left, scopes, arities, where, diags)
        _check_expr(e.right, scopes, arities, where, diags)
    elif isinstance(e, ast.Not):
        _check_expr(e.operand, scopes, arities, where, diags)
