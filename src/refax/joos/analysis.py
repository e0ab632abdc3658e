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

``static_check`` walks each method body once, in preorder over
``children()``, and names only the kinds it judges: a variable use, a
call, an assignment, and a block, which opens a frame of what ``binds``
yields over those of the class and the method. It walks every other node
through in field order, which is source order, so its diagnostics come
in source order. It reports unresolved names, duplicate methods, arity
mismatches and assignments to non-variables (method headers). It never
types a declaration: it is not a type checker. A focus wrapper is
rejected (``FocusPresent``) where the walk meets one.
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
        _check(m.body, scopes, arities, f"{cls.name}.{m.name}", diags)


def _frame(decls: Sequence[Term]) -> dict[str, Term]:
    return {d.name: d for d in decls}


def _resolve(name: str, scopes: list[dict[str, Term]]) -> Term | None:
    for scope in reversed(scopes):
        if name in scope:
            return scope[name]
    return None


def _check(t: Term, scopes, arities, where, diags) -> None:
    """Judge ``t``, then walk its children in field order, which is source
    order; a block that declares opens a frame over its statements."""
    kind = type(t)
    if kind is ast.VarRef:
        if _resolve(t.name, scopes) is None:
            diags.append(f"{where}: unresolved name '{t.name}'")
        return
    if kind is ast.Call:
        if t.name not in arities:
            diags.append(f"{where}: call of undefined method '{t.name}'")
        elif arities[t.name] != len(t.args):
            diags.append(
                f"{where}: call arity mismatch for '{t.name}' "
                f"(expected {arities[t.name]}, got {len(t.args)})"
            )
    elif kind is ast.Assign:
        decl = _resolve(t.name, scopes)
        if decl is None:
            diags.append(f"{where}: assignment to undeclared variable '{t.name}'")
        elif isinstance(decl, ast.MethodDecl):
            diags.append(f"{where}: assignment to non-variable '{t.name}'")
    elif kind is ast.Block and (decls := binds(t)):  # no empty frame to search
        scopes.append(_frame(decls))
        for child in t.children():
            _check(child, scopes, arities, where, diags)
        scopes.pop()
        return
    elif kind is ast.StatementFocus:
        raise FocusPresent(_WRAPPED)
    for child in t.children():
        _check(child, scopes, arities, where, diags)
