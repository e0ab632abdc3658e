"""Name analyses for JOOS.

JOOS has a single name space: variables, fields, parameters and methods
are all plain identifiers. Types split into expression types (int,
boolean) and method types (result plus parameter types).

The queries feed the generic framework:

* ``declared_pairs`` succeeds on binding constructs with the name-type
  pairs they put in scope for their subtree: a block contributes its
  immediate local declarations, a method its own header pair and its
  parameters, a class its fields and the headers of its methods. Blocks
  and classes are always binders, so one that declares nothing yields
  ``()``. It also succeeds on the declaring nodes themselves (local
  declarations, formals, fields) with their single pair.
* ``defined_names`` succeeds on assignments with the assigned name.
* ``used_names`` succeeds on identifier expressions. Call names are
  member references resolved at class scope, not variable uses, so they
  stay out of the free-name currency (they survive an extraction
  unchanged and can never become parameters).
* ``referenced_names`` is the choice of the two.

``static_check`` resolves every use the same way a compiler frontend
would (declarations are visible throughout their block) and reports
unresolved names, duplicate methods, arity mismatches and assignments to
non-variables. It is not a type checker. A focus wrapper is rejected
(``FocusPresent``) where the check meets one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..framework import FocusPresent, NameTypePair
from ..strategy import QueryTU, SortCase, choice_tu, mono_tu
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


def _method_header_pair(m: ast.MethodDecl) -> NameTypePair:
    return NameTypePair(m.name, MethodType(m.return_type, tuple(f.type_name for f in m.formals)))


def _formal_pairs(m: ast.MethodDecl) -> tuple[NameTypePair, ...]:
    return tuple(NameTypePair(f.name, ExprType(f.type_name)) for f in m.formals)


def _declared_statement(t: ast.LocalVarDecl | ast.Block) -> tuple[NameTypePair, ...]:
    if isinstance(t, ast.LocalVarDecl):
        return (NameTypePair(t.name, ExprType(t.type_name)),)
    return tuple(
        NameTypePair(s.name, ExprType(s.type_name))
        for s in t.statements if isinstance(s, ast.LocalVarDecl)
    )


def _declared_method(t: ast.MethodDecl) -> tuple[NameTypePair, ...]:
    return (_method_header_pair(t),) + _formal_pairs(t)


def _declared_class(t: ast.ClassDecl) -> tuple[NameTypePair, ...]:
    pairs = [NameTypePair(f.name, ExprType(f.type_name)) for f in t.fields]
    if isinstance(t.methods, ast.MethodList):
        pairs.extend(_method_header_pair(m) for m in t.methods.methods)
    return tuple(pairs)


declared_pairs: QueryTU = choice_tu(
    choice_tu(
        mono_tu(SortCase(ast.STATEMENT, _declared_statement, (ast.LocalVarDecl, ast.Block))),
        mono_tu(SortCase(ast.METHOD, _declared_method)),
    ),
    choice_tu(
        choice_tu(
            mono_tu(SortCase(ast.CLASS, _declared_class)),
            mono_tu(SortCase(ast.FORMAL, lambda t: (NameTypePair(t.name, ExprType(t.type_name)),))),
        ),
        mono_tu(SortCase(ast.FIELD, lambda t: (NameTypePair(t.name, ExprType(t.type_name)),))),
    ),
)


def _name(t: ast.Assign | ast.VarRef) -> tuple[str, ...]:
    return (t.name,)


defined_names: QueryTU = mono_tu(SortCase(ast.STATEMENT, _name, ast.Assign))
used_names: QueryTU = mono_tu(SortCase(ast.EXPRESSION, _name, ast.VarRef))
referenced_names: QueryTU = choice_tu(defined_names, used_names)


# ---------------------------------------------------------------------------
# Static checking
# ---------------------------------------------------------------------------

_VAR = "variable"
_METHOD = "method"
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
    class_scope = {m.name: _METHOD for m in methods}
    class_scope.update({f.name: _VAR for f in cls.fields})
    for m in methods:
        scopes = [class_scope, {f.name: _VAR for f in m.formals}]
        _check_stmt(m.body, scopes, arities, f"{cls.name}.{m.name}", diags)


def _resolve(name: str, scopes: list[dict[str, str]]) -> str | None:
    for scope in reversed(scopes):
        if name in scope:
            return scope[name]
    return None


def _check_stmt(s, scopes, arities, where, diags) -> None:
    if isinstance(s, ast.Block):
        frame = {d.name: _VAR for d in s.statements if isinstance(d, ast.LocalVarDecl)}
        scopes.append(frame)
        for inner in s.statements:
            _check_stmt(inner, scopes, arities, where, diags)
        scopes.pop()
    elif isinstance(s, ast.LocalVarDecl):
        if s.init is not None:
            _check_expr(s.init, scopes, arities, where, diags)
    elif isinstance(s, ast.Assign):
        kind = _resolve(s.name, scopes)
        if kind is None:
            diags.append(f"{where}: assignment to undeclared variable '{s.name}'")
        elif kind != _VAR:
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
