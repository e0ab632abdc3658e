"""Deterministic JOOS pretty-printer.

4-space indent, one statement per line, a single space around binary
operators, and only the parentheses that precedence requires, so the
printer is a fixpoint of print-then-parse. Programs containing focus
wrappers are rejected (``FocusPresent``) where the printer meets one;
wrappers are an internal refactoring device and never part of source
text.
"""

from __future__ import annotations

from ..framework import FocusPresent
from . import ast
from .parser import BINOP_PRECEDENCE

_INDENT = "    "
_UNARY_PRECEDENCE = 7
_WRAPPED = "cannot print a program containing focus wrappers"


def pretty(program: ast.Program) -> str:
    return "\n\n".join(_class_lines(c) for c in program.classes) + "\n"


def _class_lines(cls: ast.ClassDecl) -> str:
    lines = [f"class {cls.name} {{"]
    for f in cls.fields:
        lines.append(f"{_INDENT}{f.type_name} {f.name};")
    if not isinstance(cls.methods, ast.MethodList):
        raise FocusPresent(_WRAPPED)
    for i, m in enumerate(cls.methods.methods):
        if i > 0 or cls.fields:
            lines.append("")
        lines.extend(_method_lines(m))
    lines.append("}")
    return "\n".join(lines)


def _method_lines(m: ast.MethodDecl) -> list[str]:
    params = ", ".join(f"{f.type_name} {f.name}" for f in m.formals)
    lines = [f"{_INDENT}{m.return_type} {m.name}({params}) {{"]
    body = m.body.statements if isinstance(m.body, ast.Block) else (m.body,)
    for s in body:
        _stmt_lines(s, 2, lines)
    lines.append(f"{_INDENT}}}")
    return lines


def _stmt_lines(s: ast.Statement, indent: int, out: list[str]) -> None:
    pad = _INDENT * indent
    if isinstance(s, ast.Block):
        out.append(pad + "{")
        for inner in s.statements:
            _stmt_lines(inner, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(s, ast.LocalVarDecl):
        if s.init is None:
            out.append(f"{pad}{s.type_name} {s.name};")
        else:
            out.append(f"{pad}{s.type_name} {s.name} = {_expr(s.init)};")
    elif isinstance(s, ast.Assign):
        out.append(f"{pad}{s.name} = {_expr(s.value)};")
    elif isinstance(s, ast.Return):
        out.append(f"{pad}return;" if s.value is None else f"{pad}return {_expr(s.value)};")
    elif isinstance(s, ast.CallStmt):
        out.append(f"{pad}{_expr(s.call)};")
    elif isinstance(s, ast.While):
        head = f"{pad}while ({_expr(s.condition)})"
        _branch_lines(head, s.body, None, indent, out)
    elif isinstance(s, ast.If):
        head = f"{pad}if ({_expr(s.condition)})"
        _branch_lines(head, s.then_branch, s.else_branch, indent, out)
    else:
        raise FocusPresent(_WRAPPED)


def _branch_lines(
    head: str,
    branch: ast.Statement,
    else_branch: ast.Statement | None,
    indent: int,
    out: list[str],
) -> None:
    pad = _INDENT * indent
    if isinstance(branch, ast.Block):
        out.append(head + " {")
        for inner in branch.statements:
            _stmt_lines(inner, indent + 1, out)
        closing = pad + "}"
    else:
        out.append(head)
        _stmt_lines(branch, indent + 1, out)
        closing = None
    if else_branch is None:
        if closing is not None:
            out.append(closing)
        return
    if isinstance(else_branch, ast.Block):
        out.append((closing + " else {") if closing is not None else pad + "else {")
        for inner in else_branch.statements:
            _stmt_lines(inner, indent + 1, out)
        out.append(pad + "}")
    else:
        out.append((closing + " else") if closing is not None else pad + "else")
        _stmt_lines(else_branch, indent + 1, out)


def _expr(e: ast.Expression, context: int = 0) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ast.VarRef):
        return e.name
    if isinstance(e, ast.Call):
        receiver = "this." if e.this_qualified else ""
        return f"{receiver}{e.name}({', '.join(_expr(a) for a in e.args)})"
    if isinstance(e, ast.Not):
        return _wrap(f"!{_expr(e.operand, _UNARY_PRECEDENCE)}", _UNARY_PRECEDENCE, context)
    if isinstance(e, ast.BinOp):
        prec = BINOP_PRECEDENCE[e.op]
        text = f"{_expr(e.left, prec)} {e.op} {_expr(e.right, prec + 1)}"
        return _wrap(text, prec, context)
    raise FocusPresent(f"unprintable expression {e.tag}")


def _wrap(text: str, prec: int, context: int) -> str:
    return f"({text})" if prec < context else text
