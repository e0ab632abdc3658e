"""Deterministic minilet pretty-printer.

Lets print over several lines with 4-space indentation; simple
expressions stay inline. A let in operand position is parenthesised so
the in-expression cannot absorb the surrounding operator when reparsed.
Programs containing focus wrappers are rejected (``FocusPresent``) where
the printer meets one.
"""

from __future__ import annotations

from ..framework import FocusPresent
from . import ast
from .parser import BINOP_PRECEDENCE

_INDENT = "    "
_WRAPPED = "cannot print a program containing focus wrappers"


def pretty(program: ast.Program) -> str:
    return _expr(program.body, 0) + "\n"


def _expr(e: ast.Expression, indent: int, context: int = 0) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.Call):
        return f"{e.name}({', '.join(_expr(a, indent) for a in e.args)})"
    if isinstance(e, ast.BinOp):
        prec = BINOP_PRECEDENCE[e.op]
        text = f"{_expr(e.left, indent, prec)} {e.op} {_expr(e.right, indent, prec + 1)}"
        return f"({text})" if prec < context else text
    if isinstance(e, ast.Let):
        text = _let(e, indent)
        return f"({text})" if context > 0 else text
    raise FocusPresent(_WRAPPED)


def _let(e: ast.Let, indent: int) -> str:
    pad = _INDENT * indent
    inner = _INDENT * (indent + 1)
    if not isinstance(e.defs, ast.FunDefList):
        raise FocusPresent(_WRAPPED)
    lines = [pad + "let"]
    for fd in e.defs.defs:
        lines.append(_fundef(fd, indent + 1))
    lines.append(pad + "in")
    lines.append(inner + _expr(e.body, indent + 1))
    # the let keyword itself is placed by the caller's context, so the
    # first line carries no pad when the let is inline
    text = "\n".join(lines)
    return text[len(pad):] if text.startswith(pad) else text


def _fundef(fd: ast.FunDef, indent: int) -> str:
    pad = _INDENT * indent
    head = f"{pad}{fd.name}({', '.join(fd.params)}) ="
    if isinstance(fd.body, ast.Let):
        return head + "\n" + _INDENT * (indent + 1) + _let(fd.body, indent + 1) + ";"
    return f"{head} {_expr(fd.body, indent)};"
