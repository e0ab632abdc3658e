"""Deterministic minilet pretty-printer.

Simple expressions stay inline. A let spans several lines, indented by 4
spaces: ``let`` where its caller put it, each definition one level deeper
than that line, ``in`` at its level and the body one level deeper. A let
that is a definition's body starts on the next line, one level deeper; a
let in operand position is parenthesised so the in-expression cannot
absorb the surrounding operator when reparsed. Focus wrappers are
rejected (``FocusPresent``) where the printer meets one.
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
    if not isinstance(e.defs, ast.FunDefList):
        raise FocusPresent(_WRAPPED)
    pad = _INDENT * indent
    lines = ["let"]
    for fd in e.defs.defs:  # a plain loop: a generator would add a frame per level
        lines.append(_fundef(fd, indent + 1))
    lines.append(pad + "in")
    lines.append(pad + _INDENT + _expr(e.body, indent + 1))
    return "\n".join(lines)


def _fundef(fd: ast.FunDef, indent: int) -> str:
    pad = _INDENT * indent
    head = f"{pad}{fd.name}({', '.join(fd.params)}) ="
    if isinstance(fd.body, ast.Let):
        return head + "\n" + _INDENT * (indent + 1) + _let(fd.body, indent + 1) + ";"
    return f"{head} {_expr(fd.body, indent)};"
