"""Deterministic JOOS pretty-printer.

4-space indent, one statement per line, a single space around binary
operators, and only the parentheses that precedence requires, so the
printer is a fixpoint of print-then-parse. Every body under a head (a
method header, ``while``, ``if``, ``else``) follows one rule, ``_body``:
a block opens with `` {`` on the head's line and closes with ``}`` at
its indent; any other statement goes on the next line, one level deeper.
An ``else`` after a block joins its ``}``, and a method body that is not
a block still prints inside braces. Focus wrappers are rejected
(``FocusPresent``) where the printer meets one.
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
        params = ", ".join(f"{f.type_name} {f.name}" for f in m.formals)
        body = m.body if isinstance(m.body, ast.Block) else ast.Block((m.body,))
        _body(f"{_INDENT}{m.return_type} {m.name}({params})", body, 1, lines)
    lines.append("}")
    return "\n".join(lines)


def _body(head: str, s: ast.Statement, indent: int, out: list[str]) -> None:
    """Print ``s`` as the body of ``head``, a line at ``indent``."""
    if isinstance(s, ast.Block):
        out.append(head + " {")
        for inner in s.statements:
            _stmt_lines(inner, indent + 1, out)
        out.append(_INDENT * indent + "}")
    else:
        out.append(head)
        _stmt_lines(s, indent + 1, out)


def _stmt_lines(s: ast.Statement, indent: int, out: list[str]) -> None:
    pad = _INDENT * indent
    if isinstance(s, ast.Block):  # not through _body: one frame per nested block
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
        _body(f"{pad}while ({_expr(s.condition)})", s.body, indent, out)
    elif isinstance(s, ast.If):
        _body(f"{pad}if ({_expr(s.condition)})", s.then_branch, indent, out)
        if s.else_branch is not None:  # after a block, else joins its closing brace
            head = out.pop() + " else" if isinstance(s.then_branch, ast.Block) else pad + "else"
            _body(head, s.else_branch, indent, out)
    else:
        raise FocusPresent(_WRAPPED)


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
