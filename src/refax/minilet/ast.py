"""Minilet abstract syntax: an expression language whose only binding
construct is ``let`` over a list of function definitions, with genuinely
nested scopes. Every name has the single universal type ``"val"``.

Focus wrappers (ExprFocus for fragments, FunDefListFocus for hosts) share
the sort of what they wrap, as in the JOOS instantiation; ``FOCUS_KINDS``
lists them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lexing import Offsets
from ..terms import Sort, Term

PROGRAM = Sort("MiniletProgram")
EXPRESSION = Sort("MiniletExpr")
FUNDEF = Sort("MiniletFunDef")
FUNDEF_LIST = Sort("MiniletFunDefList")

VAL = "val"


@dataclass(frozen=True)
class MiniletNode(Term):
    span: Offsets | None = field(default=None, kw_only=True, compare=False, repr=False)


class Expression(MiniletNode):
    sort = EXPRESSION


class FunDefSection(MiniletNode):
    """Either a plain definition list or one wrapped in a host focus."""

    sort = FUNDEF_LIST


@dataclass(frozen=True)
class IntLit(Expression):
    value: int


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Call(Expression):
    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Let(Expression):
    defs: FunDefSection
    body: Expression


@dataclass(frozen=True)
class ExprFocus(Expression):
    expr: Expression


@dataclass(frozen=True)
class FunDef(MiniletNode):
    sort = FUNDEF
    name: str
    params: tuple[str, ...]
    body: Expression


@dataclass(frozen=True)
class FunDefList(FunDefSection):
    defs: tuple[FunDef, ...]


@dataclass(frozen=True)
class FunDefListFocus(FunDefSection):
    inner: FunDefList


@dataclass(frozen=True)
class Program(MiniletNode):
    sort = PROGRAM
    body: Expression


# Focus kinds a caller can place: kind name -> (sort, wrapper class).
FOCUS_KINDS = {
    "expr": (EXPRESSION, ExprFocus),
    "fundeflist": (FUNDEF_LIST, FunDefListFocus),
}
