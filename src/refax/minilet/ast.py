"""Minilet abstract syntax: an expression language whose only binding
construct is ``let`` over a list of function definitions, with genuinely
nested scopes. Every name has the single universal type ``"val"``.

Node classes are declared with ``terms.node``, each on its sort class,
and carry the span ``Term`` declares, as in the JOOS instantiation. Focus
wrappers (ExprFocus for fragments, FunDefListFocus for hosts) share the
sort of what they wrap; ``FOCUS_KINDS`` lists them.
"""

from __future__ import annotations

from ..terms import Sort, Term, node

PROGRAM = Sort("MiniletProgram")
EXPRESSION = Sort("MiniletExpr")
FUNDEF = Sort("MiniletFunDef")
FUNDEF_LIST = Sort("MiniletFunDefList")

VAL = "val"


class Expression(Term):
    sort = EXPRESSION
    __slots__ = ()


class FunDefSection(Term):
    """Either a plain definition list or one wrapped in a host focus."""

    sort = FUNDEF_LIST
    __slots__ = ()


@node
class IntLit(Expression):
    value: int


@node
class Var(Expression):
    name: str


@node
class Call(Expression):
    name: str
    args: tuple[Expression, ...]


@node
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@node
class Let(Expression):
    defs: FunDefSection
    body: Expression


@node
class ExprFocus(Expression):
    expr: Expression


@node
class FunDef(Term):
    sort = FUNDEF
    name: str
    params: tuple[str, ...]
    body: Expression


@node
class FunDefList(FunDefSection):
    defs: tuple[FunDef, ...]


@node
class FunDefListFocus(FunDefSection):
    inner: FunDefList


@node
class Program(Term):
    sort = PROGRAM
    body: Expression


# Focus kinds a caller can place: kind name -> (sort, wrapper class).
FOCUS_KINDS = {
    "expr": (EXPRESSION, ExprFocus),
    "fundeflist": (FUNDEF_LIST, FunDefListFocus),
}
