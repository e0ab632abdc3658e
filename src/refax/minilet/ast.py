"""Minilet abstract syntax: an expression language whose only binding
construct is ``let`` over a list of function definitions, with genuinely
nested scopes. Every name has the single universal type ``"val"``.

Node classes are declared with ``terms.node`` and carry the span
``Term`` declares, as in the JOOS instantiation. A sort is the class
deriving ``Term`` that its node classes derive: ``Expression``,
``FunDefSection``, and ``FunDef`` and ``Program``, each its own sort.
Focus wrappers (ExprFocus for fragments, FunDefListFocus for hosts)
derive the sort class of what they wrap; ``FOCUS_KINDS`` lists them.
"""

from __future__ import annotations

from ..terms import Term, node

VAL = "val"


class Expression(Term):
    __slots__ = ()


class FunDefSection(Term):
    """Either a plain definition list or one wrapped in a host focus."""

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
    body: Expression


# Focus kinds a caller can place: kind name -> wrapper class.
FOCUS_KINDS = {
    "expr": ExprFocus,
    "fundeflist": FunDefListFocus,
}
