"""JOOS abstract syntax: a mini-Java with classes, fields, void/int/boolean
methods, structured statements and expressions.

Node kinds per sort:

* ``JoosStatement``: Block, LocalVarDecl, Assign, If, While, Return,
  CallStmt, and the StatementFocus wrapper.
* ``JoosExpression``: IntLit, BoolLit, VarRef, Call, BinOp, Not.
* ``JoosMethodList``: MethodList and the MethodDeclarationFocus wrapper.
* One sort each for programs, classes, fields, methods and formals.

Focus wrappers share the sort of the domain they wrap, so wrapping and
unwrapping are sort-preserving rewrites; ``FOCUS_KINDS`` lists them.
Source spans are parse metadata (excluded from structural equality) used
only to place a focus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lexing import Offsets
from ..terms import Sort, Term

PROGRAM = Sort("JoosProgram")
CLASS = Sort("JoosClass")
FIELD = Sort("JoosField")
METHOD = Sort("JoosMethod")
METHOD_LIST = Sort("JoosMethodList")
FORMAL = Sort("JoosFormal")
STATEMENT = Sort("JoosStatement")
EXPRESSION = Sort("JoosExpression")


@dataclass(frozen=True)
class JoosNode(Term):
    span: Offsets | None = field(default=None, kw_only=True, compare=False, repr=False)


class Expression(JoosNode):
    sort = EXPRESSION


class Statement(JoosNode):
    sort = STATEMENT


class MethodSection(JoosNode):
    """Either a plain method list or one wrapped in a host focus."""

    sort = METHOD_LIST


@dataclass(frozen=True)
class IntLit(Expression):
    value: int


@dataclass(frozen=True)
class BoolLit(Expression):
    value: bool


@dataclass(frozen=True)
class VarRef(Expression):
    name: str


@dataclass(frozen=True)
class Call(Expression):
    this_qualified: bool
    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression


@dataclass(frozen=True)
class Block(Statement):
    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class LocalVarDecl(Statement):
    type_name: str
    name: str
    init: Expression | None


@dataclass(frozen=True)
class Assign(Statement):
    name: str
    value: Expression


@dataclass(frozen=True)
class If(Statement):
    condition: Expression
    then_branch: Statement
    else_branch: Statement | None


@dataclass(frozen=True)
class While(Statement):
    condition: Expression
    body: Statement


@dataclass(frozen=True)
class Return(Statement):
    value: Expression | None


@dataclass(frozen=True)
class CallStmt(Statement):
    call: Call


@dataclass(frozen=True)
class StatementFocus(Statement):
    statement: Statement


@dataclass(frozen=True)
class Formal(JoosNode):
    sort = FORMAL
    type_name: str
    name: str


@dataclass(frozen=True)
class MethodDecl(JoosNode):
    sort = METHOD
    return_type: str
    name: str
    formals: tuple[Formal, ...]
    body: Statement


@dataclass(frozen=True)
class MethodList(MethodSection):
    methods: tuple[MethodDecl, ...]


@dataclass(frozen=True)
class MethodDeclarationFocus(MethodSection):
    inner: MethodList


@dataclass(frozen=True)
class FieldDecl(JoosNode):
    sort = FIELD
    type_name: str
    name: str


@dataclass(frozen=True)
class ClassDecl(JoosNode):
    sort = CLASS
    name: str
    fields: tuple[FieldDecl, ...]
    methods: MethodSection


@dataclass(frozen=True)
class Program(JoosNode):
    sort = PROGRAM
    classes: tuple[ClassDecl, ...]


ETYPES = ("int", "boolean")

# Focus kinds a caller can place: kind name -> (sort, wrapper class).
FOCUS_KINDS = {
    "statement": (STATEMENT, StatementFocus),
    "methodlist": (METHOD_LIST, MethodDeclarationFocus),
}
