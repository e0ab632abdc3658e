"""JOOS abstract syntax: a mini-Java with classes, fields, void/int/boolean
methods, structured statements and expressions.

Node kinds per sort:

* ``JoosStatement``: Block, LocalVarDecl, Assign, If, While, Return,
  CallStmt, and the StatementFocus wrapper.
* ``JoosExpression``: IntLit, BoolLit, VarRef, Call, BinOp, Not.
* ``JoosMethodList``: MethodList and the MethodDeclarationFocus wrapper.
* One sort each for programs, classes, fields, methods and formals.

Each node class is declared with ``terms.node`` on its sort class; its
source span is the one ``Term`` declares for every node, parse metadata
(excluded from structural equality) used only to place a focus.

Focus wrappers share the sort of the domain they wrap, so wrapping and
unwrapping are sort-preserving rewrites; ``FOCUS_KINDS`` lists them.
"""

from __future__ import annotations

from ..terms import Sort, Term, node

PROGRAM = Sort("JoosProgram")
CLASS = Sort("JoosClass")
FIELD = Sort("JoosField")
METHOD = Sort("JoosMethod")
METHOD_LIST = Sort("JoosMethodList")
FORMAL = Sort("JoosFormal")
STATEMENT = Sort("JoosStatement")
EXPRESSION = Sort("JoosExpression")


class Expression(Term):
    sort = EXPRESSION
    __slots__ = ()


class Statement(Term):
    sort = STATEMENT
    __slots__ = ()


class MethodSection(Term):
    """Either a plain method list or one wrapped in a host focus."""

    sort = METHOD_LIST
    __slots__ = ()


@node
class IntLit(Expression):
    value: int


@node
class BoolLit(Expression):
    value: bool


@node
class VarRef(Expression):
    name: str


@node
class Call(Expression):
    this_qualified: bool
    name: str
    args: tuple[Expression, ...]


@node
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@node
class Not(Expression):
    operand: Expression


@node
class Block(Statement):
    statements: tuple[Statement, ...]


@node
class LocalVarDecl(Statement):
    type_name: str
    name: str
    init: Expression | None


@node
class Assign(Statement):
    name: str
    value: Expression


@node
class If(Statement):
    condition: Expression
    then_branch: Statement
    else_branch: Statement | None


@node
class While(Statement):
    condition: Expression
    body: Statement


@node
class Return(Statement):
    value: Expression | None


@node
class CallStmt(Statement):
    call: Call


@node
class StatementFocus(Statement):
    statement: Statement


@node
class Formal(Term):
    sort = FORMAL
    type_name: str
    name: str


@node
class MethodDecl(Term):
    sort = METHOD
    return_type: str
    name: str
    formals: tuple[Formal, ...]
    body: Statement


@node
class MethodList(MethodSection):
    methods: tuple[MethodDecl, ...]


@node
class MethodDeclarationFocus(MethodSection):
    inner: MethodList


@node
class FieldDecl(Term):
    sort = FIELD
    type_name: str
    name: str


@node
class ClassDecl(Term):
    sort = CLASS
    name: str
    fields: tuple[FieldDecl, ...]
    methods: MethodSection


@node
class Program(Term):
    sort = PROGRAM
    classes: tuple[ClassDecl, ...]


ETYPES = ("int", "boolean")

# Focus kinds a caller can place: kind name -> (sort, wrapper class).
FOCUS_KINDS = {
    "statement": (STATEMENT, StatementFocus),
    "methodlist": (METHOD_LIST, MethodDeclarationFocus),
}
