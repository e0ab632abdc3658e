"""JOOS abstract syntax: a mini-Java with classes, fields, void/int/boolean
methods, structured statements and expressions.

A sort is the class deriving ``Term`` that its node classes derive.
Node kinds per sort:

* ``Statement``: Block, LocalVarDecl, Assign, If, While, Return,
  CallStmt, the StatementFocus wrapper, and Unparsed, a method body kept
  as its source text.
* ``Expression``: IntLit, BoolLit, VarRef, Call, BinOp, Not.
* ``MethodSection``: MethodList and the MethodDeclarationFocus wrapper.
* Programs, classes, fields, methods and formals: one node class each,
  deriving ``Term`` directly, so each is its own sort.

Each node class is declared with ``terms.node``; its source span is the
one ``Term`` declares for every node, parse metadata (excluded from
structural equality) used only to place a focus.

Focus wrappers derive the sort class of the domain they wrap, so wrapping
and unwrapping are sort-preserving rewrites; ``FOCUS_KINDS`` lists them.
"""

from ..terms import Term, node


class Expression(Term):
    __slots__ = ()


class Statement(Term):
    __slots__ = ()


class MethodSection(Term):
    """Either a plain method list or one wrapped in a host focus."""

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
class Unparsed(Statement):
    """A method body that the parser checked but built no node for: its
    source text, which the printer writes as it is, and the texts of its
    tokens, its atoms after the text. It is opaque (``terms.Term.opaque``)."""

    opaque = True
    text: str
    tokens: tuple[str, ...]


@node
class Formal(Term):
    type_name: str
    name: str


@node
class MethodDecl(Term):
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
    type_name: str
    name: str


@node
class ClassDecl(Term):
    name: str
    fields: tuple[FieldDecl, ...]
    methods: MethodSection


@node
class Program(Term):
    classes: tuple[ClassDecl, ...]


ETYPES = ("int", "boolean")

# Focus kinds a caller can place: kind name -> wrapper class.
FOCUS_KINDS = {
    "statement": StatementFocus,
    "methodlist": MethodDeclarationFocus,
}
