"""Recursive-descent parser for JOOS source text.

Standard precedence (unary ! binds tightest, then * /, + -, <, ==, &&,
||), all binary operators left-associative. Every node records its source
span (character offsets, end-exclusive) so a focus can later be placed by
span; parenthesised expressions keep the parentheses inside their span.

The grammar of statements and expressions is written once and takes its
node constructors from the parser class: each is called with the index of
the node's first token and the node's fields, once the node's last token
is read, and ``_Parser``'s builds the node with its span. ``_Recogniser``'s
are no-ops, so it runs the same grammar over a method body, raising the
same ``ParseError`` at the same token, and builds nothing. Given ``build``,
``parse_program`` reads the program with a ``_Recogniser``: it builds the
classes, fields and method headers, and keeps each body that ``build``
refuses as one ``ast.Unparsed`` that holds its source text.
"""

from __future__ import annotations

from typing import Any, Callable

from ..lexing import IDENT, INT, TokenStream
from ..terms import Offsets, Term, with_span
from . import ast

_KEYWORDS = frozenset(
    ["class", "void", "int", "boolean", "if", "else", "while", "return", "true", "false", "this"]
)
_SYMBOLS = ("==", "&&", "||", "{", "}", "(", ")", ",", ";", "=", "+", "-", "*", "/", "<", "!", ".")

BINOP_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "<": 4, "+": 5, "-": 5, "*": 6, "/": 6}


def parse_program(source: str, build: Callable[[Offsets], bool] | None = None) -> ast.Program:
    """The program of ``source``, every node built; or, given ``build``,
    read by ``_Recogniser``, which keeps each method body whose span
    ``build`` refuses as an ``ast.Unparsed`` of its text."""
    p = _Parser(source) if build is None else _Recogniser(source, build)
    program = p.program()
    p.expect_eof()
    return program


def parse_method(source: str) -> ast.MethodDecl:
    """Parse a single method declaration (used for introduction decl files)."""
    p = _Parser(source)
    method = p.method()
    p.expect_eof()
    return method


def _built(cls: type[Term]) -> Callable[..., Term]:
    """The parser's constructor of ``cls``: the node of ``fields``, spanning
    the token at ``start`` to the last one read."""

    def build(self: TokenStream, start: int, *fields: Any) -> Term:
        return cls(*fields, span=(self.starts[start], self.ends[self.pos - 1]))

    return build


def _parenthesised(self: TokenStream, start: int, inner: Term) -> Term:
    return with_span(inner, (self.starts[start], self.ends[self.pos - 1]))


class _Parser(TokenStream):
    """The parser is its own token cursor."""

    KEYWORDS = _KEYWORDS
    SYMBOLS = _SYMBOLS
    BINOP_PRECEDENCE = BINOP_PRECEDENCE
    BinOp = ast.BinOp
    Block = _built(ast.Block)
    LocalVarDecl = _built(ast.LocalVarDecl)
    Assign = _built(ast.Assign)
    If = _built(ast.If)
    While = _built(ast.While)
    Return = _built(ast.Return)
    CallStmt = _built(ast.CallStmt)
    Call = _built(ast.Call)
    VarRef = _built(ast.VarRef)
    IntLit = _built(ast.IntLit)
    BoolLit = _built(ast.BoolLit)
    Not = _built(ast.Not)
    parenthesised = _parenthesised

    def program(self) -> ast.Program:
        start = self.pos
        classes = [self.class_decl()]
        while self.at("class"):
            classes.append(self.class_decl())
        return ast.Program(tuple(classes), span=self.span_from(start))

    def class_decl(self) -> ast.ClassDecl:
        start = self.pos
        self.expect("class")
        name = self.expect_kind(IDENT, "class name")
        self.expect("{")
        fields = []
        while self.texts[self.pos] in ast.ETYPES and self.at(";", 2):
            fields.append(self.field_decl())
        methods_start = self.pos
        methods = []
        while not self.at("}"):
            methods.append(self.method())
        if methods:
            list_span = self.span_from(methods_start)
        else:
            brace = self.starts[self.pos]
            list_span = (brace, brace)
        method_list = ast.MethodList(tuple(methods), span=list_span)
        self.expect("}")
        return ast.ClassDecl(name, tuple(fields), method_list, span=self.span_from(start))

    def field_decl(self) -> ast.FieldDecl:
        start = self.pos
        type_name = self._etype()
        name = self.expect_kind(IDENT, "field name")
        self.expect(";")
        return ast.FieldDecl(type_name, name, span=self.span_from(start))

    def method(self) -> ast.MethodDecl:
        start = self.pos
        return_type, name, formals = self.header()
        body = self.block()
        return ast.MethodDecl(return_type, name, formals, body, span=self.span_from(start))

    def header(self) -> tuple[str, str, tuple[ast.Formal, ...]]:
        """A method's return type, name and formals."""
        if self.accept("void"):
            return_type = "void"
        else:
            return_type = self._etype()
        name = self.expect_kind(IDENT, "method name")
        return return_type, name, self.items(self.formal)

    def formal(self) -> ast.Formal:
        start = self.pos
        type_name = self._etype()
        name = self.expect_kind(IDENT, "parameter name")
        return ast.Formal(type_name, name, span=self.span_from(start))

    def _etype(self) -> str:
        text = self.texts[self.pos]
        if text not in ast.ETYPES:
            self.fail("'int' or 'boolean'")
        self.pos += 1
        return text

    def block(self) -> ast.Block:
        start = self.pos
        self.expect("{")
        statements = []
        while self.texts[self.pos] != "}":
            statements.append(self.statement())
        self.pos += 1
        return self.Block(start, tuple(statements))

    def statement(self) -> ast.Statement:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        following = self.texts[start + 1]
        if kind == IDENT and following == "=":
            self.pos = start + 2
            value = self.expression()
            self.expect(";")
            return self.Assign(start, text, value)
        elif text == "this" or kind == IDENT and following == "(":
            call = self.call()
            self.expect(";")
            return self.CallStmt(start, call)
        elif text == "{":
            return self.block()
        elif text in ast.ETYPES:
            self.pos = start + 1
            name = self.expect_kind(IDENT, "variable name")
            init = None
            if self.accept("="):
                init = self.expression()
            self.expect(";")
            return self.LocalVarDecl(start, text, name, init)
        elif text == "if":
            self.pos = start + 1
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            then_branch = self.statement()
            else_branch = None
            if self.accept("else"):
                else_branch = self.statement()
            return self.If(start, condition, then_branch, else_branch)
        elif text == "while":
            self.pos = start + 1
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            body = self.statement()
            return self.While(start, condition, body)
        elif text == "return":
            self.pos = start + 1
            value = None
            if self.texts[self.pos] != ";":
                value = self.expression()
            self.expect(";")
            return self.Return(start, value)
        self.fail("a statement")

    def call(self) -> ast.Call:
        start = self.pos
        this_qualified = self.texts[start] == "this"
        if this_qualified:
            self.pos = start + 1
            self.expect(".")
        name = self.expect_kind(IDENT, "method name")
        args = self.items(self.expression)
        return self.Call(start, this_qualified, name, args)

    def primary(self) -> ast.Expression:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        if text == "this" or kind == IDENT and self.texts[start + 1] == "(":
            return self.call()
        if kind == IDENT:
            self.pos = start + 1
            return self.VarRef(start, text)
        if kind == INT:
            return self.IntLit(start, self.integer())
        if text == "true" or text == "false":
            self.pos = start + 1
            return self.BoolLit(start, text == "true")
        if text == "(":
            self.pos = start + 1
            inner = self.expression()
            self.expect(")")
            return self.parenthesised(start, inner)
        if text == "!":
            self.pos = start + 1
            operand = self.primary()
            return self.Not(start, operand)
        self.fail("an expression")

    operand = primary


def _nothing(self: TokenStream, start: int, *fields: Any) -> None:
    """A recogniser's constructor: it builds nothing."""


def _no_binop(*args: Any, span: Offsets | None = None) -> None:
    """The recogniser's ``BinOp``, called as ``TokenStream`` calls it."""


class _Recogniser(_Parser):
    """The parser's grammar with a no-op for each constructor of a
    statement or an expression. It reads the whole program: it builds the
    classes, fields and method headers, and checks every method body as
    the parser reads it, building no node; a body whose span ``build``
    takes is then read again by a ``_Parser`` over the same tokens."""

    BinOp = staticmethod(_no_binop)
    Block = LocalVarDecl = Assign = If = While = Return = CallStmt = _nothing
    Call = VarRef = IntLit = BoolLit = Not = parenthesised = _nothing

    def __init__(self, source: str, build: Callable[[Offsets], bool]) -> None:
        super().__init__(source)
        self.build = build

    def method(self) -> ast.MethodDecl:
        start = self.pos
        return_type, name, formals = self.header()
        body_start = self.pos
        self.block()
        span = self.starts[body_start], self.ends[self.pos - 1]
        if self.build(span):
            # A parser over the same token columns, none copied. They are
            # set one by one: reading ``vars(self)`` would give this
            # recogniser a dict of its own and slow its every later read.
            builder = object.__new__(_Parser)
            builder.source, builder.kinds, builder.texts = self.source, self.kinds, self.texts
            builder.starts, builder.ends, builder.pos = self.starts, self.ends, body_start
            body = builder.block()
        else:
            tokens = tuple(self.texts[body_start : self.pos])
            body = ast.Unparsed(self.source[span[0] : span[1]], tokens, span=span)
        return ast.MethodDecl(return_type, name, formals, body, span=self.span_from(start))
