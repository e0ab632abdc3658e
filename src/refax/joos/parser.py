"""Recursive-descent parser for JOOS source text.

Standard precedence (unary ! binds tightest, then * /, + -, <, ==, &&,
||), all binary operators left-associative. Every node records its source
span (character offsets, end-exclusive) so a focus can later be placed by
span; parenthesised expressions keep the parentheses inside their span.

The declarations (program, classes, fields, method headers) are built
directly. Every statement and expression is built through
``TokenStream.make``, once the node's last token is read: with the index
of its first token and its fields. Given ``build``, ``method`` reads each
body with ``make`` shadowed on the instance by ``_nothing``, so the same
grammar checks it, raising the same ``ParseError`` at the same token, and
builds nothing; it then reads a body whose span ``build`` takes again from
its start, and keeps every other body as one ``ast.Unparsed`` that holds
its source text.
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
    with each method body whose span ``build`` refuses kept as an
    ``ast.Unparsed`` of its text."""
    p = _Parser(source, build)
    program = p.program()
    p.expect_eof()
    return program


def parse_method(source: str) -> ast.MethodDecl:
    """Parse a single method declaration (used for introduction decl files)."""
    p = _Parser(source)
    method = p.method()
    p.expect_eof()
    return method


def _nothing(cls: Callable[..., Term], start: int, *fields: Any) -> None:
    """``make`` while a method body is read without building: a function
    of the module, not a bound method, so the parser holds no cycle."""


class _Parser(TokenStream):
    """The parser is its own token cursor."""

    __slots__ = ("build",)
    KEYWORDS = _KEYWORDS
    SYMBOLS = _SYMBOLS
    BINOP_PRECEDENCE = BINOP_PRECEDENCE
    BinOp = ast.BinOp

    def __init__(self, source: str, build: Callable[[Offsets], bool] | None = None) -> None:
        super().__init__(source)
        self.build = build

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
        return_type = "void" if self.accept("void") else self._etype()
        name = self.expect_kind(IDENT, "method name")
        formals = self.items(self.formal)
        body_start = self.pos
        if self.build is None:
            body = self.block()
        else:
            self.make = _nothing
            self.block()
            del self.make
            span = self.starts[body_start], self.ends[self.pos - 1]
            if self.build(span):
                self.pos = body_start
                body = self.block()
            else:
                tokens = tuple(self.texts[body_start : self.pos])
                body = ast.Unparsed(self.source[span[0] : span[1]], tokens, span=span)
        return ast.MethodDecl(return_type, name, formals, body, span=self.span_from(start))

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
        return self.make(ast.Block, start, tuple(statements))

    def statement(self) -> ast.Statement:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        following = self.texts[start + 1]
        if kind == IDENT and following == "=":
            self.pos = start + 2
            value = self.expression()
            self.expect(";")
            return self.make(ast.Assign, start, text, value)
        elif text == "this" or kind == IDENT and following == "(":
            call = self.call()
            self.expect(";")
            return self.make(ast.CallStmt, start, call)
        elif text == "{":
            return self.block()
        elif text in ast.ETYPES:
            self.pos = start + 1
            name = self.expect_kind(IDENT, "variable name")
            init = None
            if self.accept("="):
                init = self.expression()
            self.expect(";")
            return self.make(ast.LocalVarDecl, start, text, name, init)
        elif text == "if":
            self.pos = start + 1
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            then_branch = self.statement()
            else_branch = None
            if self.accept("else"):
                else_branch = self.statement()
            return self.make(ast.If, start, condition, then_branch, else_branch)
        elif text == "while":
            self.pos = start + 1
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            body = self.statement()
            return self.make(ast.While, start, condition, body)
        elif text == "return":
            self.pos = start + 1
            value = None
            if self.texts[self.pos] != ";":
                value = self.expression()
            self.expect(";")
            return self.make(ast.Return, start, value)
        self.fail("a statement")

    def call(self) -> ast.Call:
        start = self.pos
        this_qualified = self.texts[start] == "this"
        if this_qualified:
            self.pos = start + 1
            self.expect(".")
        name = self.expect_kind(IDENT, "method name")
        args = self.items(self.expression)
        return self.make(ast.Call, start, this_qualified, name, args)

    def primary(self) -> ast.Expression:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        if text == "this" or kind == IDENT and self.texts[start + 1] == "(":
            return self.call()
        if kind == IDENT:
            self.pos = start + 1
            return self.make(ast.VarRef, start, text)
        if kind == INT:
            return self.make(ast.IntLit, start, self.integer())
        if text == "true" or text == "false":
            self.pos = start + 1
            return self.make(ast.BoolLit, start, text == "true")
        if text == "(":
            self.pos = start + 1
            inner = self.expression()
            self.expect(")")
            return self.make(with_span, start, inner)
        if text == "!":
            self.pos = start + 1
            operand = self.primary()
            return self.make(ast.Not, start, operand)
        self.fail("an expression")

    operand = primary

