"""Recursive-descent parser for JOOS source text.

Standard precedence (unary ! binds tightest, then * /, + -, <, ==, &&,
||), all binary operators left-associative. Every node records its source
span (character offsets, end-exclusive) so a focus can later be placed by
span; parenthesised expressions keep the parentheses inside their span.
"""

from __future__ import annotations

from ..lexing import IDENT, INT, TokenStream
from ..terms import with_span
from . import ast

_KEYWORDS = frozenset(
    ["class", "void", "int", "boolean", "if", "else", "while", "return", "true", "false", "this"]
)
_SYMBOLS = ("==", "&&", "||", "{", "}", "(", ")", ",", ";", "=", "+", "-", "*", "/", "<", "!", ".")

BINOP_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "<": 4, "+": 5, "-": 5, "*": 6, "/": 6}


def parse_program(source: str) -> ast.Program:
    p = _Parser(source)
    program = p.program()
    p.expect_eof()
    return program


def parse_method(source: str) -> ast.MethodDecl:
    """Parse a single method declaration (used for introduction decl files)."""
    p = _Parser(source)
    method = p.method()
    p.expect_eof()
    return method


class _Parser(TokenStream):
    """The parser is its own token cursor."""

    KEYWORDS = _KEYWORDS
    SYMBOLS = _SYMBOLS
    BINOP_PRECEDENCE = BINOP_PRECEDENCE
    BinOp = ast.BinOp

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
        if self.accept("void"):
            return_type = "void"
        else:
            return_type = self._etype()
        name = self.expect_kind(IDENT, "method name")
        formals = self.items(self.formal)
        body = self.block()
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
        return ast.Block(tuple(statements), span=self.span_from(start))

    def statement(self) -> ast.Statement:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        following = self.texts[start + 1]
        if kind == IDENT and following == "=":
            self.pos = start + 2
            value = self.expression()
            self.expect(";")
            return ast.Assign(text, value, span=self.span_from(start))
        elif text == "this" or kind == IDENT and following == "(":
            call = self.call()
            self.expect(";")
            return ast.CallStmt(call, span=self.span_from(start))
        elif text == "{":
            return self.block()
        elif text in ast.ETYPES:
            self.pos = start + 1
            name = self.expect_kind(IDENT, "variable name")
            init = None
            if self.accept("="):
                init = self.expression()
            self.expect(";")
            return ast.LocalVarDecl(text, name, init, span=self.span_from(start))
        elif text == "if":
            self.pos = start + 1
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            then_branch = self.statement()
            else_branch = None
            if self.accept("else"):
                else_branch = self.statement()
            return ast.If(condition, then_branch, else_branch, span=self.span_from(start))
        elif text == "while":
            self.pos = start + 1
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            body = self.statement()
            return ast.While(condition, body, span=self.span_from(start))
        elif text == "return":
            self.pos = start + 1
            value = None
            if self.texts[self.pos] != ";":
                value = self.expression()
            self.expect(";")
            return ast.Return(value, span=self.span_from(start))
        self.fail("a statement")

    def call(self) -> ast.Call:
        start = self.pos
        this_qualified = self.texts[start] == "this"
        if this_qualified:
            self.pos = start + 1
            self.expect(".")
        name = self.expect_kind(IDENT, "method name")
        args = self.items(self.expression)
        return ast.Call(this_qualified, name, args, span=self.span_from(start))

    def primary(self) -> ast.Expression:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        if text == "this" or kind == IDENT and self.texts[start + 1] == "(":
            return self.call()
        if kind == IDENT:
            self.pos = start + 1
            return ast.VarRef(text, span=self.span_from(start))
        if kind == INT:
            return ast.IntLit(self.integer(), span=self.span_from(start))
        if text == "true" or text == "false":
            self.pos = start + 1
            return ast.BoolLit(text == "true", span=self.span_from(start))
        if text == "(":
            self.pos = start + 1
            inner = self.expression()
            self.expect(")")
            return with_span(inner, self.span_from(start))
        if text == "!":
            self.pos = start + 1
            operand = self.primary()
            return ast.Not(operand, span=self.span_from(start))
        self.fail("an expression")

    operand = primary
