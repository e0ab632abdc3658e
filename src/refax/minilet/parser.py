"""Recursive-descent parser for minilet source text.

``*`` binds tighter than ``+``, both left-associative; a ``let`` extends
as far right as possible, so a let used as an operand must be
parenthesised. Spans are recorded as in the JOOS parser. Operator chains
and parameter lists are read by ``lexing.TokenStream``; call arguments are
read in ``primary`` itself, so a nested call costs no frame beyond
``expression`` and ``primary``.
"""

from __future__ import annotations

from dataclasses import replace

from ..lexing import IDENT, INT, TokenStream
from . import ast

_KEYWORDS = frozenset(["let", "in"])
_SYMBOLS = ("(", ")", ",", ";", "=", "+", "*")

BINOP_PRECEDENCE = {"+": 1, "*": 2}


def parse_program(source: str) -> ast.Program:
    p = _Parser(source)
    body = p.expression()
    p.expect_eof()
    return ast.Program(body, span=body.span)


def parse_fundef(source: str) -> ast.FunDef:
    """Parse a single function definition (used for introduction decl files)."""
    p = _Parser(source)
    fd = p.fundef()
    p.expect_eof()
    return fd


class _Parser(TokenStream):
    """The parser is its own token cursor, read as in the JOOS parser."""

    KEYWORDS = _KEYWORDS
    SYMBOLS = _SYMBOLS
    BINOP_PRECEDENCE = BINOP_PRECEDENCE
    BinOp = ast.BinOp

    def primary(self) -> ast.Expression:
        start = self.pos
        tok = self.tokens[start]
        kind, text = tok.kind, tok.text
        if kind == IDENT:
            if self.tokens[start + 1].text != "(":
                self.pos = start + 1
                return ast.Var(text, span=self.span_from(start))
            self.pos = start + 2
            args = []
            if self.tokens[self.pos].text != ")":
                args.append(self.expression())
                while self.accept(","):
                    args.append(self.expression())
            self.expect(")")
            return ast.Call(text, tuple(args), span=self.span_from(start))
        if kind == INT:
            self.pos = start + 1
            return ast.IntLit(int(text), span=self.span_from(start))
        if text == "let":
            self.pos = defs_start = start + 1
            defs = [self.fundef()]
            while self.tokens[self.pos].text != "in":
                defs.append(self.fundef())
            def_list = ast.FunDefList(tuple(defs), span=self.span_from(defs_start))
            self.pos += 1
            body = self.expression()
            return ast.Let(def_list, body, span=self.span_from(start))
        if text == "(":
            self.pos = start + 1
            inner = self.expression()
            self.expect(")")
            return replace(inner, span=self.span_from(start))
        self.fail("an expression")

    operand = primary

    def fundef(self) -> ast.FunDef:
        start = self.pos
        name = self.expect_kind(IDENT, "function name")
        params = self.items(lambda: self.expect_kind(IDENT, "parameter name"))
        self.expect("=")
        body = self.expression()
        self.expect(";")
        return ast.FunDef(name, params, body, span=self.span_from(start))
