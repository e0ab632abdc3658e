"""Recursive-descent parser for minilet source text.

``*`` binds tighter than ``+``, both left-associative; a ``let`` extends
as far right as possible, so a let used as an operand must be
parenthesised. Spans are recorded as in the JOOS parser. Operator chains
and parameter lists are read by ``lexing.TokenStream``; call arguments are
read in ``primary`` itself, by index, so a nested call costs no frame
beyond ``expression`` and ``primary``. A leaf's span is its own token's,
and a parenthesised expression gets its wider span from
``terms.with_span``.
"""

from __future__ import annotations

from typing import Callable

from ..lexing import IDENT, INT, TokenStream
from ..terms import Offsets, with_span
from . import ast

_KEYWORDS = frozenset(["let", "in"])
_SYMBOLS = ("(", ")", ",", ";", "=", "+", "*")

BINOP_PRECEDENCE = {"+": 1, "*": 2}


def parse_program(source: str, build: Callable[[Offsets], bool] | None = None) -> ast.Program:
    """The program of ``source``, every node built. ``build`` is taken for
    the ``Language.parse`` contract and not read: a traced replay of the
    benchmark prints minilet inputs that are not printer fixpoints, so a
    region kept as its text would print otherwise there (ROADMAP item 4)."""
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
        kind = self.kinds[start]
        texts = self.texts
        text = texts[start]
        if kind == IDENT:
            if texts[start + 1] != "(":
                self.pos = start + 1
                return ast.Var(text, span=(self.starts[start], self.ends[start]))
            self.pos = start + 2
            args = []
            if texts[self.pos] != ")":
                args.append(self.expression())
                while texts[self.pos] == ",":
                    self.pos += 1
                    args.append(self.expression())
                if texts[self.pos] != ")":
                    self.fail(repr(")"))
            self.pos += 1
            return ast.Call(text, tuple(args), span=self.span_from(start))
        if kind == INT:
            return ast.IntLit(self.integer(), span=(self.starts[start], self.ends[start]))
        if text == "let":
            self.pos = defs_start = start + 1
            defs = [self.fundef()]
            while self.texts[self.pos] != "in":
                defs.append(self.fundef())
            def_list = ast.FunDefList(tuple(defs), span=self.span_from(defs_start))
            self.pos += 1
            body = self.expression()
            return ast.Let(def_list, body, span=self.span_from(start))
        if text == "(":
            self.pos = start + 1
            inner = self.expression()
            self.expect(")")
            return with_span(inner, self.span_from(start))
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
