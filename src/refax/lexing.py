"""The front end both languages share: tokens, spans and the parser cursor.

Positions are 1-based line:column; spans are end-exclusive.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, NamedTuple, NoReturn, TypeVar

IDENT = "ident"
INT = "int"
KEYWORD = "kw"
SYMBOL = "sym"
EOF = "eof"


class Span(NamedTuple):
    """A source region, end-exclusive; a tuple, so it compares by value."""

    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"

    @classmethod
    def parse(cls, text: str) -> Span:
        try:
            start, end = text.split("-")
            line, col = (int(p) for p in start.split(":"))
            end_line, end_col = (int(p) for p in end.split(":"))
        except ValueError:
            raise ValueError(f"malformed span {text!r}, expected L:C-L:C") from None
        if (end_line, end_col) < (line, col):
            raise ValueError(f"span {text!r} is not well-ordered")
        return cls(line, col, end_line, end_col)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    end_line: int
    end_col: int


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SpanMismatch(Exception):
    """The requested focus span does not exactly cover a node of the
    requested kind. The message lists the nearest candidate spans."""


# Lookahead beyond the current token that ``TokenStream`` serves without a
# bounds test; the parsers look at most two tokens ahead.
LOOKAHEAD = 2

# The scanner's groups, in order: identifier, number, symbol, newline and
# a stray character. Blanks after a token are part of its match, so a run
# of them costs no step of its own.
_KINDS = (None, IDENT, INT, SYMBOL, None, None)
_IDENT_GROUP, _NEWLINE_GROUP = 1, 4
_BLANKS = re.compile(r"[ \t\r]*")
_IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"
T = TypeVar("T")


@functools.cache
def _scanner(symbols: tuple[str, ...]) -> re.Pattern[str]:
    alternatives = "|".join(re.escape(s) for s in sorted(symbols, key=len, reverse=True))
    return re.compile(
        rf"(?:({_IDENTIFIER})|([0-9]+)|({alternatives})|(\n)|(.))[ \t\r]*"
    )


def tokenize(source: str, keywords: frozenset[str], symbols: tuple[str, ...]) -> list[Token]:
    """Scan ``source`` into tokens, ending with one EOF token.

    One compiled regex per symbol set does the scanning, its symbols
    longest first so multi-character operators win over their prefixes.
    Identifiers and numbers are ASCII; blanks, tabs and carriage returns
    each take one column."""
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _scanner(symbols).finditer(source, _BLANKS.match(source).end()):
        group = m.lastindex
        kind = _KINDS[group]
        if kind is None:
            if group == _NEWLINE_GROUP:
                line += 1
                line_start = m.start() + 1
                continue
            col = m.start() - line_start + 1
            raise ParseError(line, col, f"unexpected character {m.group(group)!r}")
        text = m.group(group)
        col = m.start() - line_start + 1
        if group == _IDENT_GROUP and text in keywords:
            kind = KEYWORD
        append(new(Token, (kind, text, line, col, line, col + len(text))))
    col = len(source) - line_start + 1
    append(new(Token, (EOF, "", line, col, line, col)))
    return tokens


def is_identifier(text: str, keywords: frozenset[str]) -> bool:
    """Whether ``text`` scans as one identifier token, not a keyword."""
    return re.fullmatch(_IDENTIFIER, text) is not None and text not in keywords


class TokenStream:
    """Cursor over a token list by index, with the lookahead helpers and
    the readers that both recursive descent parsers need.

    ``tokens`` is the list padded with ``LOOKAHEAD`` more copies of its EOF
    token, and ``pos`` never moves past the first EOF, so
    ``tokens[pos + ahead]`` needs no bounds test for ``ahead <= LOOKAHEAD``.
    The parsers read ``tokens[pos]`` directly on their hot paths.

    A parser sets ``BINOP_PRECEDENCE`` (1 binds loosest), its ``BinOp``
    node class and its ``operand`` rule for ``expression`` to read."""

    BINOP_PRECEDENCE: dict[str, int]
    BinOp: Callable[..., Any]
    operand: Callable[[], Any]

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens + tokens[-1:] * LOOKAHEAD
        self.pos = 0

    def at(self, text: str, ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        return tok.text == text and tok.kind in (KEYWORD, SYMBOL)

    def at_kind(self, kind: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        return self.fail(repr(text))

    def expect_kind(self, kind: str, what: str) -> Token:
        if self.at_kind(kind):
            return self.advance()
        return self.fail(what)

    def expect_eof(self) -> None:
        if not self.at_kind(EOF):
            self.fail("end of input")

    def fail(self, expected: str) -> NoReturn:
        tok = self.tokens[self.pos]
        found = repr(tok.text) if tok.kind != EOF else "end of input"
        raise ParseError(tok.line, tok.col, f"expected {expected}, found {found}")

    def span_from(self, start_pos: int) -> Span:
        """Span from the token at ``start_pos`` to the last one consumed."""
        first = self.tokens[start_pos]
        last = self.tokens[self.pos - 1]
        return Span(first.line, first.col, last.end_line, last.end_col)

    def expression(self, min_prec: int = 1) -> Any:
        """Precedence climbing, all operators left-associative. It reads a
        right operand by calling itself, so a level of nesting costs no
        frame beyond the grammar's own rules."""
        start = self.pos
        left = self.operand()
        tokens = self.tokens
        precedence = self.BINOP_PRECEDENCE
        while True:
            op = tokens[self.pos].text
            prec = precedence.get(op)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right = self.expression(prec + 1)
            left = self.BinOp(op, left, right, span=self.span_from(start))

    def items(self, item: Callable[[], T]) -> tuple[T, ...]:
        """A parenthesised list: ``(``, zero or more ``item()``s separated
        by commas, and ``)``."""
        self.expect("(")
        items: list[T] = []
        while not self.accept(")"):
            if items and not self.accept(","):
                self.fail(repr(")"))
            items.append(item())
        return tuple(items)
