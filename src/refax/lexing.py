"""The front end both languages share: tokens, spans and the parser cursor.

Inside the engine a position is a character offset into the source, and
a node's span is the pair of offsets ``(start, end)``, end-exclusive.
Users see 1-based line:column positions (``Span``): ``Lines``, the line
table of one source, converts at the edges only, for ``--focus``, the
``ParseError`` texts and the ``SpanMismatch`` texts. Only a newline
starts a line; blanks, tabs and carriage returns each take one column.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import sub
from typing import Any, Callable, NamedTuple, NoReturn, TypeVar

from .terms import Offsets

IDENT = "ident"
INT = "int"
KEYWORD = "kw"
SYMBOL = "sym"
EOF = "eof"


class Span(NamedTuple):
    """A source region as users give and see it: 1-based line:column,
    end-exclusive; a tuple, so it compares by value."""

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


class Lines:
    """The line table of one source: the offset at which each line starts,
    to convert between offsets and line:column positions."""

    def __init__(self, source: str) -> None:
        self.starts = [0, *(m.end() for m in re.finditer("\n", source))]
        self.length = len(source)

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1

    def span(self, offsets: Offsets) -> Span:
        return Span(*self.position(offsets[0]), *self.position(offsets[1]))

    def offset(self, line: int, col: int) -> int | None:
        """The offset at ``line:col``, or None if the source has no such
        position: a line past its end, a column before its line's first or
        past its last character (a line's end is the column just after
        it)."""
        if not 1 <= line <= len(self.starts) or col < 1:
            return None
        line_end = self.starts[line] - 1 if line < len(self.starts) else self.length
        offset = self.starts[line - 1] + col - 1
        return offset if offset <= line_end else None

    def offsets(self, span: Span) -> Offsets | None:
        """``span`` as offsets, or None if either end is no position of the
        source, so that no node can have it."""
        start = self.offset(span.line, span.col)
        end = self.offset(span.end_line, span.end_col)
        return None if start is None or end is None else (start, end)


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col

    @classmethod
    def at(cls, source: str, offset: int, message: str) -> ParseError:
        return cls(*Lines(source).position(offset), message)


class SpanMismatch(Exception):
    """The requested focus span does not exactly cover a node of the
    requested kind. The message lists the nearest candidate spans."""


# Lookahead beyond the current token that ``TokenStream`` serves without a
# bounds test; the parsers look at most two tokens ahead.
LOOKAHEAD = 2

_BLANKS = " \t\r\n"
_PIECE = 1 << 14  # characters scanned per pass, about 3,500 tokens
_IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"
T = TypeVar("T")


@functools.cache
def _scanner(symbols: tuple[str, ...]) -> re.Pattern[str]:
    """Blanks, then one lexeme: an identifier, a number, a symbol (longest
    first, so multi-character operators win over their prefixes) or one
    stray character. A stray character is never a blank, so the blanks
    before it cannot give one back."""
    alternatives = "|".join(re.escape(s) for s in sorted(symbols, key=len, reverse=True))
    return re.compile(rf"[{_BLANKS}]*(?:{_IDENTIFIER}|[0-9]+|{alternatives}|[^{_BLANKS}])")


class _Kinds(dict):
    """Lexeme text to token kind, seeded with the keywords and symbols;
    any other text is classified by its first character on first sight.
    A stray character's kind is None."""

    def __missing__(self, text: str) -> str | None:
        first = text[0]
        if first.isascii() and (first.isalpha() or first == "_"):
            kind = IDENT
        elif first.isascii() and first.isdigit():
            kind = INT
        else:
            kind = None
        self[text] = kind
        return kind


@functools.cache
def _known_kinds(keywords: frozenset[str], symbols: tuple[str, ...]) -> dict[str, str]:
    return {**dict.fromkeys(symbols, SYMBOL), **dict.fromkeys(keywords, KEYWORD)}


def tokenize(source: str, keywords: frozenset[str], symbols: tuple[str, ...]) -> list[Token]:
    """Scan ``source`` into tokens, one per lexeme, ending with one EOF
    token at the end of the source.

    The kinds are seeded with the keywords and symbols, so a keyword's or
    a symbol's text always scans as that keyword or symbol, and a parser
    matches them by their text alone.

    Each step is one pass in C over the lexemes of a piece of the source:
    one ``findall`` of the compiled scanner, whose matches tile the piece,
    the running sum of the match lengths for the token ends,
    ``str.lstrip`` for the texts and one dict lookup per text for the
    kinds. A piece is about ``_PIECE`` characters, cut before a newline,
    which no lexeme spans, so the lists a pass builds stay small and only
    the token list grows with the source. Each scan stops before the
    piece's trailing blanks, so that they are not retried at every
    position. Identifiers and numbers are ASCII."""
    scan = _scanner(symbols).findall
    kind_of = _Kinds(_known_kinds(keywords, symbols)).__getitem__
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        cut = source.find("\n", pos + _PIECE)
        if cut < 0:
            cut = len(source)
        matches = scan(source, pos, pos + len(source[pos:cut].rstrip(_BLANKS)))
        ends = list(accumulate(map(len, matches), initial=pos))[1:]
        texts = list(map(str.lstrip, matches, repeat(_BLANKS)))
        del matches
        kinds = list(map(kind_of, texts))
        if None in kinds:
            i = kinds.index(None)
            raise ParseError.at(source, ends[i] - 1, f"unexpected character {texts[i]!r}")
        tokens += map(new, repeat(Token), zip(kinds, texts, map(sub, ends, map(len, texts)), ends))
        pos = cut
    tokens.append(new(Token, (EOF, "", len(source), len(source))))
    return tokens


def is_identifier(text: str, keywords: frozenset[str]) -> bool:
    """Whether ``text`` scans as one identifier token, not a keyword."""
    return re.fullmatch(_IDENTIFIER, text) is not None and text not in keywords


class TokenStream:
    """Cursor by index over the tokens of ``source``, with the lookahead
    helpers and the readers that both recursive descent parsers need.
    ``at``, ``accept`` and ``expect`` match a keyword or a symbol by its
    text (see ``tokenize``).

    ``tokens`` is the token list padded with ``LOOKAHEAD`` more copies of
    its EOF token, and ``pos`` never moves past the first EOF, so
    ``tokens[pos + ahead]`` needs no bounds test for ``ahead <= LOOKAHEAD``.
    The parsers read ``tokens[pos]`` directly on their hot paths.

    A parser sets ``KEYWORDS`` and ``SYMBOLS`` for ``tokenize``,
    ``BINOP_PRECEDENCE`` (1 binds loosest), its ``BinOp`` node class and
    its ``operand`` rule for ``expression`` to read."""

    KEYWORDS: frozenset[str]
    SYMBOLS: tuple[str, ...]
    BINOP_PRECEDENCE: dict[str, int]
    BinOp: Callable[..., Any]
    operand: Callable[[], Any]

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = tokenize(source, self.KEYWORDS, self.SYMBOLS)
        self.tokens += self.tokens[-1:] * LOOKAHEAD  # in place: no copy of the list
        self.pos = 0

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.tokens[self.pos].text != text:
            self.fail(repr(text))
        self.pos += 1

    def expect_kind(self, kind: str, what: str) -> str:
        """The current token's text, if it is of ``kind`` (not ``EOF``)."""
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(what)
        self.pos += 1
        return tok.text

    def expect_eof(self) -> None:
        if self.tokens[self.pos].kind != EOF:
            self.fail("end of input")

    def fail(self, expected: str) -> NoReturn:
        tok = self.tokens[self.pos]
        found = repr(tok.text) if tok.kind != EOF else "end of input"
        raise ParseError.at(self.source, tok.start, f"expected {expected}, found {found}")

    def span_from(self, start_pos: int) -> Offsets:
        """Span from the token at ``start_pos`` to the last one consumed."""
        return self.tokens[start_pos].start, self.tokens[self.pos - 1].end

    def expression(self) -> Any:
        """Precedence climbing, all operators left-associative."""
        start = self.pos
        return self._climb(start, self.operand(), 1)

    def _climb(self, start: int, left: Any, min_prec: int) -> Any:
        """Extend ``left``, read from ``start``, with every operator that
        binds at least as tightly as ``min_prec``. A right operand is read
        by ``operand`` and climbs, in one more frame, only if the operator
        after it binds more tightly, so a leaf operand costs no frame."""
        tokens = self.tokens
        precedence = self.BINOP_PRECEDENCE
        while True:
            op = tokens[self.pos].text
            prec = precedence.get(op)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right_start = self.pos
            right = self.operand()
            after = precedence.get(tokens[self.pos].text)
            if after is not None and after > prec:
                right = self._climb(right_start, right, prec + 1)
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
