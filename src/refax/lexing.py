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
import string
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
        """``L:C-L:C`` in ASCII digits, with no blank, sign or underscore.
        A long text is not echoed: a malformed or reversed one is named by
        its length, and a part with more digits than ``int`` converts by its
        role and length."""
        shown = repr(text) if len(text) <= _SHOWN else f"of {len(text)} characters"
        match = _SPAN.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed span {shown}, expected L:C-L:C")
        parts = []
        for role, digits in zip(_SPAN_ROLES, match.groups()):
            try:
                parts.append(int(digits))
            except ValueError:
                raise ValueError(f"span {role} of {len(digits)} digits is too long") from None
        line, col, end_line, end_col = parts
        if (end_line, end_col) < (line, col):
            raise ValueError(f"span {shown} is not well-ordered")
        return cls(line, col, end_line, end_col)


_SPAN = re.compile("([0-9]+):([0-9]+)-([0-9]+):([0-9]+)")
_SPAN_ROLES = ("line", "column", "end line", "end column")
_SHOWN = 40  # the longest span text echoed in a message


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
_IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"
_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_")
T = TypeVar("T")


@functools.cache
def _scanner(symbols: tuple[str, ...]) -> re.Pattern[str]:
    """Blanks, then one lexeme: an identifier, a number, a symbol (longest
    first, so multi-character operators win over their prefixes) or one
    stray character. A stray character is never a blank, so the blanks
    before it cannot give one back."""
    alternatives = "|".join(re.escape(s) for s in sorted(symbols, key=len, reverse=True))
    return re.compile(rf"[{_BLANKS}]*(?:{_IDENTIFIER}|[0-9]+|{alternatives}|[^{_BLANKS}])")


# The kind of a text that is no keyword or symbol, by its first character.
_KIND_BY_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", IDENT),
    **dict.fromkeys("0123456789", INT),
}


class _Kinds(dict):
    """Lexeme text to token kind, seeded with the keywords and symbols;
    any other text is classified by its first character on first sight.
    A stray character has no kind: looking it up raises ``KeyError``."""

    def __missing__(self, text: str) -> str:
        kind = _KIND_BY_FIRST.get(text[0])
        if kind is None:
            raise KeyError(text)
        self[text] = kind
        return kind


@functools.cache
def _known_kinds(keywords: frozenset[str], symbols: tuple[str, ...]) -> dict[str, str]:
    return {**dict.fromkeys(symbols, SYMBOL), **dict.fromkeys(keywords, KEYWORD)}


class Tokens:
    """The tokens of one source as four parallel lists, one entry per
    token: ``kinds``, ``texts``, and the ``starts`` and ``ends`` offsets.
    Its length is the number of tokens, EOF included."""

    __slots__ = ("kinds", "texts", "starts", "ends")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int], ends: list[int]) -> None:
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(source: str, keywords: frozenset[str], symbols: tuple[str, ...]) -> Tokens:
    """Scan ``source`` into its tokens, one per lexeme, ending with one EOF
    token (kind ``EOF``, text ``""``) at the end of the source. The tokens
    are returned as columns, not one object each (see ``Tokens``).

    The kinds are seeded with the keywords and symbols, so a keyword's or
    a symbol's text always scans as that keyword or symbol, and a parser
    matches them by their text alone.

    The scan is one pass in C over the lexemes of the whole source: one
    ``findall`` of the compiled scanner, whose matches tile the source up
    to its trailing blanks (the scan stops before them, which it would
    otherwise retry from every position among them, in quadratic time),
    the running sum of the match lengths for the token ends,
    ``str.lstrip`` for the texts, and one dict lookup per text for the
    kinds, which also finds a stray character. The starts are then the
    ends less the text lengths. Identifiers and numbers are ASCII."""
    kind_of = _Kinds(_known_kinds(keywords, symbols)).__getitem__
    matches = _scanner(symbols).findall(source, endpos=len(source.rstrip(_BLANKS)))
    ends = list(accumulate(map(len, matches)))
    texts = list(map(str.lstrip, matches, repeat(_BLANKS)))
    del matches
    try:
        kinds = list(map(kind_of, texts))
    except KeyError as exc:  # the first stray character
        i = texts.index(exc.args[0])
        raise ParseError.at(source, ends[i] - 1, f"unexpected character {texts[i]!r}") from None
    kinds.append(EOF)
    texts.append("")
    ends.append(len(source))
    return Tokens(kinds, texts, list(map(sub, ends, map(len, texts))), ends)


def is_identifier(text: str, keywords: frozenset[str]) -> bool:
    """Whether ``text`` scans as one identifier token, not a keyword."""
    return re.fullmatch(_IDENTIFIER, text) is not None and text not in keywords


def mentions(source: str, name: str) -> bool:
    """Whether ``name`` occurs in ``source`` with no identifier character
    on either side, as an identifier token does unless a number abuts it.
    Each occurrence is found by ``str.find``, a C scan, and only its two
    neighbours are read, so a name the source holds once costs about as
    little as one it lacks."""
    find, size = source.find, len(name)
    i = find(name)
    while i >= 0:
        if source[i - 1 : i] not in _WORD_CHARS and source[i + size : i + size + 1] not in _WORD_CHARS:
            return True
        i = find(name, i + 1)
    return False


class TokenStream:
    """Cursor by index over the tokens of ``source``, with the lookahead
    helpers and the readers that both recursive descent parsers need.
    ``at``, ``accept`` and ``expect`` match a keyword or a symbol by its
    text (see ``tokenize``).

    ``kinds``, ``texts``, ``starts`` and ``ends`` are the columns of the
    tokens, each padded with ``LOOKAHEAD`` more EOF entries, and ``pos``
    never moves past the first EOF, so ``texts[pos + ahead]`` needs no
    bounds test for ``ahead <= LOOKAHEAD``. The parsers read
    ``texts[pos]`` and ``kinds[pos]`` directly on their hot paths.

    A parser sets ``KEYWORDS`` and ``SYMBOLS`` for ``tokenize``,
    ``BINOP_PRECEDENCE`` (1 binds loosest), its ``BinOp`` node class and
    its ``operand`` rule for ``expression`` to read. ``expression`` builds
    each ``BinOp`` through ``make``, as a grammar may build its own nodes;
    a parser that reads a region without building it shadows ``make`` on
    the instance with a no-op for as long as it reads."""

    # The cursor's state is in slots, and ``__dict__`` holds only a shadow
    # of ``make``, so a stream that never sets one has no dict. Were the
    # state in the dict, a shadow set once would leave ``make`` among the
    # class's shared attribute names, and CPython would then stop
    # specialising the ``self.make`` load for every later stream.
    __slots__ = ("source", "kinds", "texts", "starts", "ends", "pos", "__dict__")

    KEYWORDS: frozenset[str]
    SYMBOLS: tuple[str, ...]
    BINOP_PRECEDENCE: dict[str, int]
    BinOp: Callable[..., Any]
    operand: Callable[[], Any]

    def __init__(self, source: str) -> None:
        self.source = source
        tokens = tokenize(source, self.KEYWORDS, self.SYMBOLS)
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.starts, self.ends = tokens.starts, tokens.ends
        for column in (self.kinds, self.texts, self.starts, self.ends):
            column += column[-1:] * LOOKAHEAD  # in place: no copy of the list
        self.pos = 0

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.texts[self.pos + ahead] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self.fail(repr(text))
        self.pos += 1

    def expect_kind(self, kind: str, what: str) -> str:
        """The current token's text, if it is of ``kind`` (not ``EOF``)."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(what)
        self.pos = pos + 1
        return self.texts[pos]

    def expect_eof(self) -> None:
        if self.kinds[self.pos] != EOF:
            self.fail("end of input")

    def integer(self) -> int:
        """The value of the current token, an ``INT``. A literal with more
        digits than ``int`` converts (``sys.get_int_max_str_digits``) is a
        ``ParseError`` at its start."""
        pos = self.pos
        text = self.texts[pos]
        try:
            value = int(text)
        except ValueError:
            raise ParseError.at(
                self.source, self.starts[pos], f"integer literal of {len(text)} digits is too long"
            ) from None
        self.pos = pos + 1
        return value

    def fail(self, expected: str) -> NoReturn:
        pos = self.pos
        found = repr(self.texts[pos]) if self.kinds[pos] != EOF else "end of input"
        raise ParseError.at(self.source, self.starts[pos], f"expected {expected}, found {found}")

    def make(self, cls: Callable[..., T], start: int, *fields: Any) -> T:
        """``cls`` of ``fields``, spanning the token at ``start`` to the last
        one read."""
        return cls(*fields, span=(self.starts[start], self.ends[self.pos - 1]))

    def span_from(self, start_pos: int) -> Offsets:
        """Span from the token at ``start_pos`` to the last one consumed."""
        return self.starts[start_pos], self.ends[self.pos - 1]

    def expression(self) -> Any:
        """Precedence climbing, all operators left-associative. An operand
        that no operator follows is returned without climbing."""
        start = self.pos
        operand = self.operand()
        if self.texts[self.pos] in self.BINOP_PRECEDENCE:
            return self._climb(start, operand, 1)
        return operand

    def _climb(self, start: int, left: Any, min_prec: int) -> Any:
        """Extend ``left``, read from ``start``, with every operator that
        binds at least as tightly as ``min_prec``. A right operand is read
        by ``operand`` and climbs, in one more frame, only if the operator
        after it binds more tightly, so a leaf operand costs no frame."""
        texts = self.texts
        precedence = self.BINOP_PRECEDENCE
        while True:
            op = texts[self.pos]
            prec = precedence.get(op)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right_start = self.pos
            right = self.operand()
            after = precedence.get(texts[self.pos])
            if after is not None and after > prec:
                right = self._climb(right_start, right, prec + 1)
            left = self.make(self.BinOp, start, op, left, right)

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
