"""Shared front end: the compiled scanner against the character-loop
reference it replaced, the token columns it returns and the stream pads,
the rule that lets the parsers match keywords and symbols by text, and
pins on the spans both parsers record and on their parse error texts."""

from __future__ import annotations

import functools
import hashlib
import random
import sys
import timeit
from pathlib import Path

import pytest

from refax import joos, lexing, minilet
from refax.joos import parser as jparser
from refax.lexing import EOF, IDENT, INT, KEYWORD, LOOKAHEAD, SYMBOL, Lines, ParseError, Span, tokenize
from refax.minilet import parser as mparser

from . import joos_gen, minilet_gen

LANGS = {
    "joos": (jparser, joos.pretty, joos_gen.gen_program),
    "minilet": (mparser, minilet.pretty, minilet_gen.gen_program),
}

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def _position(source, offset):
    """1-based line:column of ``offset``, counted without a line table."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize_reference(source, keywords, symbols):
    """The scanner the compiled one replaced: one character per step, each
    symbol tried in turn. Tokens as ``(kind, text, start, end)`` tuples of
    character offsets."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and source[j] in _IDENT_CONT:
                j += 1
            text = source[i:j]
            tokens.append((KEYWORD if text in keywords else IDENT, text, i, j))
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append((INT, source[i:j], i, j))
            i = j
            continue
        for sym in symbols:
            if source.startswith(sym, i):
                tokens.append((SYMBOL, sym, i, i + len(sym)))
                i += len(sym)
                break
        else:
            raise ParseError(*_position(source, i), f"unexpected character {ch!r}")
    tokens.append((EOF, "", n, n))
    return tokens


def _rows(scan, source, parser):
    """The tokens as ``(kind, text, start, end)`` rows, or the error text.
    The compiled scanner's columns are read row by row."""
    try:
        tokens = scan(source, parser._KEYWORDS, parser._SYMBOLS)
    except ParseError as exc:
        return str(exc)
    if scan is tokenize_reference:
        return tokens
    return list(zip(tokens.kinds, tokens.texts, tokens.starts, tokens.ends))


def _outcome(scan, source, parser):
    """The rows, each with its line:column ends, or the error text. The
    compiled scanner's positions go through the line table; the
    reference's are counted directly."""
    rows = _rows(scan, source, parser)
    if isinstance(rows, str):
        return rows
    if scan is tokenize_reference:
        position = functools.partial(_position, source)
    else:
        position = Lines(source).position
    return [(*t, *position(t[2]), *position(t[3])) for t in rows]


def _sources(lang, count=200, seed=17):
    parser, pretty, gen = LANGS[lang]
    rng = random.Random(seed)
    return [pretty(gen(rng)) for _ in range(count)]


def _assert_same(source, parser):
    assert _outcome(tokenize, source, parser) == _outcome(tokenize_reference, source, parser)


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_scanner_matches_reference_on_generated_programs(lang):
    parser = LANGS[lang][0]
    for source in _sources(lang):
        _assert_same(source, parser)


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_scanner_matches_reference_on_stray_characters(lang):
    parser = LANGS[lang][0]
    rng = random.Random(5)
    errors = 0
    for source in _sources(lang):
        at = rng.randrange(len(source) + 1)
        bad = source[:at] + rng.choice("#$é\f") + source[at:]
        _assert_same(bad, parser)
        errors += isinstance(_outcome(tokenize, bad, parser), str)
    assert errors == 200


LAYOUTS = [
    "",
    "\n",
    "   \t \r\n",
    "class C {\n\tvoid m() {\n\t\tint x = 1;  \n\t}\n}",
    "class C {\r\n  void m() {\r\n    x = 10 + 2;\r\n  }\r\n}\r\n",
    "class C { void m() { x = 1 == 2 && 3 < 4 || !y; } }   \t",
    "let f(x) = x * 2; in\n\tf(3)   \n + 4",
    "let\r\nf(x, y) = (x + y) * 12;\r\nin f(1,2)",
    "12abc abc12 _x __ 0 007",
    "let f(x) = x; in f(1) # comment",
    "x\f= 1",
    "café = 1",
    "x = 1\x00",
    "x  ",
    "x \t\r\n",
    "  ",
    "\n\t\r\n ",
    "x\r\n= 1\r\n",
    "x =\x0b1",
    "é",
    "x = a & b",
    "x = a &\n",
    "x" + " " * 50 + "\n" + "y \r\n\t= 1",
]


@pytest.mark.parametrize("source", LAYOUTS)
@pytest.mark.parametrize("lang", sorted(LANGS))
def test_scanner_matches_reference_on_layouts(lang, source):
    _assert_same(source, LANGS[lang][0])


def _long_source(lang, size=100_000, seed=23):
    """Generated programs joined into one source of at least ``size``
    characters, about the size of the benchmark's largest input: JOOS
    classes follow one another, and minilet programs join as
    ``(p1) + (p2) + ...``."""
    _, pretty, gen = LANGS[lang]
    rng = random.Random(seed)
    parts = []
    while sum(map(len, parts)) < size:
        parts.append(pretty(gen(rng)))
    return "\n".join(parts) if lang == "joos" else " + ".join(f"({p})" for p in parts)


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_scanner_matches_reference_at_benchmark_scale(lang):
    """The whole source is one scan: on a long source the tokens are the
    reference's, and a stray ``#`` at the start of its last line gives the
    reference's error text."""
    parser = LANGS[lang][0]
    source = _long_source(lang)
    assert len(source) >= 100_000
    last_line = source.rfind("\n") + 1
    bad = source[:last_line] + "#" + source[last_line:]
    for text in (source, bad):
        assert _rows(tokenize, text, parser) == _rows(tokenize_reference, text, parser)
    assert _rows(tokenize, bad, parser).endswith("unexpected character '#'")


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_trailing_blanks_are_scanned_in_linear_time(lang):
    """The scan stops before the source's trailing blanks. From each
    position in a run of blanks with no lexeme after it, the scanner would
    take every blank to the end and give each back, which is quadratic: a
    source ending in 20,000 blanks would take seconds. It takes at most 20
    times as long as the same source with one more lexeme after them (the
    two take about the same time)."""
    parser = LANGS[lang][0]
    source = "x" + " " * 20_000

    def best(text):
        runs = timeit.repeat(lambda: tokenize(text, parser._KEYWORDS, parser._SYMBOLS), number=1, repeat=5)
        return min(runs)

    assert best(source) <= 20 * best(source + "y")


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_the_columns_hold_one_entry_per_reference_token(lang):
    """``len`` of the tokens is the reference's token count, EOF included
    (the benchmark counts tokens by it), and each of the four columns has
    that length, so reading them row by row drops no entry."""
    parser = LANGS[lang][0]
    for source in [*_sources(lang), *LAYOUTS]:
        try:
            expected = len(tokenize_reference(source, parser._KEYWORDS, parser._SYMBOLS))
        except ParseError:
            continue
        tokens = tokenize(source, parser._KEYWORDS, parser._SYMBOLS)
        assert len(tokens) == expected
        columns = (tokens.kinds, tokens.texts, tokens.starts, tokens.ends)
        assert [len(column) for column in columns] == [expected] * 4


@pytest.mark.parametrize("source", ["", " \r\n\t", "x", "f(x, 1) = (x)  ", "f\n(1);\n"])
@pytest.mark.parametrize("lang", sorted(LANGS))
def test_the_stream_pads_each_column_with_eof_entries(lang, source):
    """A stream's columns are the tokens' columns with ``LOOKAHEAD`` more
    EOF entries: each ends with ``LOOKAHEAD + 1`` entries of kind ``EOF``,
    text ``""`` and start and end at the end of the source."""
    cls = LANGS[lang][0]._Parser
    count = len(tokenize(source, cls.KEYWORDS, cls.SYMBOLS))
    stream = cls(source)
    tail = LOOKAHEAD + 1
    eof = {"kinds": EOF, "texts": "", "starts": len(source), "ends": len(source)}
    for name, value in eof.items():
        column = getattr(stream, name)
        assert len(column) == count + LOOKAHEAD, name
        assert column[-tail:] == [value] * tail, name
    assert EOF not in stream.kinds[:-tail]


def test_a_parse_leaves_no_attribute_outside_the_stream_s_slots():
    """The parsers keep their state in slots; the instance dict is only for
    the shadow of ``make`` that a JOOS parse sets while it reads a body
    without building it, and deletes after, so it is empty after a full
    parse and after a diet one."""
    for source in _sources("joos", 3):
        for build in (None, lambda span: False, lambda span: True):
            p = jparser._Parser(source, build)
            p.program()
            assert vars(p) == {}
    for source in _sources("minilet", 3):
        p = mparser._Parser(source)
        p.expression()
        assert vars(p) == {}


def test_lexing_has_no_token_class():
    """Tokens are columns; no object is built per lexeme."""
    assert not hasattr(lexing, "Token")


def _relayout(text, rng):
    """Same tokens, other whitespace: every blank becomes a random run of
    blanks, tabs and line breaks, so spans cross lines and columns move."""
    parts = text.split(" ")
    out = [parts[0]]
    for part in parts[1:]:
        out.append(rng.choice((" ", "  ", "\t", "\n", " \r\n\t ")))
        out.append(part)
    return "".join(out)


def _preorder(t, lines, out):
    out.append((t.tag, str(lines.span(t.span))))
    for c in t.children():
        _preorder(c, lines, out)
    return out


def span_digest(lang, count=100, seed=2002):
    """sha256 over the preorder ``(tag, span)`` lists of ``count`` seeded
    generated programs, each parsed as printed and once relaid out. Spans
    are digested in their line:column view."""
    parser, pretty, gen = LANGS[lang]
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        text = pretty(gen(rng))
        for source in (text, _relayout(text, rng)):
            for tag, span in _preorder(parser.parse_program(source), Lines(source), []):
                h.update(f"{tag} {span}\n".encode())
    return h.hexdigest()


# Computed with the character-loop scanner and the parsers it served.
SPAN_DIGESTS = {
    "joos": "80875b69d74e9d1596c5b9b65975ca289fd5c81eabafb9af133ef1bc7c0332fb",
    "minilet": "a33a6c7649eaff80a64d95287932f678e1d420b193917e530723165b5dad31e2",
}


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_spans_are_pinned(lang):
    """Spans take no part in tree equality, so a round trip cannot see a
    wrong one; this pin does."""
    assert span_digest(lang) == SPAN_DIGESTS[lang]


@pytest.mark.parametrize("lang,source,message", [
    ("joos", "x  ", "line 1, col 1: expected 'class', found 'x'"),
    ("joos", "class C {  \t\r\n", "line 2, col 1: expected 'int' or 'boolean', found end of input"),
    ("minilet", "let f(x) = x; in \r\n\t ", "line 2, col 3: expected an expression, found end of input"),
    ("joos", "  \n\t", "line 2, col 2: expected 'class', found end of input"),
    ("minilet", "", "line 1, col 1: expected an expression, found end of input"),
    ("joos", "class C {\r\n  void m() {\r\n    x = 1 +;\r\n  }\r\n}\r\n",
     "line 3, col 12: expected an expression, found ';'"),
    ("minilet", "1 +\x0b2", "line 1, col 4: unexpected character '\\x0b'"),
    ("joos", "class Café { }", "line 1, col 10: unexpected character 'é'"),
    ("joos", "class C { void m() { x = a & b; } }", "line 1, col 28: unexpected character '&'"),
    ("minilet", "let\r\n  f(x) = x;\r\nin f(1) &", "line 3, col 9: unexpected character '&'"),
])
def test_parse_error_texts_are_pinned(lang, source, message):
    """Parse errors name their position in line:column, through the line
    table: at the end of input after trailing blanks, after carriage
    returns, and at a stray character."""
    with pytest.raises(ParseError) as exc:
        LANGS[lang][0].parse_program(source)
    assert str(exc.value) == message


GOLDEN = Path(__file__).parent / "golden"

# Each language's golden inputs, by suffix, with the entry that parses them.
_ENTRIES = {
    "joos": {".joos": jparser.parse_program, ".jdecl": jparser.parse_method},
    "minilet": {".mlt": mparser.parse_program, ".mdecl": mparser.parse_fundef},
}


def _golden(lang):
    """Each golden input of ``lang``, by name, with its parse entry."""
    entries = _ENTRIES[lang]
    return [
        (path.name, path.read_text(encoding="utf-8"), entries[path.suffix])
        for path in sorted((GOLDEN / lang).iterdir())
    ]


def _inputs(lang):
    """The golden corpus, seeded generated programs and ``LAYOUTS``, each
    with the entry that parses it."""
    parse = LANGS[lang][0].parse_program
    return [
        *((source, entry) for _, source, entry in _golden(lang)),
        *((source, parse) for source in [*_sources(lang, 50), *LAYOUTS]),
    ]


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_a_token_kind_is_keyword_or_symbol_exactly_when_its_text_is(lang):
    """What lets the readers match by text alone: a token is a keyword
    exactly when its text is one of the language's keywords, and a symbol
    exactly when its text is one of its symbols."""
    cls = LANGS[lang][0]._Parser
    seen = set()
    for source, _ in _inputs(lang):
        try:
            tokens = tokenize(source, cls.KEYWORDS, cls.SYMBOLS)
        except ParseError:
            continue
        for kind, text in zip(tokens.kinds, tokens.texts):
            assert (kind == KEYWORD) == (text in cls.KEYWORDS), (kind, text)
            assert (kind == SYMBOL) == (text in cls.SYMBOLS), (kind, text)
            seen.add(kind)
    assert seen == {KEYWORD, SYMBOL, IDENT, INT, EOF}


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_the_readers_are_given_only_keywords_and_symbols(lang, monkeypatch):
    """``at``, ``accept`` and ``expect`` compare text alone, which also
    matches the kind only for a keyword's or a symbol's text: while the
    parser reads every input, they are given nothing else."""
    cls = LANGS[lang][0]._Parser
    known = cls.KEYWORDS | set(cls.SYMBOLS)
    given = []
    for name in ("at", "accept", "expect"):
        read = getattr(lexing.TokenStream, name)

        def checked(self, text, *args, read=read):
            given.append(text)
            return read(self, text, *args)

        monkeypatch.setattr(lexing.TokenStream, name, checked)
    for source, parse in _inputs(lang):
        try:
            parse(source)
        except ParseError:
            pass
    assert given and set(given) <= known, set(given) - known


def parse_error_digest(lang):
    """sha256 over the outcome of parsing every prefix of every golden
    input of ``lang``: its ``ParseError`` text, or ``ok``."""
    h = hashlib.sha256()
    for name, source, parse in _golden(lang):
        for end in range(len(source) + 1):
            try:
                parse(source[:end])
                outcome = "ok"
            except ParseError as exc:
                outcome = str(exc)
            h.update(f"{name} {end}: {outcome}\n".encode())
    return h.hexdigest()


# Computed with the readers that also tested each token's kind. Before
# ``layout.joos`` and ``bad_body.joos`` joined the corpus, the JOOS inputs
# hashed to a76b1144a4a33217..., as they still do without those two.
PARSE_ERROR_DIGESTS = {
    "joos": "3185b608bfd4341cdf1397ee7ad96edd14a51c63edb67fc9d7a4c25dc9ec3c8e",
    "minilet": "659f887d467021185a9aa9070cda1e051836f15602eb665b49307305a94c5496",
}


@pytest.mark.parametrize("lang", sorted(LANGS))
def test_parse_errors_on_golden_prefixes_are_pinned(lang):
    """Each prefix of a golden input parses, or fails with a
    ``ParseError`` whose position, expected and found texts are pinned."""
    assert parse_error_digest(lang) == PARSE_ERROR_DIGESTS[lang]


def _random_span(rng):
    width = rng.choice([1, 3, 9])
    line, col = rng.randint(0, 10**width), rng.randint(0, 10**width)
    end_line = line + rng.choice([0, 0, 1, rng.randint(2, 10**width)])
    end_col = rng.randint(col if end_line == line else 0, col + 10**width)
    return Span(line, col, end_line, end_col)


def test_span_parse_inverts_str():
    rng = random.Random(17)
    for _ in range(2000):
        span = _random_span(rng)
        assert Span.parse(str(span)) == span


@pytest.mark.parametrize("text", [
    "", "86", "1:1", "1:1-1", "1:1-1:2-3:4", "1:1:1-1:2", "1:-1-1:2", "-1:1-1:2", "+1:1-1:2",
    " 1:1-1:2", "1:1-1:2 ", "1:1-1:2\n", "1: 1-1:2", "1:1 -1:2", "1:1-1:2_0", "1_0:1-1:2",
    "١:١-١:٢", "1:1-1:２", "0x1:1-1:2", "1.0:1-1:2",
])
def test_span_parse_takes_only_ascii_digits(text):
    with pytest.raises(ValueError) as exc:
        Span.parse(text)
    assert str(exc.value) == f"malformed span {text!r}, expected L:C-L:C"


@pytest.mark.parametrize("text,ordered", [
    ("3:5-3:5", True), ("3:5-3:6", True), ("3:5-4:1", True),
    ("3:5-3:4", False), ("3:5-2:9", False), ("4:1-3:5", False),
])
def test_span_parse_refuses_an_end_before_the_start(text, ordered):
    if ordered:
        assert str(Span.parse(text)) == text
    else:
        with pytest.raises(ValueError, match=rf"^span '{text}' is not well-ordered$"):
            Span.parse(text)


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_LIMIT, reason="int() converts strings of any length")
@pytest.mark.parametrize("role", range(4))
def test_span_parse_names_a_part_too_long_to_convert(role):
    """A part past ``int``'s digit limit is named by its role and length;
    a part at the limit converts."""
    for digits, fits in ((_INT_LIMIT, True), (_INT_LIMIT + 1, False)):
        parts = ["1"] * 4
        if role < 2:  # so that the end stays after the start
            parts[role + 2] = "2" * _INT_LIMIT
        parts[role] = "1" * digits
        text = "{}:{}-{}:{}".format(*parts)
        if fits:
            assert str(Span.parse(text)) == text
        else:
            name = ("line", "column", "end line", "end column")[role]
            with pytest.raises(ValueError, match=rf"^span {name} of {digits} digits is too long$"):
                Span.parse(text)


def test_line_table_offsets_exist_only_inside_the_source():
    """``Lines.offset`` maps a 1-based position to its offset; line or
    column 0, a column past a line's end (the column just after its last
    character) and a line past the last are no position."""
    lines = Lines("ab\ncd")
    assert [lines.offset(1, c) for c in range(5)] == [None, 0, 1, 2, None]
    assert [lines.offset(2, c) for c in range(5)] == [None, 3, 4, 5, None]
    assert [lines.offset(line, 1) for line in (0, 3)] == [None, None]
    assert lines.offsets(Span(1, 2, 2, 3)) == (1, 5)
    assert lines.offsets(Span(1, 2, 2, 4)) is None and lines.offsets(Span(1, 4, 2, 3)) is None


def test_parse_error_keeps_its_position():
    exc = ParseError.at("ab\n  x", 5, "stray")
    assert (exc.line, exc.col, str(exc)) == (2, 3, "line 2, col 3: stray")


def test_span_parse_names_a_long_malformed_text_by_its_length():
    echoed = "1:1-1:" + "x" * 34
    assert len(echoed) == 40
    with pytest.raises(ValueError, match=r"^malformed span '1:1-1:x{34}', expected L:C-L:C$"):
        Span.parse(echoed)
    with pytest.raises(ValueError, match=r"^malformed span of 41 characters, expected L:C-L:C$"):
        Span.parse(echoed + "x")
