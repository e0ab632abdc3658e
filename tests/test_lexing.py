"""Shared front end: the compiled scanner against the character-loop
reference it replaced, and a pin on the spans both parsers record."""

from __future__ import annotations

import hashlib
import random

import pytest

from refax import joos, minilet
from refax.joos import parser as jparser
from refax.lexing import EOF, IDENT, INT, KEYWORD, SYMBOL, ParseError, tokenize
from refax.minilet import parser as mparser

from . import joos_gen, minilet_gen

LANGS = {
    "joos": (jparser, joos.pretty, joos_gen.gen_program),
    "minilet": (mparser, minilet.pretty, minilet_gen.gen_program),
}

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def tokenize_reference(source, keywords, symbols):
    """The scanner the compiled one replaced: one character per step, each
    symbol tried in turn. Tokens as ``(kind, text, line, col, end_line,
    end_col)`` tuples."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and source[j] in _IDENT_CONT:
                j += 1
            text = source[i:j]
            kind = KEYWORD if text in keywords else IDENT
            tokens.append((kind, text, line, col, line, col + (j - i)))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append((INT, source[i:j], line, col, line, col + (j - i)))
            col += j - i
            i = j
            continue
        for sym in symbols:
            if source.startswith(sym, i):
                tokens.append((SYMBOL, sym, line, col, line, col + len(sym)))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append((EOF, "", line, col, line, col))
    return tokens


def _outcome(scan, source, parser):
    try:
        tokens = scan(source, parser._KEYWORDS, parser._SYMBOLS)
    except ParseError as exc:
        return str(exc)
    if scan is tokenize_reference:
        return tokens
    return [(t.kind, t.text, t.line, t.col, t.end_line, t.end_col) for t in tokens]


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
]


@pytest.mark.parametrize("source", LAYOUTS)
@pytest.mark.parametrize("lang", sorted(LANGS))
def test_scanner_matches_reference_on_layouts(lang, source):
    _assert_same(source, LANGS[lang][0])


def _relayout(text, rng):
    """Same tokens, other whitespace: every blank becomes a random run of
    blanks, tabs and line breaks, so spans cross lines and columns move."""
    parts = text.split(" ")
    out = [parts[0]]
    for part in parts[1:]:
        out.append(rng.choice((" ", "  ", "\t", "\n", " \r\n\t ")))
        out.append(part)
    return "".join(out)


def _preorder(t, out):
    out.append((t.tag, str(t.span)))
    for c in t.children():
        _preorder(c, out)
    return out


def span_digest(lang, count=100, seed=2002):
    """sha256 over the preorder ``(tag, span)`` lists of ``count`` seeded
    generated programs, each parsed as printed and once relaid out."""
    parser, pretty, gen = LANGS[lang]
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        text = pretty(gen(rng))
        for source in (text, _relayout(text, rng)):
            for tag, span in _preorder(parser.parse_program(source), []):
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
