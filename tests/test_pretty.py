"""Both printers: the exact text they print, and the frames they spend per
level of nesting.

The round-trip and golden tests pass for any layout the parsers read
back, so the digests below pin the layout itself: any change to what
``pretty`` prints for a generated program fails here. The depth tests
build nested trees directly, not through the parser, and print each a
margin below the first depth that fails in a plain ``python`` process;
a printer that spends one more frame per level fails them."""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from refax import joos, minilet
from refax.joos import ast as J
from refax.minilet import ast as M

from . import joos_gen, minilet_gen

_PRINTERS = {"joos": (joos_gen, joos.pretty), "minilet": (minilet_gen, minilet.pretty)}


@pytest.mark.parametrize("lang, seed, expected", [
    ("joos", 1, "7e9f6df84e9aa4d4"),
    ("joos", 7919, "2045c3c3a7f4becd"),
    ("minilet", 1, "477bb95158034661"),
    ("minilet", 7919, "1092fd814fb49715"),
])
def test_printed_text_is_pinned(lang, seed, expected):
    """SHA-256 over the text of 1000 generated programs. A digest changes
    when the layout does, or when the generator draws other programs."""
    gen, pretty = _PRINTERS[lang]
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(1000):
        digest.update(pretty(gen.gen_program(rng)).encode())
    assert digest.hexdigest()[:16] == expected


def _nest(depth, wrap, leaf):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


def _in_method(body):
    method = J.MethodDecl("void", "m", (), J.Block((body,)))
    return J.Program((J.ClassDecl("C", (), J.MethodList((method,))),))


def _let(defs_body, body):
    return M.Let(M.FunDefList((M.FunDef("f", ("x",), defs_body),)), body)


_TRUE, _RETURN, _ONE = J.BoolLit(True), J.Return(None), M.IntLit(1)

# shape -> (first failing depth at the parent, build a tree of that depth)
_SHAPES = {
    "joos if": (496, lambda n: _in_method(_nest(n, lambda s: J.If(_TRUE, s, None), _RETURN))),
    "joos if, block branch": (
        496, lambda n: _in_method(_nest(n, lambda s: J.If(_TRUE, J.Block((s,)), None), _RETURN))),
    "joos while": (496, lambda n: _in_method(_nest(n, lambda s: J.While(_TRUE, s), _RETURN))),
    "joos while, block body": (
        496, lambda n: _in_method(_nest(n, lambda s: J.While(_TRUE, J.Block((s,))), _RETURN))),
    "joos block": (992, lambda n: _in_method(_nest(n, lambda s: J.Block((s,)), _RETURN))),
    "joos if/else": (496, lambda n: _in_method(_nest(n, lambda s: J.If(_TRUE, _RETURN, s), _RETURN))),
    "joos if/else, block branches": (
        496, lambda n: _in_method(
            _nest(n, lambda s: J.If(_TRUE, J.Block((_RETURN,)), J.Block((s,))), _RETURN))),
    "minilet let in a definition body": (
        497, lambda n: M.Program(_nest(n, lambda e: _let(e, _ONE), _ONE))),
    "minilet let as a let body": (498, lambda n: M.Program(_nest(n, lambda e: _let(_ONE, e), _ONE))),
    "minilet let as an operand of a let body": (
        332, lambda n: M.Program(_nest(n, lambda e: _let(_ONE, M.BinOp("+", _ONE, e)), _ONE))),
}
_MARGIN = 10  # levels, for small differences between Python versions


def _print_with_a_fresh_stack(pretty, program) -> str:
    """Call ``pretty`` with the frames a top-level call has in a plain
    ``python`` process under the default limit, however deep the test
    runner's own stack is."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000 - 1)
    try:
        return pretty(program)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("shape", _SHAPES)
def test_printer_frames_per_level(shape):
    limit, build = _SHAPES[shape]
    program = build(limit - _MARGIN)
    pretty = joos.pretty if shape.startswith("joos") else minilet.pretty
    text = _print_with_a_fresh_stack(pretty, program)
    assert text.endswith("\n")
