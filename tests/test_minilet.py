"""Minilet frontend and refactorings: parsing, printing, name analyses,
nested-scope host selection, and meaning preservation under extraction."""

from __future__ import annotations

import random

import pytest

from refax import framework
from refax.framework import NameClash, NoFocus, NoHost
from refax.lexing import Lines, ParseError, Span, SpanMismatch
from refax.minilet import (
    LANGUAGE,
    ast,
    declared_pairs,
    expr_focus,
    extract_function,
    introduce_function,
    parse_fundef,
    parse_program,
    place_focus_by_span,
    pretty,
    referenced_names,
    resolution_check,
)
from refax.strategy import StrategyFailure, apply_tu

from . import minilet_gen, oracles


def test_parse_and_roundtrip_simple_let():
    src = "let\n    f(x) = x + 1;\nin\n    f(2)\n"
    prog = parse_program(src)
    assert pretty(prog) == src
    assert parse_program(pretty(prog)) == prog


def test_parse_error_on_unterminated_let():
    with pytest.raises(ParseError):
        parse_program("let f(x) = x + 1;")
    with pytest.raises(ParseError):
        parse_program("let in 1")


# (source, the whole ParseError text)
_PARSE_ERRORS = [
    ("1 + * 2", "line 1, col 5: expected an expression, found '*'"),
    ("f(1,)", "line 1, col 5: expected an expression, found ')'"),
    ("let f(x y) = x; in 1", "line 1, col 9: expected ')', found 'y'"),
    ("1 2", "line 1, col 3: expected end of input, found '2'"),
    ("let f(x) = x; in", "line 1, col 17: expected an expression, found end of input"),
]


@pytest.mark.parametrize("source,message", _PARSE_ERRORS, ids=[m for _, m in _PARSE_ERRORS])
def test_parse_error_text(source, message):
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert str(exc.value) == message


def test_deep_nested_calls_parse():
    """450 calls nested as arguments stay within the default recursion
    limit: a nested call costs the parser two frames, ``expression`` and
    ``primary``, and no frame more for reading its argument list."""
    depth = 450
    node = parse_program("f(" * depth + "1" + ")" * depth).body
    for _ in range(depth):
        assert isinstance(node, ast.Call)
        (node,) = node.args
    assert node == ast.IntLit(1) and node.span == (2 * depth, 2 * depth + 1)


def test_precedence():
    prog = parse_program("let f() = 1; in a + b * c")
    body = prog.body.body
    assert body == ast.BinOp("+", ast.Var("a"), ast.BinOp("*", ast.Var("b"), ast.Var("c")))
    assert parse_program(pretty(prog)) == prog


def test_let_in_operand_position_is_parenthesised():
    inner = ast.Let(ast.FunDefList((ast.FunDef("g", ("x",), ast.Var("x")),)), ast.Call("g", (ast.IntLit(1),)))
    prog = ast.Program(ast.BinOp("+", inner, ast.IntLit(2)))
    text = pretty(prog)
    assert text.startswith("(let")
    assert parse_program(text) == prog


def test_roundtrip_on_generated_programs():
    rng = random.Random(77)
    for _ in range(150):
        prog = minilet_gen.gen_program(rng)
        text = pretty(prog)
        assert parse_program(text) == prog
        assert pretty(parse_program(text)) == text


# -- name analyses ---------------------------------------------------------------


def test_declared_on_fundef_header():
    """A definition binds its parameters only: its name belongs to the
    call name space, bound by the enclosing let."""
    fd = parse_fundef("f(x) = x + 1;")
    assert apply_tu(declared_pairs, fd) == (framework.NameTypePair("x", "val"),)
    with pytest.raises(StrategyFailure):
        apply_tu(declared_pairs, ast.IntLit(3))


def test_free_names_example():
    prog = parse_program("let f(x) = x + y; in f(z)")
    declared = framework.declared_names(declared_pairs)
    assert framework.free_names(declared, referenced_names, prog) == ("y", "z")
    assert oracles.minilet_free_names(prog) == ("y", "z")


def test_free_names_match_oracle_on_generated_programs():
    rng = random.Random(31)
    declared = framework.declared_names(declared_pairs)
    for _ in range(150):
        prog = minilet_gen.gen_program(rng)
        assert framework.free_names(declared, referenced_names, prog) == oracles.minilet_free_names(prog)


def test_resolution_check():
    assert resolution_check(parse_program("let f(x) = x; in f(1)")) == []
    assert resolution_check(parse_program("let f(x) = x + y; in f(z)")) == [
        "unbound variable 'y'",
        "unbound variable 'z'",
    ]
    assert resolution_check(parse_program("let f(x) = g(); in f(1, 2)")) == [
        "call of undefined function 'g'",
        "call arity mismatch for 'f' (expected 1, got 2)",
    ]
    assert resolution_check(parse_program("let f() = 1; f() = 2; in f()")) == [
        "duplicate definition of 'f' in one let"
    ]
    assert resolution_check(parse_program("let f(x, x) = x; in f(1, 2)")) == [
        "duplicate parameter 'x' of 'f'"
    ]


# -- extraction and host selection --------------------------------------------------

NESTED_SRC = """let
    f(a) =
        let
            g(b) =
                let
                    h(c) = c * a + b;
                in
                    h(b) + a;
        in
            g(a);
in
    f(3)
"""


def test_extract_targets_innermost_list_on_three_level_nesting():
    prog = parse_program(NESTED_SRC)
    # focus on `c * a` inside h, three lets deep
    h = prog.body.defs.defs[0].body.defs.defs[0].body.defs.defs[0]
    target = h.body.left
    focused = framework.wrap_first(ast.Expression, lambda t: t is target, ast.ExprFocus, prog)
    result = extract_function("mul", focused)
    inner_defs = result.body.defs.defs[0].body.defs.defs[0].body.defs.defs[0:]
    inner_list = result.body.defs.defs[0].body.defs.defs[0].body.defs
    assert [fd.name for fd in inner_list.defs] == ["h", "mul"]
    # outer lists untouched
    assert [fd.name for fd in result.body.defs.defs] == ["f"]
    mid_list = result.body.defs.defs[0].body.defs
    assert [fd.name for fd in mid_list.defs] == ["g"]
    new = inner_list.defs[-1]
    assert new == ast.FunDef("mul", ("c", "a"), ast.BinOp("*", ast.Var("c"), ast.Var("a")))
    assert minilet_gen.eval_program(result) == minilet_gen.eval_program(prog)


def test_host_depth_matches_ancestor_oracle():
    rng = random.Random(8)
    checked = 0
    for _ in range(80):
        prog = minilet_gen.gen_program(rng)
        exprs = minilet_gen.expr_nodes_under_let(prog)
        if not exprs:
            continue
        from refax.minilet import let_defs_host

        target = rng.choice(exprs)
        focused = framework.wrap_first(ast.Expression, lambda t: t is target, ast.ExprFocus, prog)
        marked = framework.mark_host(let_defs_host, expr_focus, focused)
        # oracle: deepest Let ancestor of the focus wrapper
        path = _path_to(focused, lambda n: isinstance(n, ast.ExprFocus))
        lets_on_path = [
            i for i in range(len(path) + 1)
            if isinstance(_node_at(focused, path[:i]), ast.Let)
        ]
        expected_let_path = path[: lets_on_path[-1]]
        marked_let = _node_at(marked, expected_let_path)
        assert isinstance(marked_let, ast.Let)
        assert isinstance(marked_let.defs, ast.FunDefListFocus)
        checked += 1
    assert checked >= 60


def _path_to(t, pred, prefix=()):
    if pred(t):
        return prefix
    for i, c in enumerate(t.children()):
        found = _path_to(c, pred, prefix + (i,))
        if found is not None:
            return found
    return None


def _node_at(t, path):
    for i in path:
        t = t.children()[i]
    return t


def test_extract_no_host_at_top_level():
    prog = parse_program("1 + 2")
    target = prog.body.left
    focused = framework.wrap_first(ast.Expression, lambda t: t is target, ast.ExprFocus, prog)
    with pytest.raises(NoHost):
        extract_function("q", focused)


def test_extract_name_clash_with_sibling():
    prog = parse_program("let f(x) = x; g(y) = y; in f(g(1))")
    target = prog.body.defs.defs[0].body
    focused = framework.wrap_first(ast.Expression, lambda t: t is target, ast.ExprFocus, prog)
    with pytest.raises(NameClash):
        extract_function("g", focused)


def test_extract_requires_focus():
    with pytest.raises(NoFocus):
        extract_function("q", parse_program("let f(x) = x; in f(1)"))


def test_meaning_preserved_on_sampled_extractions():
    rng = random.Random(404)
    checked = 0
    for _ in range(60):
        prog = minilet_gen.gen_program(rng)
        exprs = minilet_gen.expr_nodes_under_let(prog)
        if not exprs:
            continue
        target = rng.choice(exprs)
        focused = framework.wrap_first(ast.Expression, lambda t: t is target, ast.ExprFocus, prog)
        try:
            result = extract_function(minilet_gen.fresh_name(prog), focused)
        except framework.RefactoringError:
            continue
        assert minilet_gen.eval_program(result) == minilet_gen.eval_program(prog)
        checked += 1
    assert checked >= 40


# -- introduction --------------------------------------------------------------------


def test_introduce_function_by_span():
    src = "let\n    f(x) = x + 1;\nin\n    f(2)\n"
    prog = parse_program(src)
    list_span = prog.body.defs.span
    focused = place_focus_by_span(src, "fundeflist", Lines(src).span(list_span))
    out = introduce_function(parse_fundef("g(y) = y * 2;"), focused)
    assert [fd.name for fd in out.body.defs.defs] == ["f", "g"]
    with pytest.raises(NameClash):
        introduce_function(parse_fundef("f() = 1;"), focused)


def test_introduce_clash_with_free_variable():
    # `a` is free in the list (outer formal used by an inner body)
    src = "let f(a) = let g(b) = a + b; in g(a); in f(1)"
    prog = parse_program(src)
    inner_let = prog.body.defs.defs[0].body
    import dataclasses

    focused_inner = dataclasses.replace(inner_let, defs=ast.FunDefListFocus(inner_let.defs))
    focused = _replace_node(prog, inner_let, focused_inner)
    with pytest.raises(NameClash):
        introduce_function(parse_fundef("a() = 1;"), focused)


def _replace_node(t, old, new):
    if t is old:
        return new
    cs = t.children()
    for i, c in enumerate(cs):
        replaced = _replace_node(c, old, new)
        if replaced is not c:
            return t.rebuild(cs[:i] + (replaced,) + cs[i + 1 :])
    return t


def test_span_mismatch_for_fundef_list():
    src = "let\n    f(x) = x + 1;\nin\n    f(2)\n"
    with pytest.raises(SpanMismatch):
        place_focus_by_span(src, "fundeflist", Span(1, 1, 1, 2))


# A new function named like a function of an enclosing let captures the
# calls to it in the target list: call names are not free names, and the
# let body is not part of the list, so the NameClash rule sees neither.
_CAPTURE = "a new function captures calls to an outer function of the same name"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CAPTURE)
def test_extract_keeps_calls_to_an_outer_function_of_the_new_name():
    src = "let f(x) = x + 1; in\n    let g(y) = y * 10; in\n        let h(a) = f(a) + g(a); in h(4)\n"
    focused = place_focus_by_span(src, "expr", Span.parse("3:27-3:31"))
    try:
        result = LANGUAGE.extract("f", focused)
    except framework.RefactoringError:
        return
    assert minilet_gen.eval_program(result) == minilet_gen.eval_program(parse_program(src))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CAPTURE)
def test_introduce_keeps_calls_to_an_outer_function_of_the_new_name():
    src = "let f(x) = x + 1; in\n    let g(y) = y; in\n        f(2) * g(3)\n"
    focused = place_focus_by_span(src, "fundeflist", Span.parse("2:9-2:18"))
    try:
        result = LANGUAGE.introduce(parse_fundef("f(a) = a * 100;"), focused)
    except framework.RefactoringError:
        return
    assert minilet_gen.eval_program(result) == minilet_gen.eval_program(parse_program(src))
