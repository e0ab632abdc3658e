"""JOOS frontend: parsing, printing, spans, name queries, static checks."""

from __future__ import annotations

import random

import pytest

from refax import framework
from refax.joos import (
    LANGUAGE,
    ast,
    declared_pairs,
    defined_names,
    parse_method,
    parse_program,
    place_focus_by_span,
    pretty,
    referenced_names,
    static_check,
    used_names,
)
from refax.joos.analysis import ExprType
from refax.lexing import Lines, ParseError, Span, SpanMismatch
from refax.strategy import StrategyFailure, apply_tu

from . import joos_gen, oracles


def test_parse_minimal_program():
    prog = parse_program("class C { void m() { } }")
    assert [c.name for c in prog.classes] == ["C"]
    method = prog.classes[0].methods.methods[0]
    assert method.name == "m" and method.body == ast.Block(())


def test_parse_error_on_truncated_input():
    with pytest.raises(ParseError):
        parse_program("class C {")
    with pytest.raises(ParseError):
        parse_program("")
    with pytest.raises(ParseError) as exc:
        parse_program("class C { void m() { x = ; } }")
    assert exc.value.line == 1


# (source, the whole ParseError text)
_PARSE_ERRORS = [
    ("class C { void m() { x = 1 + ; } }", "line 1, col 30: expected an expression, found ';'"),
    ("class C { void m() { this.n(1,); } }", "line 1, col 31: expected an expression, found ')'"),
    ("class C { void m() { n(1 2); } }", "line 1, col 26: expected ')', found '2'"),
    ("class C { void m(int a,) { } }", "line 1, col 24: expected 'int' or 'boolean', found ')'"),
    ("class C { void m() { ; } }", "line 1, col 22: expected a statement, found ';'"),
    ("class C { } x", "line 1, col 13: expected end of input, found 'x'"),
]


@pytest.mark.parametrize("source,message", _PARSE_ERRORS, ids=[m for _, m in _PARSE_ERRORS])
def test_parse_error_text(source, message):
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert str(exc.value) == message


def test_unqualified_call_statement():
    """``n();`` is a call statement without ``this.``; it prints back as
    written, checks clean, and extracts like any other statement."""
    src = "class C { void m() { n(); } void n() { } }"
    prog = parse_program(src)
    stmt = prog.classes[0].methods.methods[0].body.statements[0]
    assert stmt == ast.CallStmt(ast.Call(False, "n", ()))
    assert "        n();\n" in pretty(prog)
    assert parse_program(pretty(prog)) == prog
    assert static_check(prog) == []
    focused = place_focus_by_span(src, "statement", Span.parse("1:22-1:26"))
    assert pretty(LANGUAGE.extract("h", focused)) == (
        "class C {\n"
        "    void m() {\n"
        "        this.h();\n"
        "    }\n"
        "\n"
        "    void n() {\n"
        "    }\n"
        "\n"
        "    void h() {\n"
        "        n();\n"
        "    }\n"
        "}\n"
    )


def test_precedence_and_associativity():
    prog = parse_program("class C { void m(int a, int b, int c, int d) { a = b + c * d; } }")
    assign = prog.classes[0].methods.methods[0].body.statements[0]
    assert assign.value == ast.BinOp("+", ast.VarRef("b"), ast.BinOp("*", ast.VarRef("c"), ast.VarRef("d")))
    prog2 = parse_program("class C { void m(int a) { a = a - 1 - 2; } }")
    v = prog2.classes[0].methods.methods[0].body.statements[0].value
    assert v == ast.BinOp("-", ast.BinOp("-", ast.VarRef("a"), ast.IntLit(1)), ast.IntLit(2))
    # relational binds tighter than equality, equality tighter than &&
    prog3 = parse_program("class C { void m(boolean q, int a) { q = a < 1 == q && true; } }")
    v3 = prog3.classes[0].methods.methods[0].body.statements[0].value
    assert v3.op == "&&" and v3.left.op == "==" and v3.left.left.op == "<"


def test_parens_override_precedence_and_roundtrip():
    src = "class C {\n    void m(int a, int b) {\n        a = (a + b) * 2;\n    }\n}\n"
    prog = parse_program(src)
    assert pretty(prog) == src
    assert parse_program(pretty(prog)) == prog


def test_unary_not_binding():
    prog = parse_program("class C { void m(boolean q) { q = !q && !(q == q); } }")
    v = prog.classes[0].methods.methods[0].body.statements[0].value
    assert v.op == "&&" and isinstance(v.left, ast.Not) and isinstance(v.right, ast.Not)
    assert pretty(parse_program(pretty(prog))) == pretty(prog)


def test_roundtrip_on_generated_programs():
    rng = random.Random(42)
    for _ in range(150):
        prog = joos_gen.gen_program(rng)
        text = pretty(prog)
        assert parse_program(text) == prog
        assert pretty(parse_program(text)) == text


def test_dangling_else_parses_to_inner_binding():
    prog = parse_program("class C { void m(boolean a, boolean b, int x) { if (a) if (b) x = 1; else x = 2; } }")
    outer = prog.classes[0].methods.methods[0].body.statements[0]
    assert outer.else_branch is None
    inner = outer.then_branch
    assert inner.else_branch is not None
    assert parse_program(pretty(prog)) == prog


# -- spans and focus placement ---------------------------------------------------


def test_place_focus_on_statement_span():
    from refax.joos import statement_focus

    src = "class C {\n    void m(int a) {\n        a = a + 1;\n    }\n}\n"
    prog = parse_program(src)
    stmt = prog.classes[0].methods.methods[0].body.statements[0]
    span = Lines(src).span(stmt.span)
    assert span == Span(3, 9, 3, 19)
    focused = place_focus_by_span(src, "statement", span)
    assert framework.bound_typed_names(declared_pairs, statement_focus, focused)[1] == stmt


def test_place_focus_span_mismatch_reports_candidates():
    src = "class C {\n    void m(int a) {\n        a = a + 1;\n    }\n}\n"
    with pytest.raises(SpanMismatch) as exc:
        place_focus_by_span(src, "statement", Span(3, 9, 3, 18))
    assert "3:9-3:19" in str(exc.value)


def test_place_focus_on_method_list():
    src = "class C {\n    void m() {\n    }\n\n    void n() {\n    }\n}\n"
    prog = parse_program(src)
    method_list = prog.classes[0].methods
    focused = place_focus_by_span(src, "methodlist", Lines(src).span(method_list.span))
    assert isinstance(focused.classes[0].methods, ast.MethodDeclarationFocus)


# -- name queries -----------------------------------------------------------------


def _first_stmt(src: str) -> ast.Statement:
    return parse_program(src).classes[0].methods.methods[0].body.statements[0]


def test_declared_on_local_declaration():
    """A local declaration is bound by its block, throughout the block, as
    ``static_check`` resolves it; the declaration itself binds nothing."""
    block = parse_program("class C { void m() { int x; } }").classes[0].methods.methods[0].body
    assert apply_tu(declared_pairs, block) == (framework.NameTypePair("x", ExprType("int")),)
    with pytest.raises(StrategyFailure):
        apply_tu(declared_pairs, block.statements[0])


def test_declared_fails_on_non_declarations():
    loop = _first_stmt("class C { void m(boolean b) { while (b) { } } }")
    with pytest.raises(StrategyFailure):
        apply_tu(declared_pairs, loop)


def test_declared_on_binders_that_declare_nothing_is_empty():
    """A block and a class are always binders: without local declarations
    or members they yield no pairs instead of refusing."""
    block = _first_stmt("class C { void m() { { this.m(); } } }")
    assert isinstance(block, ast.Block)
    assert apply_tu(declared_pairs, block) == ()
    assert apply_tu(declared_pairs, parse_program("class C { }").classes[0]) == ()


def test_declared_on_method_header_and_params():
    """A method binds its parameters only; its header pair is bound by the
    class, as ``static_check`` resolves it."""
    method = parse_method("int f(int a, boolean b) { return 1; }")
    assert apply_tu(declared_pairs, method) == (
        framework.NameTypePair("a", ExprType("int")),
        framework.NameTypePair("b", ExprType("boolean")),
    )


def test_defined_and_used_queries():
    assign = _first_stmt("class C { void m(int x, int y) { x = y + 1; } }")
    assert apply_tu(defined_names, assign) == ("x",)
    with pytest.raises(StrategyFailure):
        apply_tu(used_names, assign)  # statements are not identifier expressions
    assert apply_tu(used_names, assign.value.left) == ("y",)
    lit = ast.IntLit(3)
    for q in (defined_names, used_names, referenced_names):
        with pytest.raises(StrategyFailure):
            apply_tu(q, lit)


def test_statement_focus_query_failure_modes():
    from refax.joos import statement_focus
    from refax.strategy import mono_tu

    # not a statement at all
    with pytest.raises(StrategyFailure):
        apply_tu(mono_tu(statement_focus), ast.IntLit(1))
    # a statement, but the focus is not placed on it
    stmt = _first_stmt("class C { void m() { return; } }")
    with pytest.raises(StrategyFailure):
        apply_tu(mono_tu(statement_focus), stmt)
    assert apply_tu(mono_tu(statement_focus), ast.StatementFocus(stmt)) == stmt


def test_call_names_are_not_variable_uses():
    call_stmt = _first_stmt("class C { void m(int a) { this.f(a); } void f(int x) { } }")
    declared = framework.declared_names(declared_pairs)
    assert framework.free_names(declared, referenced_names, call_stmt) == ("a",)


def test_free_names_match_oracle_on_generated_programs():
    rng = random.Random(5)
    declared = framework.declared_names(declared_pairs)
    for _ in range(150):
        prog = joos_gen.gen_program(rng)
        assert framework.free_names(declared, referenced_names, prog) == oracles.joos_free_names(prog)


def test_single_name_space():
    # the three queries all yield plain strings comparable across kinds
    src = "class C { int n; void n2(int n3) { n = n3; this.n2(n); } }"
    prog = parse_program(src)
    declared = framework.declared_names(declared_pairs)
    names = apply_tu(declared, prog.classes[0])
    assert all(isinstance(n, str) for n in names)
    assert framework.free_names(declared, referenced_names, prog) == ()


# -- static check ------------------------------------------------------------------


def test_static_check_clean_program():
    prog = parse_program("class C { int f; void m(int a) { f = a; this.m(f); } }")
    assert static_check(prog) == []


def test_static_check_unresolved_name():
    prog = parse_program("class C { void m() { int x; x = q; } }")
    diags = static_check(prog)
    assert len(diags) == 1 and "unresolved name 'q'" in diags[0]


def test_static_check_duplicate_method():
    prog = parse_program("class C { void m() { } void m() { } }")
    assert any("duplicate method 'm'" in d for d in static_check(prog))


def test_static_check_arity_and_undefined_call():
    prog = parse_program("class C { void m(int a) { this.m(a, a); this.nope(); } }")
    diags = static_check(prog)
    assert any("arity mismatch for 'm'" in d for d in diags)
    assert any("undefined method 'nope'" in d for d in diags)


def test_static_check_assignment_to_method():
    prog = parse_program("class C { void m() { m = 1; } }")
    assert any("non-variable 'm'" in d for d in static_check(prog))


def test_static_check_block_scope_ends():
    prog = parse_program("class C { void m() { { int x; x = 1; } x = 2; } }")
    assert any("undeclared variable 'x'" in d for d in static_check(prog))


def test_generated_programs_are_statically_valid():
    rng = random.Random(99)
    for _ in range(100):
        assert static_check(joos_gen.gen_program(rng)) == []
