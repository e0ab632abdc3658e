"""JOOS refactorings: extraction preconditions, the extract-method golden
case, introduction, and failure atomicity."""

from __future__ import annotations

import random

import pytest

from refax import framework
from refax.framework import CheckFailed, NameClash, NoFocus, UntypedFreeName
from refax.joos import (
    LANGUAGE,
    ast,
    check_extractable,
    extract_method,
    focus_class_methods,
    introduce_method,
    parse_method,
    parse_program,
    pretty,
    static_check,
    statement_focus,
)
from refax.terms import dump

from . import joos_gen, oracles
from .fixture_trees import wrap_node

GOLDEN_SRC = """class C {
    void m(int a, int b) {
        {
            int t;
            t = a + b;
            this.log(t);
        }
        this.log(a);
    }

    void log(int x) {
    }
}
"""

GOLDEN_OUT = """class C {
    void m(int a, int b) {
        this.helper(a, b);
        this.log(a);
    }

    void log(int x) {
    }

    void helper(int a, int b) {
        int t;
        t = a + b;
        this.log(t);
    }
}
"""


def _focus_first_stmt(src: str, *, method=0, stmt=0) -> ast.Program:
    prog = parse_program(src)
    target = prog.classes[0].methods.methods[method].body.statements[stmt]
    return wrap_node(prog, target, ast.StatementFocus)


# -- preconditions ----------------------------------------------------------------


def _fragment(src_stmt: str) -> ast.Statement:
    prog = parse_program(f"class C {{ void m(int a, int b) {{ {src_stmt} }} void log(int x) {{ }} }}")
    return prog.classes[0].methods.methods[0].body.statements[0]


def test_check_extractable_passes_on_self_contained_block():
    check_extractable(_fragment("{ int t; t = a + b; this.log(t); }"))


def test_check_extractable_rejects_return():
    with pytest.raises(CheckFailed) as exc:
        check_extractable(_fragment("{ return a; }"))
    assert exc.value.reason == "HasReturn"
    with pytest.raises(CheckFailed):
        check_extractable(_fragment("{ while (true) { return; } }"))


def test_check_extractable_rejects_free_assignment():
    with pytest.raises(CheckFailed) as exc:
        check_extractable(_fragment("{ x = 1; }"))
    assert exc.value.reason == "AssignsFreeVariable(x)"
    with pytest.raises(CheckFailed) as exc:
        check_extractable(_fragment("{ b = 1; a = 2; b = 3; }"))
    assert exc.value.reason == "AssignsFreeVariable(b)"  # the first of them
    # assignment to a variable the fragment itself declares is fine
    check_extractable(_fragment("{ int x; x = 1; }"))


def test_check_extractable_rejects_bare_declaration():
    with pytest.raises(CheckFailed) as exc:
        check_extractable(_fragment("int t;"))
    assert exc.value.reason == "ExtractsDeclaration"


def test_check_matches_oracle_scan():
    rng = random.Random(13)
    seen_return = seen_assign = 0
    for _ in range(120):
        prog = joos_gen.gen_program(rng)
        for frag in joos_gen.statement_nodes(prog):
            has_return = any(isinstance(n, ast.Return) for n in _walk(frag))
            assigns_free = bool(_oracle_assigned_frees(frag))
            try:
                check_extractable(frag)
                ok = True
            except CheckFailed as exc:
                ok = False
                reason = exc.reason
            if has_return:
                assert not ok and reason == "HasReturn"
                seen_return += 1
            elif assigns_free:
                assert not ok and reason.startswith("AssignsFreeVariable(")
                seen_assign += 1
            elif isinstance(frag, ast.LocalVarDecl):
                assert not ok and reason == "ExtractsDeclaration"
            else:
                assert ok
    assert seen_return > 20 and seen_assign > 20


def _walk(t):
    yield t
    for c in t.children():
        yield from _walk(c)


def _oracle_assigned_frees(frag):
    acc = []
    oracles._free_walk(
        frag,
        frozenset(),
        lambda n: [n.name] if isinstance(n, ast.Assign) else [],
        oracles.joos_binds_at,
        acc,
    )
    return acc


# -- extraction --------------------------------------------------------------------


def test_extract_method_golden():
    focused = _focus_first_stmt(GOLDEN_SRC)
    result = extract_method("helper", focused)
    assert pretty(result) == GOLDEN_OUT
    assert static_check(result) == []


def test_extract_single_statement_wraps_body_in_block():
    src = "class C { void m(int a) { this.log(a + 1); } void log(int x) { } }"
    result = extract_method("bump", _focus_first_stmt(src))
    assert pretty(result) == (
        "class C {\n"
        "    void m(int a) {\n"
        "        this.bump(a);\n"
        "    }\n"
        "\n"
        "    void log(int x) {\n"
        "    }\n"
        "\n"
        "    void bump(int a) {\n"
        "        this.log(a + 1);\n"
        "    }\n"
        "}\n"
    )


def test_extract_field_read_becomes_parameter():
    src = "class C { int f; void m() { this.sink(f + 1); } void sink(int x) { } }"
    result = extract_method("calc", _focus_first_stmt(src))
    new = result.classes[0].methods.methods[-1]
    assert [(g.type_name, g.name) for g in new.formals] == [("int", "f")]
    call = result.classes[0].methods.methods[0].body.statements[0]
    assert call.call.name == "calc" and [a.name for a in call.call.args] == ["f"]
    assert static_check(result) == []


def test_extract_assignment_to_field_is_rejected():
    src = "class C { int f; void m() { f = 1; } }"
    with pytest.raises(CheckFailed) as exc:
        extract_method("setter", _focus_first_stmt(src))
    assert exc.value.reason == "AssignsFreeVariable(f)"


def test_extract_parameter_order_is_first_occurrence():
    src = "class C { void m(int a, int b, int c) { { int t; t = c + a * b; this.use(t); } } void use(int x) { } }"
    result = extract_method("mix", _focus_first_stmt(src))
    new = result.classes[0].methods.methods[-1]
    assert [f.name for f in new.formals] == ["c", "a", "b"]
    call = result.classes[0].methods.methods[0].body.statements[0]
    assert [arg.name for arg in call.call.args] == ["c", "a", "b"]


def test_extract_shadowed_type_wins():
    src = "class C { void m(int a) { { boolean a; { int t; t = 1; this.use(a, t); } } } void use(boolean q, int x) { } }"
    prog = parse_program(src)
    target = prog.classes[0].methods.methods[0].body.statements[0].statements[1]
    focused = wrap_node(prog, target, ast.StatementFocus)
    result = extract_method("inner", focused)
    new = result.classes[0].methods.methods[-1]
    assert [(f.type_name, f.name) for f in new.formals] == [("boolean", "a")]
    assert static_check(result) == []


def test_extract_name_clash_with_existing_method():
    focused = _focus_first_stmt(GOLDEN_SRC)
    with pytest.raises(NameClash):
        extract_method("log", focused)


def test_extract_untyped_free_name():
    src = "class C { void m() { { this.use(q); } } void use(int x) { } }"
    focused = _focus_first_stmt(src)
    with pytest.raises(UntypedFreeName):
        extract_method("helper", focused)


def test_extract_requires_focus():
    with pytest.raises(NoFocus, match=r"^no focus wrapper present$"):
        extract_method("helper", parse_program(GOLDEN_SRC))


def test_extract_failure_leaves_program_intact():
    focused = _focus_first_stmt(GOLDEN_SRC)
    before = dump(focused)
    for bad_name in ("log", "m"):
        with pytest.raises(NameClash):
            extract_method(bad_name, focused)
        assert dump(focused) == before


def test_extract_postconditions_on_generated_programs():
    rng = random.Random(2024)
    successes = 0
    for _ in range(150):
        prog = joos_gen.gen_program(rng)
        stmts = [s for s in joos_gen.statement_nodes(prog) if not isinstance(s, ast.LocalVarDecl)]
        if not stmts:
            continue
        target = rng.choice(stmts)
        focused = wrap_node(prog, target, ast.StatementFocus)
        name = joos_gen.fresh_name(focused)
        before = dump(focused)
        try:
            result = extract_method(name, focused)
        except framework.RefactoringError:
            assert dump(focused) == before
            continue
        successes += 1
        assert_extract_postconditions(focused, name, result)
    assert successes >= 40


def assert_extract_postconditions(focused, name, result):
    """The five extraction postconditions plus static correctness."""
    from refax.joos import declared_pairs, method_signature, referenced_names

    env, fragment = framework.bound_typed_names(declared_pairs, statement_focus, focused)
    pairs = framework.free_typed_names(declared_pairs, referenced_names, env, fragment)
    focus_path = _path_to(focused, lambda n: isinstance(n, ast.StatementFocus))
    class_index = focus_path[0]

    # (a) exactly one new abstraction appended to the host list
    old_methods = focused.classes[class_index].methods.methods
    new_methods = result.classes[class_index].methods.methods
    assert len(new_methods) == len(old_methods) + 1
    new = new_methods[-1]
    # (b) its body is the fragment (via the signature's body conversion)
    assert new.body == method_signature.body_from_fragment(fragment)
    # (c) formals match the typed free names, in order
    assert [f.name for f in new.formals] == [p.name for p in pairs]
    assert new.name == name and new.return_type == "void"
    # (d) the focus position now holds one application with matching actuals
    call_stmt = _node_at(result, focus_path)
    assert isinstance(call_stmt, ast.CallStmt)
    assert call_stmt.call.this_qualified and call_stmt.call.name == name
    assert [a.name for a in call_stmt.call.args] == [f.name for f in new.formals]
    # (e) no focus wrapper remains
    assert not any(
        isinstance(n, (ast.StatementFocus, ast.MethodDeclarationFocus)) for n in _walk(result)
    )
    # nothing else changed: the whole result equals the input with the
    # wrapper swapped for the call and the new method appended
    assert result == _expected_result(focused, focus_path, call_stmt, class_index, new)
    assert static_check(result) == []


def _expected_result(focused, focus_path, call_stmt, class_index, new_method):
    import dataclasses

    swapped = _replace_at(focused, focus_path, call_stmt)
    cls = swapped.classes[class_index]
    extended = ast.MethodList(cls.methods.methods + (new_method,))
    classes = list(swapped.classes)
    classes[class_index] = dataclasses.replace(cls, methods=extended)
    return dataclasses.replace(swapped, classes=tuple(classes))


def _replace_at(t, path, node):
    if not path:
        return node
    cs = t.children()
    i = path[0]
    return t.rebuild(cs[:i] + (_replace_at(cs[i], path[1:], node),) + cs[i + 1 :])


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


# -- introduction -------------------------------------------------------------------


def test_introduce_method_appends_fresh():
    prog = parse_program("class C { void a() { } }")
    import dataclasses

    cls = prog.classes[0]
    focused = dataclasses.replace(
        prog, classes=(dataclasses.replace(cls, methods=ast.MethodDeclarationFocus(cls.methods)),)
    )
    out = introduce_method(parse_method("void b(int x) { x = 1; }"), focused)
    assert [m.name for m in out.classes[0].methods.methods] == ["a", "b"]
    assert static_check(out) == []
    with pytest.raises(NameClash):
        introduce_method(parse_method("void a() { }"), focused)


# -- known defects ------------------------------------------------------------
# Each test states what a correct refactoring owes and fails today; strict, so
# a fix shows up as an unexpected pass.

# A new method named like a method the class calls but does not define
# captures those calls: call names are not free names, so the NameClash rule
# sees neither the call in the list nor the missing definition.
_CALL_CAPTURE = "a new method captures calls to an undefined method of the same name"
_UNDEFINED_ZZ = "C.run: call of undefined method 'zz'"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CALL_CAPTURE)
def test_extract_keeps_calls_to_an_undefined_method_of_the_new_name():
    src = "class C { void run(int x) { this.zz(x); { this.run(x); } } }"
    assert static_check(parse_program(src)) == [_UNDEFINED_ZZ]
    focused = _focus_first_stmt(src, stmt=1)
    try:
        result = extract_method("zz", focused)
    except framework.RefactoringError:
        return
    assert _UNDEFINED_ZZ in static_check(result)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CALL_CAPTURE)
def test_introduce_keeps_calls_to_an_undefined_method_of_the_new_name():
    prog = parse_program("class C { void run(int x) { this.zz(x); } }")
    assert static_check(prog) == [_UNDEFINED_ZZ]
    try:
        result = LANGUAGE.introduce_at(parse_method("void zz(int y) { this.run(y); }"), focus_class_methods(prog, "C"))
    except framework.RefactoringError:
        return
    assert _UNDEFINED_ZZ in static_check(result)


# A field read after a call that assigns the field is passed by value, as it
# stood before the call: the fragment only assigns free names through the
# call, which the AssignsFreeVariable check does not see.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a field read after a call that assigns it becomes a parameter snapshot")
def test_extract_does_not_snapshot_a_field_a_call_assigns():
    src = ("class C { int f; void m() { { this.inc(); this.use(f); } }"
           " void inc() { f = f + 1; } void use(int x) { } }")
    try:
        result = extract_method("helper", _focus_first_stmt(src))
    except framework.RefactoringError:
        return
    new = result.classes[0].methods.methods[-1]
    assert "f" not in [g.name for g in new.formals]
