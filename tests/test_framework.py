"""Framework layer: focus placement, replacement and marking, name analyses,
signature laws, and the generic introduce/extract on both instances."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import inspect
import itertools
import math
import pkgutil
import random
import re
import typing
import weakref
from pathlib import Path

import pytest

import refax
from refax import framework, strategy
from refax.cli import LANGUAGES, build_parser, main
from refax.framework import (
    AbstractionSignature,
    CheckFailed,
    ConstructorRejected,
    FocusPresent,
    NameClash,
    NameTypePair,
    NoFocus,
    NoHost,
    UntypedFreeName,
    env_lookup,
)
from refax.joos import ast as jast
from refax.joos import (
    declared_pairs as joos_declared,
    focus_class_methods,
    method_signature,
    parse_method,
    parse_program,
    referenced_names as joos_referenced,
    statement_focus,
)
from refax.joos.analysis import ExprType, MethodType
from refax.lexing import Lines, ParseError, Span, SpanMismatch
from refax.minilet import ast as mast
from refax.minilet import (
    declared_pairs as mini_declared,
    expr_focus,
    function_signature,
    parse_program as parse_minilet,
    referenced_names as mini_referenced,
)
from refax.strategy import (
    QueryTU,
    SortCase,
    StrategyFailure,
    above_path_tp,
    apply_tp,
    apply_tu,
    choice_tu,
    fail_tu,
    focus_paths,
    map_tu,
    mono_tp,
    mono_tu,
    oncetd_tp,
    oncetd_tu,
)
from refax.terms import Term

from . import fixture_trees, joos_gen, minilet_gen, oracles
from .fixture_trees import Leaf, Node, Tag, Tree, leaf_case, preorder, wrap_node
from .reference_strategies import Monoid, all_tu_reference, comb_reference, const_reference, fix_reference
from .test_cli import SCENARIOS

# Fixture-level focus convention: Tag("focus", t) wraps the fragment.


def _unwrap_focus_tag(t):
    if isinstance(t, Tag) and t.label == "focus":
        return t.child
    raise StrategyFailure("no focus tag")


fix_focus = SortCase(Tree, _unwrap_focus_tag)


def test_replace_focus_removes_wrapper():
    """The first wrapper in preorder is rewritten, the outermost of nested
    ones, and only it; a program without one raises ``NoFocus``."""
    fragments = []

    def put(u):
        fragments.append(_unwrap_focus_tag(u))
        return Leaf(42)

    # (program, the fragment the rewritten wrapper held, result)
    cases = [
        (Node(Leaf(0), Tag("focus", Leaf(1))), Leaf(1), Node(Leaf(0), Leaf(42))),
        (Node(Tag("focus", Leaf(1)), Tag("focus", Leaf(2))), Leaf(1),
         Node(Leaf(42), Tag("focus", Leaf(2)))),
        (Node(Leaf(0), Tag("focus", Tag("focus", Leaf(5)))), Tag("focus", Leaf(5)),
         Node(Leaf(0), Leaf(42))),
    ]
    for t, fragment, expected in cases:
        fragments.clear()
        assert framework.replace_focus(SortCase(Tree, put), t) == expected
        assert fragments == [fragment]
    with pytest.raises(NoFocus):
        framework.replace_focus(SortCase(Tree, put), Node(Leaf(0), Leaf(1)))


def test_replace_focus_rejection_propagates_and_leaves_input_usable():
    t = Node(Leaf(0), Tag("focus", Leaf(1)))

    def put(u):
        _unwrap_focus_tag(u)
        raise CheckFailed("guard failed")

    with pytest.raises(CheckFailed):
        framework.replace_focus(SortCase(Tree, put), t)
    assert t == Node(Leaf(0), Tag("focus", Leaf(1)))


def _host_case():
    def set_host(u):
        if isinstance(u, Tag) and u.label == "cand":
            return Tag("host", u)
        raise StrategyFailure("not a candidate")

    return SortCase(Tree, set_host)


def test_mark_host_picks_deepest_candidate():
    t = Tag("cand", Node(Leaf(0), Tag("cand", Node(Tag("focus", Leaf(9)), Leaf(1)))))
    out = framework.mark_host(_host_case(), fix_focus, t)
    # the inner candidate, not the outer, gets wrapped
    assert isinstance(out, Tag) and out.label == "cand"
    inner = out.child.children()[1]
    assert isinstance(inner, Tag) and inner.label == "host"


def test_mark_host_requires_strict_containment():
    # the candidate *is* the focus wrapper's parent chain; a candidate with
    # no focus strictly below fails
    t = Tag("cand", Leaf(1))
    with pytest.raises(NoHost):
        framework.mark_host(_host_case(), fix_focus, t)


# -- name analyses -------------------------------------------------------------


def test_free_names_joos_fragment():
    prog = parse_program(
        "class C { void m(int a, int b) { { int t; t = a + b; this.log(t); } } void log(int x) { } }"
    )
    fragment = prog.classes[0].methods.methods[0].body.statements[0]
    declared = framework.declared_names(joos_declared)
    got = framework.free_names(declared, joos_referenced, fragment)
    assert got == oracles.joos_free_names(fragment) == ("a", "b")


def test_free_names_declaration_scopes_over_block():
    prog = parse_program("class C { void m() { int x; x = x + 1; } }")
    body = prog.classes[0].methods.methods[0].body
    declared = framework.declared_names(joos_declared)
    assert framework.free_names(declared, joos_referenced, body) == ()


def test_free_names_no_references():
    prog = parse_program("class C { void m() { return; } }")
    declared = framework.declared_names(joos_declared)
    assert framework.free_names(declared, joos_referenced, prog) == ()


def test_free_names_with_a_repeating_reference_query():
    """A ``referenced`` query may name a name twice; the free names still
    hold each name once, also where a union has one empty side."""
    twice = mono_tu(leaf_case(lambda t: (f"v{t.value}", f"v{t.value}")))
    assert framework.free_names(fail_tu(), twice, Leaf(1)) == ("v1",)
    t = Node(Leaf(1), Node(Leaf(2), Leaf(1)))
    assert framework.free_names(fail_tu(), twice, t) == ("v1", "v2")


def test_free_names_minilet_example():
    prog = parse_minilet("let f(x) = x + y; in f(z)")
    declared = framework.declared_names(mini_declared)
    got = framework.free_names(declared, mini_referenced, prog)
    assert got == oracles.minilet_free_names(prog) == ("y", "z")


# -- the bottom-up free-name analysis, kept as the reference -------------------
#
# Free names as a bottom-up fold, as the framework computed them before the
# scoped top-down pass: at each node, the names referenced there joined with
# the free names of the children, minus the names the node declares. A minus
# removes every occurrence of a name, so it commutes with keeping the first
# occurrence, and both formulations give the same tuple.


def _union(a, b):
    return tuple(dict.fromkeys(a + b))


def _minus(a, b):
    drop = set(b)
    return tuple(n for n in a if n not in drop)


def free_names_reference(declared, referenced, t):
    dec = choice_tu(map_tu(tuple, declared), const_reference(()))
    ref = choice_tu(map_tu(lambda names: tuple(dict.fromkeys(names)), referenced), const_reference(()))
    query = fix_reference(
        lambda q: comb_reference(_minus, comb_reference(_union, ref, all_tu_reference(Monoid((), _union), q)), dec)
    )
    return apply_tu(query, t)


def _label(t):
    return (t.label,)


# On fixture trees: a Tag binds its label and also uses it; leaf 0 uses
# "x", every other leaf "v<value>".
_TAG_BINDS = mono_tu(SortCase(Tag, _label))
_TAG_AND_LEAF_USES = choice_tu(
    mono_tu(SortCase(Tag, _label)),
    mono_tu(leaf_case(lambda t: ("x",) if t.value == 0 else (f"v{t.value}",))),
)


def contains_focus(kinds, t):
    """Whether ``t`` holds a wrapper of any of ``kinds``."""
    wrappers = tuple(kinds.values())
    return any(isinstance(n, wrappers) for n in preorder(t))


def _focused_subtrees(language, gen, rng, count):
    """Generated programs, each with a focus wrapper planted at a random
    node of a focus kind, and every subtree of it that holds the wrapper."""
    kinds = language.focus_kinds
    for k in range(count):
        prog = gen.gen_program(rng)
        yield prog
        wrapper = kinds[list(kinds)[k % 2]]
        sort = wrapper.sort
        targets = [t for t in preorder(prog) if t.sort is sort]
        if not targets:
            continue
        target = rng.choice(targets)
        focused = wrap_node(prog, target, wrapper)
        yield from (t for t in preorder(focused) if contains_focus(kinds, t))


def test_free_names_equal_the_bottom_up_reference():
    """The scoped top-down pass gives the bottom-up fold's tuple on
    generated programs of both languages, on their subtrees that hold a
    focus wrapper, where a node binds and uses one name that is also used
    outside that binder, and under nested binders of one name."""
    from refax import joos, minilet

    rng = random.Random(808)
    cases = [
        (joos.LANGUAGE, joos_gen, joos_declared, joos_referenced),
        (minilet.LANGUAGE, minilet_gen, mini_declared, mini_referenced),
    ]
    checked = 0
    for language, gen, declared_pairs, referenced in cases:
        declared = framework.declared_names(declared_pairs)
        for t in _focused_subtrees(language, gen, rng, 60):
            got = framework.free_names(declared, referenced, t)
            assert got == free_names_reference(declared, referenced, t)
            checked += 1
    assert checked > 240

    t = Node(Tag("x", Node(Leaf(0), Leaf(2))), Node(Leaf(1), Tag("y", Leaf(0))))
    got = framework.free_names(_TAG_BINDS, _TAG_AND_LEAF_USES, t)
    assert got == free_names_reference(_TAG_BINDS, _TAG_AND_LEAF_USES, t) == ("v2", "v1", "x")
    assert framework.free_names(_TAG_BINDS, _TAG_AND_LEAF_USES, Tag("x", Leaf(0))) == ()
    # an inner binder of the same name leaves the outer one in scope
    nested = Tag("x", Node(Tag("x", Leaf(2)), Leaf(0)))
    assert framework.free_names(_TAG_BINDS, _TAG_AND_LEAF_USES, nested) == ("v2",)


def _rename_some(t, rng, renamed, pool):
    """``t`` with the ``name`` of some nodes of the classes ``renamed``
    replaced by a name drawn from ``pool``."""
    t = t.rebuild([_rename_some(c, rng, renamed, pool) for c in t.children()])
    if isinstance(t, renamed) and rng.random() < 0.2:
        return dataclasses.replace(t, name=rng.choice(pool))
    return t


def _nodes(t):
    yield t
    for c in t.children():
        yield from _nodes(c)


def _uses_in_env(declared, uses, prog):
    """Each node where ``uses`` succeeds, in preorder, with the record's
    environment there: ``declared`` folded over the node's ancestors."""

    def scope(env):
        return map_tu(lambda pairs: env + tuple(pairs), declared)

    for at in focus_paths(uses, prog):
        yield at, at.fold((), scope)


def test_check_resolves_variables_as_the_record_declares_them():
    """One binding model: at every variable use of seeded programs whose
    names are partly scrambled, ``check`` reports the use unresolved exactly
    when the record's environment there holds no pair of that name, and a
    JOOS assignment is to a non-variable exactly when the innermost pair is
    a method header. Scrambling declarations too lets a field take a
    method's name and a local function a parameter's."""
    from refax.joos import static_check
    from refax.minilet import resolution_check

    rng = random.Random(2121)
    joos_renamed = (jast.VarRef, jast.Assign, jast.LocalVarDecl, jast.Formal,
                    jast.FieldDecl, jast.MethodDecl)
    variable_diags = (": unresolved name '", ": assignment to undeclared variable '",
                      ": assignment to non-variable '")
    misses = to_methods = 0
    for _ in range(300):
        prog = joos_gen.gen_program(rng)
        pool = sorted({n.name for n in _nodes(prog) if isinstance(n, joos_renamed)})
        prog = _rename_some(prog, rng, joos_renamed, pool + ["zz"])
        expected = []
        for at, env in _uses_in_env(joos_declared, joos_referenced, prog):
            cls, method = (next(a for a, _, _ in at.path if isinstance(a, kind))
                           for kind in (jast.ClassDecl, jast.MethodDecl))
            where, name, pair = f"{cls.name}.{method.name}", at.node.name, env_lookup(env, at.node.name)
            if isinstance(at.node, jast.VarRef):
                if pair is None:
                    expected.append(f"{where}: unresolved name '{name}'")
            elif pair is None:
                expected.append(f"{where}: assignment to undeclared variable '{name}'")
            elif isinstance(pair.tpe, MethodType):
                expected.append(f"{where}: assignment to non-variable '{name}'")
                to_methods += 1
        assert [d for d in static_check(prog) if any(k in d for k in variable_diags)] == expected
        misses += len(expected)

    mini_renamed = (mast.Var, mast.FunDef)
    for _ in range(300):
        prog = minilet_gen.gen_program(rng)
        pool = sorted({n.name for n in _nodes(prog) if isinstance(n, mini_renamed)})
        prog = _rename_some(prog, rng, mini_renamed, pool + ["zz"])
        expected = [
            f"unbound variable '{at.node.name}'"
            for at, env in _uses_in_env(mini_declared, mini_referenced, prog)
            if env_lookup(env, at.node.name) is None
        ]
        unbound = [d for d in resolution_check(prog) if d.startswith("unbound variable '")]
        assert unbound == expected
        misses += len(expected)
    # the scrambling leaves enough uses unresolved or assigning a method
    assert misses > 300 and to_methods > 10


# Names the generators give (JOOS methods, formals, fields and locals;
# minilet functions and parameters), and one that none of them gives.
_CHECK_POOLS = {
    "joos": ("m0", "m1", "p0", "p1", "fld0", "v0_0", "zz"),
    "minilet": ("f1", "f2", "x1_0", "x1_1", "x2_0", "zz"),
}
_CHECK_GENERATORS = {"joos": joos_gen.gen_program, "minilet": minilet_gen.gen_program}
# One pattern per kind of message ``check`` gives.
_CHECK_MESSAGES = {
    "joos": {
        "unresolved": r"\w+\.\w+: unresolved name '\w+'",
        "undefined": r"\w+\.\w+: call of undefined method '\w+'",
        "arity": r"\w+\.\w+: call arity mismatch for '\w+' \(expected \d+, got \d+\)",
        "undeclared": r"\w+\.\w+: assignment to undeclared variable '\w+'",
        "non-variable": r"\w+\.\w+: assignment to non-variable '\w+'",
        "duplicate": r"class \w+: duplicate method '\w+'",
    },
    "minilet": {
        "unbound": r"unbound variable '\w+'",
        "undefined": r"call of undefined function '\w+'",
        "arity": r"call arity mismatch for '\w+' \(expected \d+, got \d+\)",
        "duplicate": r"duplicate definition of '\w+' in one let",
        "parameter": r"duplicate parameter '\w+' of '\w+'",
    },
}


def defective_sources(lang, seed):
    """100 seeded programs of ``lang``, pretty-printed, each with some of
    its identifiers renamed to names from ``_CHECK_POOLS``."""
    keywords = importlib.import_module(f"refax.{lang}.parser")._Parser.KEYWORDS
    pool, rng = _CHECK_POOLS[lang], random.Random(seed)

    def rename(match):
        word = match.group()
        return rng.choice(pool) if word not in keywords and rng.random() < 0.2 else word

    for _ in range(100):
        yield re.sub(r"[A-Za-z_]\w*", rename, LANGUAGES[lang].pretty(_CHECK_GENERATORS[lang](rng)))


def check_digest(lang, seed):
    """sha256 over the ``check`` result of every defective source, and the
    message kinds that occur in them."""
    record, h, kinds = LANGUAGES[lang], hashlib.sha256(), set()
    for i, source in enumerate(defective_sources(lang, seed)):
        diags = record.check(record.parse(source))
        h.update(f"{i}: {diags!r}\n".encode())
        for diag in diags:
            matched = [k for k, p in _CHECK_MESSAGES[lang].items() if re.fullmatch(p, diag)]
            assert len(matched) == 1, diag
            kinds.update(matched)
    return h.hexdigest(), kinds


# Computed with the checkers that spelled out a branch per node kind.
CHECK_DIGESTS = {
    ("joos", 1): "9bd38f421b2ea5a84f666356c5808136a13c3a9f495c5d09c67fdffd4f0e579e",
    ("joos", 7919): "76d8e637a2028ac3099e001c978296321b201096a390c13d5ef450ef74d84573",
    ("minilet", 1): "d03c63d6d7b6495ea68be20e6da0f5ba88e585d5aa93942f9d2555dd0e42bb9f",
    ("minilet", 7919): "860c9e68e6e1f0c92cddc89c48ca7e0f6de32fdbfdef06ec472920b1bf6e5d03",
}


@pytest.mark.parametrize("lang,seed", sorted(CHECK_DIGESTS))
def test_check_on_defective_programs_is_pinned(lang, seed):
    """``check`` on seeded programs with scrambled names gives the pinned
    diagnostics, in the pinned order, and every kind of message occurs."""
    digest, kinds = check_digest(lang, seed)
    assert kinds == set(_CHECK_MESSAGES[lang])
    assert digest == CHECK_DIGESTS[lang, seed]


def test_free_names_evaluates_each_query_once_per_node():
    """One ``free_names`` over n nodes calls ``declared`` and ``referenced``
    exactly n times each, on a JOOS program and on deeply nested lets."""
    from refax import minilet

    deep, _ = minilet_gen.nested_lets(40)
    programs = [
        (framework.declared_names(joos_declared), joos_referenced, parse_program(_wide_class(20)[0])),
        (framework.declared_names(mini_declared), mini_referenced, minilet.LANGUAGE.parse(deep)),
    ]
    for declared, referenced, prog in programs:
        calls = {"declared": 0, "referenced": 0}

        def counting(name, q):
            def run(t):
                calls[name] += 1
                return q(t)

            return QueryTU(run)

        framework.free_names(counting("declared", declared), counting("referenced", referenced), prog)
        assert calls == {"declared": _size(prog), "referenced": _size(prog)}


def test_bound_typed_names_path_env():
    method = parse_method("void m(int a) { int b; b = a; }")
    target = method.body.statements[1]
    prog = jast.Program((jast.ClassDecl("C", (), jast.MethodList((method,))),))
    focused = wrap_node(prog, target, jast.StatementFocus)
    env, fragment = framework.bound_typed_names(joos_declared, statement_focus, focused)
    assert fragment == target
    # oracle-derived: class scope first (the method headers), then the
    # method's params, then the block's locals
    oracle_env, oracle_fragment = oracles.joos_env_at_focus(focused)
    assert env == oracle_env
    assert [(p.name, p.tpe) for p in env] == [
        ("m", MethodType("void", ("int",))),
        ("a", ExprType("int")),
        ("b", ExprType("int")),
    ]


def test_bound_typed_names_shadowing_lookup():
    prog = parse_program("class C { void m(int a) { boolean a; a = true; } }")
    target = prog.classes[0].methods.methods[0].body.statements[1]
    focused = wrap_node(prog, target, jast.StatementFocus)
    env, _ = framework.bound_typed_names(joos_declared, statement_focus, focused)
    assert env_lookup(env, "a") == NameTypePair("a", ExprType("boolean"))


def test_bound_typed_names_requires_focus():
    prog = parse_program("class C { void m() { } }")
    with pytest.raises(NoFocus):
        framework.bound_typed_names(joos_declared, statement_focus, prog)


def test_free_typed_names_pairs_and_missing():
    env = (
        NameTypePair("y", ExprType("int")),
        NameTypePair("z", ExprType("boolean")),
        NameTypePair("w", ExprType("int")),
    )
    prog = parse_program("class C { void m() { x = y + 1; } }")
    stmt = prog.classes[0].methods.methods[0].body.statements[0]
    # frees of `x = y + 1;` are x (assigned) and y (used)
    with pytest.raises(UntypedFreeName):
        framework.free_typed_names(joos_declared, joos_referenced, env, stmt)
    env2 = env + (NameTypePair("x", ExprType("int")),)
    pairs = framework.free_typed_names(joos_declared, joos_referenced, env2, stmt)
    assert pairs == (NameTypePair("x", ExprType("int")), NameTypePair("y", ExprType("int")))


def test_env_lookup_innermost_wins():
    env = (NameTypePair("a", ExprType("int")), NameTypePair("a", ExprType("boolean")))
    assert env_lookup(env, "a") == NameTypePair("a", ExprType("boolean"))
    assert env_lookup(env, "zz") is None


# -- abstraction signatures ------------------------------------------------------


def test_joos_signature_round_trips():
    pairs = (NameTypePair("x", ExprType("int")), NameTypePair("ok", ExprType("boolean")))
    body = jast.Block((jast.Assign("x", jast.IntLit(1)),))
    m = method_signature.make_abstraction("helper", method_signature.make_formals(pairs), body)
    formals = (jast.Formal("int", "x"), jast.Formal("boolean", "ok"))
    assert m == jast.MethodDecl("void", "helper", formals, body)
    assert method_signature.get_abs_name(m) == "helper"
    app = method_signature.make_application("helper", method_signature.make_actuals(pairs))
    assert app == jast.Call(True, "helper", (jast.VarRef("x"), jast.VarRef("ok")))


def test_joos_signature_rejects_method_typed_pairs():
    """``make_formals`` refuses a method-typed pair; ``make_actuals``, which
    every extract calls on the same pairs after it, only names them."""
    bad = (NameTypePair("f", MethodType("int", ("int",))),)
    with pytest.raises(ConstructorRejected):
        method_signature.make_formals(bad)
    assert method_signature.make_actuals(bad) == (jast.VarRef("f"),)


def test_minilet_signature_round_trips():
    pairs = (NameTypePair("x", mast.VAL), NameTypePair("y", mast.VAL))
    body = mast.BinOp("+", mast.Var("x"), mast.Var("y"))
    fd = function_signature.make_abstraction("add", function_signature.make_formals(pairs), body)
    assert fd == mast.FunDef("add", ("x", "y"), body)
    assert function_signature.get_abs_name(fd) == "add"
    app = function_signature.make_application("add", function_signature.make_actuals(pairs))
    assert app == mast.Call("add", (mast.Var("x"), mast.Var("y")))


# -- focus placement by span ------------------------------------------------------

# Sources beside the generated programs: an empty JOOS method list, which
# the generator never yields (its span is zero-width, at the closing
# brace), and parentheses beyond those precedence requires, which the
# printer never writes.
_SPAN_SAMPLES = {
    "joos": [
        "class E {\n    int f;\n}\n",
        "class E { }\n",
        "class P {\n    int m(int a) {\n        return ((a + 1) * (a - 1));\n    }\n}\n",
    ],
    "minilet": ["let\n    f(x) = ((x + 1) * x);\nin\n    (f(2) + (3))\n"],
}
_GENERATORS = {"joos": joos_gen, "minilet": minilet_gen}


def _sources(lang, count, seed):
    """Parseable sources of ``lang``: the samples above, then ``count``
    generated programs, printed."""
    language, rng = LANGUAGES[lang], random.Random(seed)
    yield from _SPAN_SAMPLES[lang]
    for _ in range(count):
        yield language.pretty(_GENERATORS[lang].gen_program(rng))


def _encloses(outer, inner):
    return outer[0] <= inner[0] and inner[1] <= outer[1]


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_child_spans_lie_within_their_parents(lang):
    """The nesting invariant span placement prunes by: every parsed node
    has a span, and each child's span lies within its parent's, including
    parenthesised expressions (whose span keeps the parentheses) and an
    empty JOOS method list."""
    language = LANGUAGES[lang]
    parenthesised = empty_lists = 0
    for source in _sources(lang, 120, seed=41):
        for t in preorder(language.parse(source)):
            assert t.span is not None
            for c in t.children():
                assert _encloses(t.span, c.span), (t.tag, t.span, c.tag, c.span)
            if source[t.span[0] : t.span[1]].startswith("("):
                parenthesised += 1
            if isinstance(t, jast.MethodList) and not t.methods:
                empty_lists += 1
                assert t.span[0] == t.span[1]
    assert parenthesised > 0
    assert empty_lists > 0 or lang == "minilet"


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_span_placement_equals_the_whole_tree_formulation(lang):
    """For every node of every focus kind, placing the focus by its span
    gives what wrapping the first node in preorder of the kind's sort with
    that span gives."""
    language = LANGUAGES[lang]
    placed = 0
    for source in _sources(lang, 40, seed=43):
        prog, lines = language.parse(source), Lines(source)
        for kind, wrapper in language.focus_kinds.items():
            for t in preorder(prog):
                if t.sort is not wrapper.sort:
                    continue
                first = next(u for u in preorder(prog) if u.sort is wrapper.sort and u.span == t.span)
                expected = wrap_node(prog, first, wrapper)
                assert language.place_focus_by_span(source, kind, lines.span(t.span)) == expected
                placed += 1
    assert placed > 500


@pytest.mark.parametrize("lang,source,kind,span,message", [
    ("joos", "class C {\n    void m(int a) {\n        a = a + 1;\n        if (a < 2) { a = 0; }\n    }\n}\n",
     "statement", Span(3, 9, 3, 18),
     "no statement node covers exactly 3:9-3:18; nearest candidate spans: 3:9-3:19, 4:9-4:30, 2:19-5:6"),
    ("joos", "class C {\n    int f;\n}\n", "methodlist", Span(2, 5, 2, 11),
     "no methodlist node covers exactly 2:5-2:11; nearest candidate spans: 3:1-3:1"),
    ("joos", "class C {\n    int f;\n}\n", "statement", Span(2, 5, 2, 11),
     "no statement node covers exactly 2:5-2:11; nearest candidate spans: none"),
    ("minilet", "let\n    f(x) = (x + 1) * 2;\nin\n    f(2)\n", "expr", Span(2, 12, 2, 17),
     "no expr node covers exactly 2:12-2:17; nearest candidate spans: 2:12-2:19, 2:12-2:23, 2:13-2:14"),
    ("minilet", "let\n    f(x) = x + 1;\nin\n    f(2)\n", "fundeflist", Span(1, 1, 1, 2),
     "no fundeflist node covers exactly 1:1-1:2; nearest candidate spans: 2:5-2:18"),
])
def test_span_mismatch_text_is_unchanged(lang, source, kind, span, message):
    with pytest.raises(SpanMismatch) as exc:
        LANGUAGES[lang].place_focus_by_span(source, kind, span)
    assert str(exc.value) == message


# -- focus wrappers ---------------------------------------------------------------

_WRAPPER_SAMPLES = {"joos": "class C { void m() { return; } }", "minilet": "let f(x) = x; in f(1)"}


@pytest.mark.parametrize("lang,op,kind", [
    (name, op, kind)
    for name, language in LANGUAGES.items()
    for op in ("pretty", "check")
    for kind in language.focus_kinds
])
def test_focus_wrappers_are_rejected(lang, op, kind):
    """A wrapper at any node of its sort, in the sample and in generated
    programs, makes the printer and the checker raise ``FocusPresent``
    where they meet it."""
    language = LANGUAGES[lang]
    wrapper = language.focus_kinds[kind]
    sort = wrapper.sort
    rng = random.Random(47)
    programs = [language.parse(_WRAPPER_SAMPLES[lang])]
    programs += [_GENERATORS[lang].gen_program(rng) for _ in range(25)]
    wrapped = 0
    for program in programs:
        getattr(language, op)(program)
        for target in preorder(program):
            if target.sort is not sort:
                continue
            focused = wrap_node(program, target, wrapper)
            with pytest.raises(FocusPresent):
                getattr(language, op)(focused)
            wrapped += 1
    assert wrapped >= len(programs)


# -- the Language record ----------------------------------------------------------


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_language_recognisers_come_from_its_focus_kinds(lang):
    """``find`` and ``find2`` recognise the wrappers of the fragment and
    list focus kinds, and each is built once per record."""
    language = LANGUAGES[lang]
    assert language.fragment_kind in language.focus_kinds
    assert language.list_kind in language.focus_kinds
    for case, kind in ((language.find, language.fragment_kind), (language.find2, language.list_kind)):
        assert case.on is language.focus_kinds[kind] and case.sort is case.on.sort
    assert language.find is language.find and language.find2 is language.find2


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_language_recognisers_unwrap_what_span_placement_wrapped(lang):
    """On generated programs, ``find``/``find2`` yield exactly the node
    that ``place_focus_by_span`` wrapped, and removing the wrapper through
    them gives back the parsed program; called directly, they raise
    ``StrategyFailure`` at every other node of their sort."""
    language = LANGUAGES[lang]
    unwrapped = refused = 0
    for source in _sources(lang, 25, seed=53):
        prog, lines = language.parse(source), Lines(source)
        for case, kind in ((language.find, language.fragment_kind), (language.find2, language.list_kind)):
            for t in preorder(prog):
                if t.sort is not case.sort:
                    continue
                focused = language.place_focus_by_span(source, kind, lines.span(t.span))
                (wrapped,) = [u for u in preorder(focused) if isinstance(u, case.on)]
                first = next(u for u in preorder(prog) if u.sort is case.sort and u.span == t.span)
                assert case.fn(wrapped) is wrapped.children()[0]
                assert case.fn(wrapped) == first
                assert framework.replace_focus(case, focused) == prog
                unwrapped += 1
                for other in preorder(focused):
                    if other.sort is case.sort and other is not wrapped:
                        with pytest.raises(StrategyFailure):
                            case.fn(other)
                        refused += 1
    assert unwrapped > 100 and refused > unwrapped


# (program, declaration with a fresh name, declaration whose name clashes)
_INTRODUCE_SAMPLES = {
    "joos": ("class C { void a() { } }", "void b() { }", "void a() { }"),
    "minilet": ("let f(x) = x; in f(1)", "g(y) = y;", "f(y) = y;"),
}


def _list_focused(language, source):
    """``source`` parsed, with the list focus on its first list."""
    sort = language.focus_kinds[language.list_kind].sort
    first = next(t for t in preorder(language.parse(source)) if t.sort is sort)
    return language.place_focus_by_span(source, language.list_kind, Lines(source).span(first.span))


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_introduce_enters_the_list_recogniser_once(lang):
    """One search: the list recogniser runs once per introduce, at the
    list focus, and the result is the record's own introduce."""
    language = LANGUAGES[lang]
    source, fresh, _ = _INTRODUCE_SAMPLES[lang]
    focused, decl = _list_focused(language, source), language.parse_decl(fresh)
    calls = []

    def counted(t):
        calls.append(t)
        return language.find2.fn(t)

    case = SortCase(language.find2.on, counted)
    out = framework.introduce(language.declared, language.referenced, case, language.signature, decl, focused)
    assert len(calls) == 1 and isinstance(calls[0], case.on)
    assert out == language.introduce(decl, focused)


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_introduce_reports_a_missing_focus_before_a_clash(lang):
    language = LANGUAGES[lang]
    source, _, clashing = _INTRODUCE_SAMPLES[lang]
    decl = language.parse_decl(clashing)
    with pytest.raises(NoFocus):
        language.introduce(decl, language.parse(source))
    with pytest.raises(NameClash):
        language.introduce(decl, _list_focused(language, source))


_GOLDEN = Path(__file__).parent / "golden"
# One golden extract per language: (source file, focus span, new name).
_GOLDEN_EXTRACTS = {
    "joos": ("joos/account.joos", "6:9-10:10", "stash"),
    "minilet": ("minilet/nested.mlt", "6:31-6:36", "mul"),
}


@pytest.mark.parametrize("lang", sorted(_GOLDEN_EXTRACTS))
def test_benchmark_replay_reads_names_that_exist(lang, monkeypatch):
    """The benchmark's traced run imports language and framework names
    from refax (its ``LANGS`` table reads them at import) and replays
    ``extract`` phase by phase from them. Removing or reshaping one of
    them fails here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    traced = importlib.import_module("traced")
    language = LANGUAGES[lang]
    path, span, name = _GOLDEN_EXTRACTS[lang]
    source = (_GOLDEN / path).read_text(encoding="utf-8")
    focused = language.place_focus_by_span(source, language.fragment_kind, Span.parse(span))
    replayed = traced._replay(traced.Tracer(), traced.LANGS[lang], name, focused)
    assert replayed == language.extract(name, focused)


def test_benchmark_passes_run_on_golden_programs_and_a_deep_spine(monkeypatch):
    """The benchmark's per-node figures of one ``children()`` and one
    ``rebuild`` per node and of a whole-tree ``oncetd`` and ``above`` pass,
    run through the names it imports from ``refax.strategy``, are finite
    and non-negative on each language's golden program and on a 3000-term
    left spine."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    traced = importlib.import_module("traced")
    programs = [LANGUAGES[lang].parse((_GOLDEN / path).read_text(encoding="utf-8"))
                for lang, (path, _, _) in sorted(_GOLDEN_EXTRACTS.items())]
    programs.append(parse_minilet(" + ".join(["1"] * 2999 + ["x"])))
    for program in programs:
        figures = traced._passes([program])
        assert set(figures) == {f"{k}_us_per_node" for k in (
            "terms.children", "terms.rebuild", "strategy.oncetd_pass", "strategy.above_pass")}
        assert all(math.isfinite(v) and v >= 0 for v in figures.values()), figures


# -- generic introduce -----------------------------------------------------------


def test_introduce_appends_preserving_existing():
    at = focus_class_methods(parse_program("class C { void a() { } void b() { } }"), "C")
    method = parse_method("void c() { }")
    out = framework.introduce_at(joos_declared, joos_referenced, method_signature, method, at)
    methods = out.classes[0].methods.methods
    assert [m.name for m in methods] == ["a", "b", "c"]
    original = parse_program("class C { void a() { } void b() { } }").classes[0].methods.methods
    assert methods[:2] == original


def test_introduce_rejects_defined_name():
    at = focus_class_methods(parse_program("class C { void a() { } }"), "C")
    with pytest.raises(NameClash):
        framework.introduce_at(joos_declared, joos_referenced, method_signature, parse_method("void a() { }"), at)


def test_introduce_rejects_free_name():
    # `g` is a field read inside a body: free at the method-list level
    src = "class C { int g; void a() { int t; t = g; } }"
    at = focus_class_methods(parse_program(src), "C")
    with pytest.raises(NameClash):
        framework.introduce_at(joos_declared, joos_referenced, method_signature, parse_method("void g() { }"), at)


def test_introduce_requires_focus():
    from refax.joos import method_list_focus

    prog = parse_program("class C { void a() { } }")
    with pytest.raises(NoFocus):
        framework.introduce(
            joos_declared, joos_referenced, method_list_focus,
            method_signature, parse_method("void b() { }"), prog,
        )


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_introduce_clashes_exactly_when_the_name_is_defined_or_free(lang, seed):
    """The ``NameClash`` rule as a one-name query gives the whole free-name
    pass's verdict: at every abstraction list of generated programs,
    ``introduce`` raises ``NameClash`` exactly when the name is one of the
    list's definitions or among its free names. Names are every
    identifier atom of the program, the list's definitions and two fresh
    names, so each branch of the query is taken: a definition, a free
    name, a name that occurs but is bound, and an absent name."""
    language, gen = LANGUAGES[lang], _GENERATORS[lang]
    sig, declared = language.signature, framework.declared_names(language.declared)
    wrap_list = language.focus_kinds[language.list_kind]
    lists = wrap_list.sort
    seen = set()
    for source in _sources(lang, 12, seed):
        prog = language.parse(source)
        nodes = list(preorder(prog))
        fresh = gen.fresh_name(prog)
        atoms = {a for t in nodes for a in t.atoms() if isinstance(a, str)}
        for k, target in enumerate(nodes):
            if target.sort is not lists:
                continue
            focused = _wrapped_at(prog, {k: wrap_list})
            defs = {sig.get_abs_name(a) for a in target.children()}
            frees = framework.free_names(declared, language.referenced, target)
            for name in sorted(atoms | defs) + [fresh, fresh + "x"]:
                # the rule reads only the name; any body will do
                call = sig.fragment_from_application(sig.make_application(name, sig.make_actuals(())))
                try:
                    abstr = sig.make_abstraction(name, sig.make_formals(()), sig.body_from_fragment(call))
                except ConstructorRejected:
                    continue
                clash = name in defs or name in frees
                try:
                    language.introduce(abstr, focused)
                except NameClash:
                    assert clash, name
                else:
                    assert not clash, name
                occurs = any(name in t.atoms() for t in preorder(target))
                seen.add("defined" if name in defs else "free" if clash else "bound" if occurs else "absent")
    assert seen == {"defined", "free", "bound", "absent"}


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_referenced_names_are_atoms_of_their_node(lang):
    """The requirement the ``NameClash`` query rests on: at every node of
    generated programs, each name ``referenced`` yields there is one of
    that node's atoms."""
    language, rng = LANGUAGES[lang], random.Random(61)
    uses = 0
    for _ in range(100):
        for t in preorder(_GENERATORS[lang].gen_program(rng)):
            try:
                names = language.referenced(t)
            except StrategyFailure:
                continue
            assert set(names) <= set(t.atoms()), (t.tag, names, t.atoms())
            uses += 1
    assert uses > 500


def test_extract_refuses_to_leave_a_wrapper_behind():
    from refax.joos import extract_method

    prog = parse_program("class C { void m() { this.n(); this.n(); } void n() { } }")
    for target in prog.classes[0].methods.methods[0].body.statements:
        prog = wrap_node(prog, target, jast.StatementFocus)
    with pytest.raises(RuntimeError, match="would leave a focus wrapper"):
        extract_method("helper", prog)


def _extract_by_phases(language, name, prog):
    """``Language.extract`` as a whole-tree wrapper scan, up front, followed
    by the composition of the public phases, each of which searches from
    the root."""
    declared, find, sig = language.declared, language.find, language.signature
    wrappers = [t for t in preorder(prog) if isinstance(t, (find.on, language.find2.on))]
    if not any(isinstance(t, find.on) for t in wrappers):
        raise NoFocus()
    if len(wrappers) > 1:
        raise RuntimeError("extraction would leave a focus wrapper behind")
    env, fragment = framework.bound_typed_names(declared, find, prog)
    language.extractable(fragment)
    pairs = framework.free_typed_names(declared, language.referenced, env, fragment)
    abstr = sig.make_abstraction(name, sig.make_formals(pairs), sig.body_from_fragment(fragment))
    marked = framework.mark_host(language.host, find, prog)
    extended = framework.introduce(declared, language.referenced, language.find2, sig, abstr, marked)
    app = sig.fragment_from_application(sig.make_application(name, sig.make_actuals(pairs)))
    return framework.replace_focus(SortCase(find.on, lambda t: app), extended)


def _with_spans(t):
    return t.tag, t.atoms(), t.span, tuple(_with_spans(c) for c in t.children())


def _outcome(run):
    """``run()``'s tree with its spans, or its refusal's type and message."""
    try:
        return _with_spans(run())
    except (framework.RefactoringError, RuntimeError, ParseError, SpanMismatch) as exc:
        return type(exc).__name__, str(exc)


def _wrapped_at(prog, wraps):
    """``prog`` with ``wraps[k]`` around its ``k``-th node in preorder."""
    count = itertools.count()

    def go(t):
        k = next(count)
        cs = t.children()
        new = t.rebuild([go(c) for c in cs]) if cs else t
        return wraps[k](new) if k in wraps else new

    return go(prog)


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_extract_equals_its_public_phases(lang):
    """At every node of the fragment sort of generated programs, alone or
    with a second wrapper (another fragment focus, or a list focus before,
    around or after it), under a fresh and a taken name, ``extract`` on one
    focus path gives what the phases give one search each: the same tree
    with the same spans, or the same exception type and message."""
    language, gen, rng = LANGUAGES[lang], _GENERATORS[lang], random.Random(53)
    wrap, wrap_list = language.focus_kinds[language.fragment_kind], language.focus_kinds[language.list_kind]
    fragment, lists = wrap.sort, wrap_list.sort
    seen = set()
    for source in _sources(lang, 12, seed=59):
        prog = language.parse(source)
        nodes = list(preorder(prog))
        names = (gen.fresh_name(prog), rng.choice(sorted(gen.used_identifiers(prog))))
        fragments = [k for k, t in enumerate(nodes) if t.sort is fragment]
        targets = [k for k, t in enumerate(nodes) if t.sort is lists]
        for k in fragments:
            inputs = [{k: wrap}, {k: wrap, rng.choice(fragments): wrap}]
            if targets:
                inputs.append({k: wrap, rng.choice(targets): wrap_list})
            for wraps in inputs:
                focused = _wrapped_at(prog, wraps)
                for name in names:
                    expected = _outcome(lambda: _extract_by_phases(language, name, focused))
                    assert _outcome(lambda: language.extract(name, focused)) == expected
                    seen.add(expected[0] if len(expected) == 2 else "ok")
    assert {"ok", "NameClash", "RuntimeError"} <= seen


def _golden_extracts():
    """``(lang, source, span, name)`` of each extract in the CLI's golden
    corpus that gets past its arguments."""
    for _, argv, code, *_ in SCENARIOS:
        if argv.startswith("extract") and code != 3:
            args = build_parser().parse_args(argv.format(g=_GOLDEN).split())
            yield args.lang, Path(args.file).read_text(encoding="utf-8"), args.focus, args.name


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_extract_at_equals_the_wrapper_entry(lang, seed):
    """The CLI's path form and the paper's wrapper entry agree: at every
    node of the fragment sort of generated programs, under a fresh and a
    taken name, and at each golden extract, ``extract_at`` on the path
    ``focus_path_by_span`` finds gives what ``extract`` gives on the
    program ``place_focus_by_span`` wraps: the same tree with the same
    spans, or the same exception type and message."""
    language, gen, rng = LANGUAGES[lang], _GENERATORS[lang], random.Random(seed)
    kind = language.fragment_kind
    fragment = language.focus_kinds[kind].sort
    cases = [case[1:] for case in _golden_extracts() if case[0] == lang]
    for source in _sources(lang, 12, seed):
        prog, lines = language.parse(source), Lines(source)
        names = (gen.fresh_name(prog), rng.choice(sorted(gen.used_identifiers(prog))))
        cases += [(source, lines.span(t.span), name)
                  for t in preorder(prog) if t.sort is fragment for name in names]
    seen = set()
    for source, span, name in cases:
        expected = _outcome(lambda: language.extract(name, language.place_focus_by_span(source, kind, span)))
        found = _outcome(lambda: language.extract_at(name, language.focus_path_by_span(source, kind, span)))
        assert found == expected
        seen.add(expected[0] if len(expected) == 2 else "ok")
    assert {"ok", "NameClash", "SpanMismatch", "ParseError"} <= seen


_DECLS = {"joos": "void {}() {{ }}", "minilet": "{}(y) = y;"}


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_introduce_at_equals_the_wrapper_entry(lang, seed):
    """The CLI's path form of introduce and the paper's wrapper entry
    agree: at every abstraction list of generated programs (in JOOS, the
    method list of the first class of each name), under a fresh and a
    taken name, ``introduce_at`` on the path the CLI's placement finds
    (``focus_class``, or ``focus_path_by_span``) gives what ``introduce``
    gives on the program ``place_focus_by_span`` wraps at that list: the
    same tree with the same spans, or the same exception type and
    message."""
    language, gen, rng = LANGUAGES[lang], _GENERATORS[lang], random.Random(seed)
    kind = language.list_kind
    lists = language.focus_kinds[kind].sort
    seen = set()
    for source in _sources(lang, 12, seed):
        prog, lines = language.parse(source), Lines(source)
        taken = []
        for name in sorted(gen.used_identifiers(prog)):  # atoms hold types and operators too
            with contextlib.suppress(ParseError):
                taken.append(language.parse_decl(_DECLS[lang].format(name)))
        decls = (language.parse_decl(_DECLS[lang].format(gen.fresh_name(prog))), rng.choice(taken))
        for t in preorder(prog):
            if t.sort is not lists:
                continue
            span = lines.span(t.span)
            if language.focus_class is None:
                place = lambda: language.focus_path_by_span(source, kind, span)
            else:
                owner = next(c for c in prog.classes if c.methods is t)
                if next(c for c in prog.classes if c.name == owner.name) is not owner:
                    continue
                place = lambda: language.focus_class(language.parse(source), owner.name)
            for decl in decls:
                expected = _outcome(lambda: language.introduce(decl, language.place_focus_by_span(source, kind, span)))
                assert _outcome(lambda: language.introduce_at(decl, place())) == expected
                seen.add(expected[0] if len(expected) == 2 else "ok")
    assert seen == {"ok", "NameClash"}


@pytest.mark.parametrize("lang,scenario", [("joos", "j-introduce"), ("minilet", "m-introduce")])
def test_a_cli_introduce_builds_no_list_wrapper(lang, scenario, monkeypatch, capsys):
    """A CLI ``introduce`` runs ``introduce_at`` on the path that placement
    finds: it constructs no list wrapper of either language, and its
    ``children`` calls are pinned. Wrapping the list and then searching
    for the wrapper from the root made 1 wrapper and 30 (JOOS) and 19
    (minilet) calls on these golden requests."""
    argv = next(a for n, a, *_ in SCENARIOS if n == scenario).format(g=_GOLDEN).split()

    def run():
        assert main(argv) == 0

    wrappers = [language.focus_kinds[language.list_kind] for language in LANGUAGES.values()]
    assert _calls(monkeypatch, wrappers, "__init__", run) == 0
    assert _calls(monkeypatch, _node_classes(), "children", run) == {"joos": 27, "minilet": 14}[lang]
    capsys.readouterr()


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
def test_refactorings_leave_no_cycle_holding_the_program(lang):
    """With the cyclic collector off, a program is freed as soon as its last
    reference goes, after ``extract``, ``introduce``, ``introduce_at``,
    ``bound_typed_names``, ``mark_host`` or ``replace_focus`` has run on it:
    no pass leaves a reference cycle that holds the tree it walked."""
    language = LANGUAGES[lang]
    path, span, name = _GOLDEN_EXTRACTS[lang]
    source = (_GOLDEN / path).read_text(encoding="utf-8")
    list_source, fresh, _ = _INTRODUCE_SAMPLES[lang]
    decl = language.parse_decl(fresh)

    def fragment_focused():
        return language.place_focus_by_span(source, language.fragment_kind, Span.parse(span))

    lists = mono_tu(SortCase(language.focus_kinds[language.list_kind].sort, lambda t: t))
    runs = {
        "extract": (fragment_focused, lambda p: language.extract(name, p)),
        "introduce": (lambda: _list_focused(language, list_source), lambda p: language.introduce(decl, p)),
        "introduce_at": (
            lambda: language.parse(list_source), lambda p: language.introduce_at(decl, next(focus_paths(lists, p)))),
        "bound_typed_names": (
            fragment_focused, lambda p: framework.bound_typed_names(language.declared, language.find, p)),
        "mark_host": (fragment_focused, lambda p: framework.mark_host(language.host, language.find, p)),
        "replace_focus": (fragment_focused, lambda p: framework.replace_focus(language.find, p)),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for what, (focused, run) in runs.items():
            prog = focused()
            alive = weakref.ref(prog)
            run(prog)
            del prog
            assert alive() is None, what
    finally:
        if enabled:
            gc.enable()


def test_first_preorder_searches_pass_a_deep_left_spine():
    """``oncetd``, span placement, ``above_path_tp`` (run under the name
    ``above_tp`` that the benchmark imports) and the framework passes built
    on them take no Python frame per tree level: on ``1 + 1 + ... + 1 + x``,
    3000 terms, the only variable lies at the end of a preorder walk down
    the whole left spine, and the first term at the bottom of it, where a
    focus there has the deepest ``BinOp`` as its host. Results are checked
    at the top and along the spine only, as ``==`` on the tree recurses."""
    source = " + ".join(["1"] * 2999 + ["x"])
    prog = parse_minilet(source)
    var = mast.Var
    name = SortCase(var, lambda t: t.name)
    assert apply_tu(oncetd_tu(mono_tu(name)), prog) == "x"
    renamed = apply_tp(oncetd_tp(mono_tp(SortCase(var, lambda t: var("y")))), prog)
    assert renamed.body.right == var("y") and renamed.body.left is prog.body.left
    wrapped = wrap_node(prog, prog.body.right, mast.ExprFocus)
    assert wrapped.body.right == mast.ExprFocus(var("x")) and wrapped.body.left is prog.body.left
    unwrapped = framework.replace_focus(LANGUAGES["minilet"].find, wrapped)
    assert unwrapped.body.right == var("x") and unwrapped.body.left is prog.body.left

    minilet = LANGUAGES["minilet"]
    end = 4 * 2999 + 1
    placed = minilet.place_focus_by_span(source, "expr", Span(1, end, 1, end + 1))
    assert placed.body.right == mast.ExprFocus(var("x"))
    placed = minilet.place_focus_by_span(source, "expr", Span(1, 1, 1, 2))
    t, levels = placed.body, 0
    while isinstance(t, mast.BinOp):
        t, levels = t.left, levels + 1
    assert levels == 2999 and t == mast.ExprFocus(mast.IntLit(1))
    with pytest.raises(SpanMismatch):
        minilet.place_focus_by_span(source, "expr", Span(1, 1, 1, 3))

    times = SortCase(mast.BinOp, lambda t: mast.BinOp("*", t.left, t.right))
    marked = apply_tp(strategy.above_tp(mono_tp(times), mono_tu(minilet.find)), placed)
    assert strategy.above_tp is above_path_tp and marked.body.right is placed.body.right
    t, ops = marked.body, []
    while isinstance(t, mast.BinOp):
        ops.append(t.op)
        t = t.left
    assert ops == ["+"] * 2998 + ["*"] and t == mast.ExprFocus(mast.IntLit(1))
    env, fragment = framework.bound_typed_names(minilet.declared, minilet.find, placed)
    assert env == () and fragment == mast.IntLit(1)


# -- visit bounds ----------------------------------------------------------------


def _size(t):
    return 1 + sum(_size(c) for c in t.children())


def _calls(monkeypatch, owners, name, run):
    """Calls of ``name`` on any of ``owners`` made by ``run()``; the count
    must repeat."""
    calls = [0]

    def counting(method):
        def count(self, *args):
            calls[0] += 1
            return method(self, *args)

        return count

    counts = []
    with monkeypatch.context() as m:
        for owner in owners:
            m.setattr(owner, name, counting(getattr(owner, name)))
        for _ in range(2):
            calls[0] = 0
            run()
            counts.append(calls[0])
    assert counts[0] == counts[1]
    return counts[0]


def _node_classes():
    """Every node class of both languages and of the fixtures: each class
    has its own ``children``, so a count must wrap each one."""
    return [
        cls
        for module in (jast, mast, fixture_trees)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Term) and "children" in cls.__dict__ and cls is not Term
    ]


def _children_calls(monkeypatch, prog, run):
    """``children`` calls made by ``run()``. A plain walk of ``prog``
    counts one per node first, so no bound below can pass on zero."""
    classes = _node_classes()
    assert _calls(monkeypatch, classes, "children", lambda: _size(prog)) == _size(prog)
    return _calls(monkeypatch, classes, "children", run)


@pytest.mark.parametrize("depth", [10, 20, 40])
@pytest.mark.parametrize("innermost", [False, True], ids=["level2", "innermost"])
def test_extract_visits_are_linear_in_minilet_depth(depth, innermost, monkeypatch):
    """Host marking is one pass and an extract a fixed number of passes,
    whatever the nesting depth and wherever the focus sits in it. Refusal
    inside the strategy core is a value, and the language's cases name the
    constructors they accept, so an extract constructs a
    ``StrategyFailure`` only where a case refuses a term of its own
    constructor: a few in the whole pass, not one per node."""
    from refax import minilet

    source, spans = minilet_gen.nested_lets(depth)
    span = Span.parse(spans[depth if innermost else 2])
    prog = minilet.LANGUAGE.place_focus_by_span(source, "expr", span)
    n = _size(prog)
    marking = _children_calls(
        monkeypatch, prog, lambda: framework.mark_host(minilet.let_defs_host, expr_focus, prog)
    )

    def extracting():
        minilet.extract_function("h", prog)

    # One walk of the tree, and the innermost let's short list once more for
    # the ``NameClash`` rule. Each further search for the focus would add
    # its preorder position (434 nodes for the innermost of 40 lets). The
    # counts are pinned.
    extract_calls = _children_calls(monkeypatch, prog, extracting)
    assert marking <= 2 * n
    assert extract_calls <= 1.5 * n
    assert extract_calls == {(10, False): 138, (10, True): 154, (20, False): 248, (20, True): 284,
                             (40, False): 468, (40, True): 544}[depth, innermost]
    # The CLI's path form runs on the path placement found: no search, so
    # it does not grow with the tree, only with the focus's depth.
    path = minilet.LANGUAGE.focus_path_by_span(source, "expr", span)
    path_calls = _children_calls(monkeypatch, prog, lambda: minilet.LANGUAGE.extract_at("h", path))
    assert path_calls == {(10, False): 25, (10, True): 41, (20, False): 25, (20, True): 61,
                          (40, False): 25, (40, True): 101}[depth, innermost]
    # Placement calls ``children`` only on nodes whose span encloses the
    # focus, however large the rest of the tree; the counts are pinned.
    placing = _children_calls(
        monkeypatch, prog, lambda: minilet.LANGUAGE.place_focus_by_span(source, "expr", span)
    ) - _children_calls(monkeypatch, prog, lambda: minilet.LANGUAGE.parse(source))
    assert placing == {(10, False): 14, (10, True): 46, (20, False): 14, (20, True): 86,
                       (40, False): 14, (40, True): 166}[depth, innermost]
    assert _calls(monkeypatch, [StrategyFailure], "__init__", extracting) <= 0.05 * n


def _wide_class(methods: int, at: int | None = None) -> tuple[str, Span]:
    """A class of ``methods`` three-statement methods, and the span of the
    call statement in method ``at`` (the middle one by default)."""
    at = methods // 2 if at is None else at
    lines = ["class Wide {", "    int f0;"]
    for k in range(methods):
        lines += [f"    void m{k}(int a) {{", "        int t;", "        t = a + f0;",
                  f"        this.m{k}(t);", "    }"]
        if k == at:
            row = len(lines) - 1
            span = Span(row, 9, row, 9 + len(f"this.m{k}(t);"))
    lines.append("}")
    return "\n".join(lines) + "\n", span


def test_extract_visits_are_linear_in_joos_breadth(monkeypatch):
    """Bounds of the same kind on a wide class of shallow methods. Placing
    the focus by span and marking its host walk only the path to the
    focus, so each makes as many ``children`` calls on a class of 600
    methods as on one of 60: placement with the focus in the first or the
    last method, host marking (whose search passes every method before
    the focus) with the focus in the first."""
    from refax import joos

    language = joos.LANGUAGE
    source, span = _wide_class(60)
    prog = language.place_focus_by_span(source, "statement", span)
    n = _size(prog)
    marking = _children_calls(
        monkeypatch, prog, lambda: framework.mark_host(joos.method_list_host, statement_focus, prog)
    )

    def extracting():
        joos.extract_method("helper", prog)

    assert marking <= 2 * n
    # One walk of the tree, and the method list (almost all of it) once more
    # for the ``NameClash`` rule. Each further search for the focus would add
    # its preorder position (3,312 nodes in the middle of 600 methods).
    assert _children_calls(monkeypatch, prog, extracting) <= 2.1 * n
    assert _calls(monkeypatch, [StrategyFailure], "__init__", extracting) <= 0.05 * n
    source, span = _wide_class(600)
    prog = language.place_focus_by_span(source, "statement", span)
    assert _children_calls(monkeypatch, prog, extracting) == 13227
    # The CLI's path form makes no search for the focus; what is left is
    # the ``NameClash`` rule's walk of the method list for the new name,
    # and the path below the host walked once more to put the application
    # into the extended host.
    path = language.focus_path_by_span(source, "statement", span)
    assert _children_calls(monkeypatch, prog, lambda: language.extract_at("helper", path)) == 6620

    counts = []
    for methods in (60, 600):
        placing = []
        for at in (methods - 1, 0):
            source, span = _wide_class(methods, at)
            prog = language.place_focus_by_span(source, "statement", span)
            placing.append(_children_calls(
                monkeypatch, prog, lambda: language.place_focus_by_span(source, "statement", span)
            ) - _children_calls(monkeypatch, prog, lambda: language.parse(source)))
        # ``prog`` now has the focus in the first method
        marking = _children_calls(
            monkeypatch, prog, lambda: framework.mark_host(joos.method_list_host, statement_focus, prog)
        )
        counts.append((placing, marking))
    assert counts[0] == counts[1]


def _query_calls(language, run):
    """Attempts of ``language``'s ``declared`` and ``referenced`` queries
    made by ``run`` on a copy of the record that counts them."""
    calls = {"declared": 0, "referenced": 0}

    def counted(what):
        query = getattr(language, what)

        def attempt(t):
            calls[what] += 1
            return query(t)

        return QueryTU(attempt)

    run(dataclasses.replace(language, declared=counted("declared"), referenced=counted("referenced")))
    return calls["declared"], calls["referenced"]


def test_a_fresh_name_costs_queries_only_on_the_path():
    """The ``NameClash`` rule runs the scoped free-name pass only when the
    new name occurs in the host's list. So an extract under a fresh name
    makes as many ``declared``/``referenced`` attempts on a class of 600
    methods as on one of 60: the environment folded over the path and the
    fragment's own free names. A name that occurs in the list (``t``, bound
    in every method, or the field ``f0``, free in the list) still costs the
    pass over the whole list. The counts are pinned."""
    from refax import joos

    counts = {}
    for methods in (60, 600):
        source, span = _wide_class(methods)
        path = joos.LANGUAGE.focus_path_by_span(source, "statement", span)
        for name in ("helper", "t", "f0"):

            def extracting(language):
                try:
                    language.extract_at(name, path)
                except NameClash:
                    pass

            counts[methods, name] = _query_calls(joos.LANGUAGE, extracting)
    assert counts == {
        (60, "helper"): (8, 3), (60, "t"): (669, 664), (60, "f0"): (669, 664),
        (600, "helper"): (8, 3), (600, "t"): (6609, 6604), (600, "f0"): (6609, 6604),
    }


def _declared_calls(declared, focus, prog):
    """Evaluations of ``declared`` in one ``bound_typed_names``; the count
    must repeat."""
    counts = []
    for _ in range(2):
        calls = [0]

        def counting(t):
            calls[0] += 1
            return declared(t)

        framework.bound_typed_names(QueryTU(counting), focus, prog)
        counts.append(calls[0])
    assert counts[0] == counts[1]
    return counts[0]


def _depth_of(prog, wrapper):
    """Number of strict ancestors of the first ``wrapper`` node in preorder."""

    def go(t, depth):
        if isinstance(t, wrapper):
            return depth
        for c in t.children():
            found = go(c, depth + 1)
            if found is not None:
                return found
        return None

    return go(prog, 0)


@pytest.mark.parametrize("depth", [10, 20, 40])
@pytest.mark.parametrize("innermost", [False, True], ids=["level2", "innermost"])
def test_bound_typed_names_evaluates_declared_on_the_focus_path(depth, innermost):
    """The environment of a focus is built from its ancestors alone:
    ``declared`` runs at most once per level above the focus, however many
    nodes the search for the focus passes before it."""
    from refax import minilet

    source, spans = minilet_gen.nested_lets(depth)
    span = Span.parse(spans[depth if innermost else 2])
    prog = minilet.LANGUAGE.place_focus_by_span(source, "expr", span)
    assert _declared_calls(mini_declared, expr_focus, prog) <= _depth_of(prog, mast.ExprFocus) + 1


def test_bound_typed_names_evaluates_declared_on_the_joos_focus_path():
    from refax import joos

    source, span = _wide_class(60)
    prog = joos.LANGUAGE.place_focus_by_span(source, "statement", span)
    depth = _depth_of(prog, jast.StatementFocus)
    assert _declared_calls(joos_declared, statement_focus, prog) <= depth + 1


def test_free_names_see_a_use_after_two_nested_binders_of_one_name():
    """Two nested binders of one name each raise its count; leaving the
    inner one keeps it bound, and leaving the outer one frees it again, so
    the last assignment's ``x`` is free."""
    body = parse_method("void m() { { int x; { int x; x = 1; } } x = 2; }").body
    declared = framework.declared_names(joos_declared)
    assert framework.free_names(declared, joos_referenced, body) == ("x",)


def test_an_unknown_focus_kind_is_refused_before_the_source_is_parsed():
    for language in LANGUAGES.values():
        with pytest.raises(KeyError):
            language.focus_path_by_span("(", "method", Span(1, 1, 1, 2))


def test_every_annotation_in_the_package_resolves():
    """Every function, method and class of ``refax`` has annotations that
    ``typing.get_type_hints`` resolves: a module that postpones its
    annotations still defines each name they use, its type aliases
    included."""
    annotated = 0
    for info in pkgutil.walk_packages(refax.__path__, "refax."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [v for v in vars(obj).values() if inspect.isfunction(v)] if inspect.isclass(obj) else []
            for target in [obj, *members]:
                if inspect.isfunction(target) or inspect.isclass(target):
                    typing.get_type_hints(target)
                    annotated += 1
    assert annotated > 500
