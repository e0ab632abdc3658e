"""Term protocol: children/rebuild/sort laws on the fixture algebra and on
real language nodes."""

from __future__ import annotations

import random

import pytest

from refax.joos import ast as jast
from refax.joos import parse_program
from refax.terms import ArityMismatch, Sort, SortMismatch, append_child, dump

from .fixture_trees import FIXTURE, Leaf, Node, Tag, gen_tree


def test_sorts_are_interned():
    """One object per sort id, so sort equality and hashing are identity."""
    assert Sort("x") is Sort("x")
    assert Sort("x") == Sort("x") and hash(Sort("x")) == hash(Sort("x"))
    assert Sort("x") != Sort("y")
    assert FIXTURE is Sort("FixtureTree") and jast.STATEMENT is Sort(jast.STATEMENT.id)
    assert len({Sort("x"), Sort("x"), Sort("y")}) == 2
    with pytest.raises(AttributeError):
        Sort("x").id = "y"


def test_children_of_node_and_leaf():
    t = Node(Leaf(1), Leaf(2))
    assert t.children() == (Leaf(1), Leaf(2))
    assert Leaf(7).children() == ()


def test_children_of_joos_while():
    prog = parse_program("class C { void m(int a) { while (a < 3) { a = a + 1; } } }")
    method = prog.classes[0].methods.methods[0]
    loop = method.body.statements[0]
    assert isinstance(loop, jast.While)
    assert loop.children() == (loop.condition, loop.body)
    assert loop.rebuild(loop.children()) == loop


def test_rebuild_substitutes_children():
    t = Node(Leaf(1), Leaf(2))
    assert t.rebuild((Leaf(9), Leaf(2))) == Node(Leaf(9), Leaf(2))
    assert t.rebuild(t.children()) == t


def test_rebuild_arity_mismatch():
    with pytest.raises(ArityMismatch):
        Node(Leaf(1), Leaf(2)).rebuild((Leaf(1),))


def test_rebuild_sort_mismatch():
    prog = parse_program("class C { void m() { return; } }")
    method = prog.classes[0].methods.methods[0]
    ret = method.body.statements[0]
    with pytest.raises(SortMismatch) as exc:
        method.rebuild((Leaf(0),) + method.children()[1:])
    assert exc.value.slot == 0


def test_rebuild_laws_on_random_trees():
    rng = random.Random(7)
    for _ in range(200):
        t = gen_tree(rng, tag_chance=0.2)
        assert t.rebuild(t.children()) == t
        assert t.sort == FIXTURE
        if t.children():
            swapped = tuple(reversed(t.children()))
            rebuilt = t.rebuild(swapped)
            assert rebuilt.children() == swapped
            assert rebuilt.sort == t.sort
            assert rebuilt.tag == t.tag
            assert rebuilt.atoms() == t.atoms()


def test_atoms_and_tag():
    t = Tag("host", Leaf(3))
    assert t.atoms() == ("host",)
    assert t.tag == "Tag"
    assert Leaf(3).atoms() == (3,)


def test_structural_equality_ignores_spans():
    a = parse_program("class C { void m() { } }")
    b = parse_program("class    C     {\n  void m() { }\n}")
    assert a == b


def test_append_child_extends_sequence_nodes():
    prog = parse_program("class C { void m() { } }")
    method_list = prog.classes[0].methods
    extra = jast.MethodDecl("void", "n", (), jast.Block(()))
    extended = append_child(method_list, extra)
    assert extended.methods == method_list.methods + (extra,)
    with pytest.raises(Exception):
        append_child(method_list, Leaf(1))


def test_optional_child_slots():
    prog = parse_program("class C { void m(int a) { if (a < 1) a = 1; } }")
    branch = prog.classes[0].methods.methods[0].body.statements[0]
    assert isinstance(branch, jast.If)
    assert branch.else_branch is None
    assert len(branch.children()) == 2
    rebuilt = branch.rebuild(branch.children())
    assert rebuilt == branch


def test_dump_is_deterministic():
    prog = parse_program("class C { int f; void m() { f = 1 + 2; } }")
    assert dump(prog) == dump(parse_program("class C { int f; void m() { f = 1 + 2; } }"))
    assert dump(prog).splitlines()[0] == "Program"
