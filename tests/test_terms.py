"""Term protocol: children/rebuild/sort laws on the fixture algebra and on
real language nodes, and the compiled accessors against the generic slot
interpretation they replace."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import pickle
import random
import weakref
from itertools import chain, count, islice
from pathlib import Path
from typing import Any

import pytest

from refax import framework, joos, minilet
from refax.joos import ast as jast
from refax.joos import parse_program
from refax.minilet import ast as mast
from refax.strategy import SortCase
from refax.terms import (
    _ATOM,
    _ATOM_SEQ,
    _CHILD,
    _CHILD_SEQ,
    _OPT_CHILD,
    ArityMismatch,
    SortMismatch,
    Term,
    append_child,
    dump,
    node,
)

from . import fixture_trees, joos_gen, minilet_gen
from .fixture_trees import Leaf, Node, Tag, Tree, Twig, gen_tree, preorder


def _declares_fields(cls):
    return any(not str(a).startswith("ClassVar") for a in inspect.get_annotations(cls).values())


def test_node_classes_own_their_protocol_from_import():
    """Every ``Term`` subclass of both languages and of the fixtures that
    declares fields was declared with ``node``, so it owns its
    constructor, slots, slot table and accessors from the start and
    inherits none from another class; ``span`` is declared once, by
    ``Term``; and a class not declared with ``node`` cannot be built."""
    classes = {
        cls
        for module in (jast, mast, fixture_trees)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Term) and cls is not Term
    }
    declared = {cls for cls in classes if _declares_fields(cls)}
    assert {jast.While, jast.Program, mast.Let, mast.FunDef, Leaf, Twig} <= declared
    for cls in declared:
        assert cls.__dict__["__dataclass_params__"].frozen, cls
        for name in ("__init__", "__slots__", "children", "atoms", "rebuild", "_term_slots"):
            assert name in cls.__dict__, (cls, name)
    span = Term.__dataclass_fields__["span"]
    assert span.kw_only and not span.compare and not span.repr and span.default is None
    for cls in classes:
        assert "span" not in inspect.get_annotations(cls), cls
        if cls in declared:
            assert cls.__dataclass_fields__["span"] is span, cls
    # Only ``node`` gives a class a constructor; the accessors are stubs
    # that reject an instance made without one.
    with pytest.raises(TypeError, match=r"^Tree is not declared with terms\.node$"):
        Tree()
    for call in (lambda t: t.children(), lambda t: t.atoms(), lambda t: t.rebuild(())):
        with pytest.raises(TypeError, match=r"^Tree is not declared with terms\.node$"):
            call(object.__new__(Tree))


def test_a_node_sort_is_the_class_that_derives_term():
    """The sort of every class declared with ``node``, in both languages
    and in the fixtures, is the one class in its MRO that derives ``Term``
    directly: the class ``node`` returned, for a node class deriving
    ``Term`` (not the one ``dataclass(slots=True)`` replaced), and its
    sort class otherwise. A ``SortCase`` on a class has that class's
    sort."""
    nodes = [
        cls
        for module in (jast, mast, fixture_trees)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Term) and "_term_slots" in cls.__dict__
    ]
    assert {jast.Formal, jast.Block, jast.StatementFocus, mast.FunDef, mast.Let, Leaf, Twig} <= set(nodes)
    for cls in nodes:
        (sort,) = [c for c in cls.__mro__ if Term in c.__bases__]
        assert cls.sort is sort, cls
        if Term in cls.__bases__:
            assert cls.sort is cls, cls
        assert SortCase(cls, dump).sort is cls.sort and SortCase(sort, dump).sort is sort
    assert jast.Formal.sort is jast.Formal and mast.FunDef.sort is mast.FunDef
    assert jast.Block.sort is jast.StatementFocus.sort is jast.Statement
    assert mast.Let.sort is mast.ExprFocus.sort is mast.Expression is not jast.Expression
    assert Leaf.sort is Node.sort is Tag.sort is Tree and Twig.sort is Twig


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
        assert t.sort == Tree
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
    with pytest.raises(SortMismatch):
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


@pytest.mark.parametrize("lang, seed, expected", [
    ("joos", 1, "54d718480de0324f"),
    ("joos", 7919, "928cac28b8727a5c"),
    ("minilet", 1, "513c62b25586d0ee"),
    ("minilet", 7919, "af322194ed098d18"),
])
def test_dump_text_is_pinned(lang, seed, expected):
    """SHA-256 over the dump (the text ``refax ast`` prints) of 1000
    generated programs. A digest changes when the dump's format does, or
    when the generator draws other programs."""
    gen = {"joos": joos_gen, "minilet": minilet_gen}[lang]
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(1000):
        digest.update(dump(gen.gen_program(rng)).encode())
    assert digest.hexdigest()[:16] == expected


# -- the generic slot interpretation, kept as the reference -------------------
#
# ``children``, ``rebuild`` and ``atoms`` as every node class shared them
# before each class compiled its own from its slot table.


def children_reference(t):
    out = []
    for kind, name, _ in type(t)._term_slots:
        value = getattr(t, name)
        if kind == _CHILD:
            out.append(value)
        elif kind == _OPT_CHILD:
            if value is not None:
                out.append(value)
        elif kind == _CHILD_SEQ:
            out.extend(value)
    return tuple(out)


def atoms_reference(t):
    out = []
    for kind, name, _ in type(t)._term_slots:
        value = getattr(t, name)
        if kind == _ATOM:
            out.append(value)
        elif kind == _ATOM_SEQ:
            out.extend(value)
    return tuple(out)


def rebuild_reference(t, new_children):
    old = children_reference(t)
    new = tuple(new_children)
    if len(new) != len(old):
        raise ArityMismatch(f"{t.tag}: expected {len(old)} children, got {len(new)}")
    for i, (n, o) in enumerate(zip(new, old)):
        if n.sort != o.sort:
            raise SortMismatch(i, o.sort, n.sort)
    it = iter(new)
    replaced: dict[str, Any] = {}
    for kind, name, _ in type(t)._term_slots:
        value = getattr(t, name)
        if kind == _CHILD:
            replaced[name] = next(it)
        elif kind == _OPT_CHILD:
            replaced[name] = next(it) if value is not None else None
        elif kind == _CHILD_SEQ:
            replaced[name] = tuple(islice(it, len(value)))
    return dataclasses.replace(t, **replaced)


def _outcome(rebuild, t, new):
    try:
        out = rebuild(t, new)
    except (ArityMismatch, SortMismatch) as e:
        return type(e).__name__, str(e), getattr(e, "slot", None)
    return "ok", out, out.span


def _concrete_classes(module):
    return {
        cls for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Term)
        and "__dataclass_params__" in cls.__dict__ and hasattr(cls, "sort")
    }


def _parsed_samples():
    """Parsed programs of both languages (so nodes carry spans), with a
    focus wrapper of each kind planted in some, plus hand-built nodes: an
    optional child absent and present, and empty sequences."""
    rng = random.Random(41)
    for language, gen, nodes_of in (
        (joos.LANGUAGE, joos_gen, joos_gen.statement_nodes),
        (minilet.LANGUAGE, minilet_gen, minilet_gen.expr_nodes_under_let),
    ):
        for k in range(30):
            prog = language.parse(language.pretty(gen.gen_program(rng)))
            yield prog
            wrapper = language.focus_kinds[list(language.focus_kinds)[k % 2]]
            sort = wrapper.sort
            targets = [t for t in preorder(prog) if t.sort is sort and not isinstance(t, wrapper)]
            if targets:
                target = rng.choice(targets)
                yield framework.wrap_first(sort, lambda t: t is target, wrapper, prog)
    yield parse_program("class C { void m(int a) { if (a < 1) a = 1; if (a < 2) { } else a = 3; } }")
    yield jast.Program((jast.ClassDecl("E", (), jast.MethodList(())),))
    yield jast.CallStmt(jast.Call(True, "m", ()))
    yield minilet.LANGUAGE.parse("let f() = 1; in f()")
    yield mast.Let(mast.FunDefList(()), mast.IntLit(0))


def test_nodes_are_slotted_and_built_by_generated_constructors():
    """No node of either language or of the fixtures has a ``__dict__``,
    and the ``__init__`` that ``node`` generates for its class takes the
    dataclass's parameters (``span`` keyword-only, default None), builds
    the same node by position and by keyword, and leaves ``span`` out of
    equality, hashing and ``repr``; ``dataclasses.replace``, weak
    references and ``FrozenInstanceError`` on assigning or deleting any
    attribute keep working."""
    samples: dict[type, Term] = {}
    fixtures = (gen_tree(random.Random(k), tag_chance=0.3, twig_chance=0.3) for k in range(20))
    for tree in chain(_parsed_samples(), fixtures):
        for t in preorder(tree):
            samples.setdefault(type(t), t)
    assert set(samples) == _concrete_classes(jast) | _concrete_classes(mast) | _concrete_classes(fixture_trees)
    P = inspect.Parameter
    for cls, t in samples.items():
        assert not hasattr(t, "__dict__"), cls
        fields = [f for f in dataclasses.fields(cls) if f.init]
        assert [f.name for f in fields if f.kw_only] == ["span"], cls
        names = [f.name for f in fields if not f.kw_only]
        expected = [P(name, P.POSITIONAL_OR_KEYWORD) for name in names]
        expected.append(P("span", P.KEYWORD_ONLY, default=None))
        assert list(inspect.signature(cls.__init__).parameters.values())[1:] == expected, cls
        values = [getattr(t, name) for name in names]
        by_position = cls(*values, span=(0, 1))
        by_keyword = cls(**dict(zip(names, values)), span=(2, 3))
        assert by_position == by_keyword == t == cls(*values), cls
        assert hash(by_position) == hash(by_keyword) == hash(t), cls
        assert repr(by_position) == repr(t) and (by_position.span, by_keyword.span) == ((0, 1), (2, 3))
        assert cls(*values).span is None
        moved = dataclasses.replace(t, span=(5, 9))
        assert type(moved) is cls and moved == t and moved.span == (5, 9)
        assert weakref.ref(t)() is t
        for name in names + ["span"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, getattr(t, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.not_a_field = 0


def _spanned(t: Term, offsets: Any) -> Term:
    """``t`` with a span on every node, numbered in preorder."""
    start = next(offsets)
    rebuilt = t.rebuild([_spanned(c, offsets) for c in t.children()])
    return dataclasses.replace(rebuilt, span=(start, next(offsets)))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["copy", "deepcopy", "pickle"])
def test_nodes_survive_copy_and_pickle(copier):
    """A node copied, deep-copied or pickled and loaded again equals the
    original, and every node in it keeps its span: the slotted frozen
    classes that ``node`` makes must still get and set their state."""
    golden = Path(__file__).parent / "golden"
    trees = [
        parse_program((golden / "joos" / "account.joos").read_text(encoding="utf-8")),
        minilet.LANGUAGE.parse((golden / "minilet" / "nested.mlt").read_text(encoding="utf-8")),
        _spanned(gen_tree(random.Random(3), tag_chance=0.3, twig_chance=0.3), count()),
    ]
    for tree in trees:
        assert all(t.span is not None for t in preorder(tree))
        out = copier(tree)
        assert type(out) is type(tree) and out == tree
        assert [(type(t), t.span) for t in preorder(out)] == [(type(t), t.span) for t in preorder(tree)]


def test_compiled_accessors_equal_the_slot_interpretation():
    """On every node class of both languages, compiled ``children``,
    ``atoms`` and ``rebuild`` equal the generic reference: the same
    children and atoms, the same rebuilt node with the same span, and the
    same ``ArityMismatch`` and ``SortMismatch`` (message and slot) for
    wrong children."""
    seen = set()
    optional = set()
    empty = set()
    with_atoms = set()
    for prog in _parsed_samples():
        for t in preorder(prog):
            seen.add(type(t))
            cs = t.children()
            assert type(cs) is tuple and cs == children_reference(t)
            atoms = t.atoms()
            assert type(atoms) is tuple and atoms == atoms_reference(t)
            if atoms:
                with_atoms.add(type(t))
            rebuilt = t.rebuild(cs)
            assert rebuilt == t and rebuilt.span == t.span and type(rebuilt) is type(t)
            for kind, name, _ in type(t)._term_slots:
                value = getattr(t, name)
                if kind == _OPT_CHILD:
                    optional.add((type(t), value is None))
                if kind == _CHILD_SEQ and not value:
                    empty.add(type(t))
            wrong = [cs[:-1], cs + (Leaf(0),), tuple(reversed(cs))]
            wrong += [cs[:i] + (Leaf(i),) + cs[i + 1:] for i in range(len(cs))]
            for new in wrong:
                assert _outcome(type(t).rebuild, t, new) == _outcome(rebuild_reference, t, new)
    assert seen == _concrete_classes(jast) | _concrete_classes(mast)
    assert {(jast.If, True), (jast.If, False)} <= optional
    assert {jast.Block, jast.MethodList, jast.Call, mast.FunDefList, mast.Call} <= empty
    assert {jast.Call, jast.BoolLit, jast.MethodDecl, mast.FunDef, mast.Var} <= with_atoms


def test_mismatch_messages():
    t = Node(Leaf(1), Leaf(2))
    with pytest.raises(ArityMismatch, match=r"^Node: expected 2 children, got 1$"):
        t.rebuild((Leaf(1),))
    method = parse_program("class C { void m() { return; } }").classes[0].methods.methods[0]
    with pytest.raises(
        SortMismatch, match=r"^child slot 0 expects sort refax\.joos\.ast\.Statement, got tests\.fixture_trees\.Tree$"
    ):
        method.rebuild((Leaf(0),))


def test_a_subclass_of_a_compiled_class_compiles_its_own_accessors():
    base = Node(Leaf(1), Leaf(2))
    assert base.rebuild(base.children()) == base  # Node's accessors are compiled

    @node
    class Labelled(Node):
        label: str
        extra: Tree

    t = Labelled(Leaf(1), Leaf(2), "x", Leaf(3))
    assert t.children() == (Leaf(1), Leaf(2), Leaf(3)) == children_reference(t)
    assert t.atoms() == ("x",) == atoms_reference(t)
    assert t.rebuild((Leaf(4), Leaf(5), Leaf(6))) == Labelled(Leaf(4), Leaf(5), "x", Leaf(6))
    assert Labelled.children is not Node.children
    assert base.children() == (Leaf(1), Leaf(2))
