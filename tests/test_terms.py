"""Term protocol: children/rebuild/sort laws on the fixture algebra and on
real language nodes, and the compiled accessors against the generic slot
interpretation they replace."""

import copy
import dataclasses
import hashlib
import inspect
import pickle
import random
import typing
import weakref
from itertools import chain, count, islice
from pathlib import Path
from typing import Any

import pytest

from refax import joos, minilet
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
    TermError,
    append_child,
    dump,
    node,
    with_span,
)

from . import fixture_trees, joos_gen, minilet_gen
from .fixture_trees import Leaf, Node, Tag, Tree, Twig, gen_tree, preorder, wrap_node


def _declares_fields(cls):
    return any(f.name in inspect.get_annotations(cls) for f in dataclasses.fields(cls))


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


def test_term_declares_the_class_variables_of_the_protocol():
    """``Term`` declares the two class variables that
    ``__init_subclass__`` and ``node`` set on a node class, ``sort`` and
    ``_term_slots``, as ``ClassVar``s, so that no dataclass makes a field
    of either."""
    hints = typing.get_type_hints(Term)
    assert typing.get_origin(hints["sort"]) is typing.ClassVar
    assert typing.get_origin(hints["_term_slots"]) is typing.ClassVar
    assert {f.name for f in dataclasses.fields(Term)} == {"span"}


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


def test_slot_tables_are_pinned():
    """Every node class's slot table, as ``(kind, field, qualified name of
    the slot's class)`` triples, in both languages and in the fixtures:
    SHA-256 over the tables sorted by class, pinned when ``node`` still
    evaluated annotation strings, so reading the evaluated annotations
    builds the same tables."""
    tables = sorted(
        (
            f"{cls.__module__}.{cls.__qualname__}",
            tuple((kind, name, f"{arg.__module__}.{arg.__qualname__}") for kind, name, arg in cls._term_slots),
        )
        for module in (jast, mast, fixture_trees)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Term) and "_term_slots" in cls.__dict__
    )
    assert len(tables) == 36
    assert dict(tables)["refax.joos.ast.If"][2] == (_OPT_CHILD, "else_branch", "refax.joos.ast.Statement")
    assert dict(tables)["refax.minilet.ast.FunDef"][1] == (_ATOM_SEQ, "params", "builtins.str")
    assert dict(tables)["refax.joos.ast.Unparsed"] == ((_ATOM, "text", "builtins.str"), (_ATOM_SEQ, "tokens", "builtins.str"))
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    # The 35 tables before ``Unparsed`` was declared hashed to 3c92a2b6b0609fed...
    assert digest == "9d1a675c20746d62d49df9722c0113f67351bb07c70fc7e650ec3e691837a31f"


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
    with pytest.raises(TermError, match=r"^Node: not a single-sequence node$"):
        append_child(Node(Leaf(1), Leaf(2)), Leaf(3))


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


# -- dump: the generated per-class steps against the generic walk -------------


def dump_reference(t):
    """The dump as one generic walk wrote it before each class had its own
    step: tag, atoms through ``atoms()``, then ``children()`` two spaces
    deeper."""
    lines = []

    def walk(t, indent):
        head = "  " * indent + type(t).__name__
        atoms = t.atoms()
        if atoms:
            head += "(" + ", ".join(map(str, atoms)) + ")"
        lines.append(head)
        for c in t.children():
            walk(c, indent + 1)

    walk(t, 0)
    return "\n".join(lines)


@node
class Named(Tree):
    """Atom sequences only, one of them possibly empty."""

    names: tuple[str, ...]
    more: tuple[str, ...]


@node
class Mixed(Tree):
    """Every slot kind, atoms interleaved with children."""

    flag: bool
    first: Tree
    count: int
    rest: tuple[Tree, ...]
    label: str
    maybe: Tree | None
    names: tuple[str, ...]


@node
class Nil(Tree):
    pass


def _dump_samples():
    yield from _parsed_samples()
    for k in range(20):
        yield gen_tree(random.Random(k), tag_chance=0.3, twig_chance=0.3)
    for names, more in (((), ()), (("a",), ()), ((), ("b", "c")), (("a", "b"), ("c",))):
        yield Node(Named(names, more), Nil())
    yield Mixed(False, Leaf(1), 0, (), "", None, ())
    yield Mixed(True, Nil(), -3, (Leaf(2), Node(Nil(), Leaf(3))), "l x", Named(("p",), ()), ("n", "m"))


def test_dump_equals_the_generic_walk_on_every_node_class():
    """``dump`` equals ``dump_reference`` on every subtree of parsed
    programs of both languages (focus wrappers planted in some), of
    fixture trees and of hand-built nodes: every node class of the
    languages and the fixtures, an optional child present and absent,
    empty sequences, ``bool``, ``int`` and ``str`` atoms and atom
    sequences, empty or not."""
    seen = set()
    for tree in _dump_samples():
        for t in preorder(tree):
            seen.add(type(t))
            assert dump(t) == dump_reference(t)
    classes = _concrete_classes(jast) | _concrete_classes(mast) | _concrete_classes(fixture_trees)
    assert seen == classes | {Named, Mixed, Nil}
    assert dump(Named((), ())) == "Named" and dump(Nil()) == "Nil"
    assert dump(Mixed(True, Nil(), -3, (), "l x", None, ("n",))) == "Mixed(True, -3, l x, n)\n  Nil"


@pytest.mark.parametrize("lang", ["joos", "minilet"])
def test_dump_equals_the_generic_walk_on_generated_programs(lang):
    gen = {"joos": joos_gen, "minilet": minilet_gen}[lang]
    rng = random.Random(43)
    for _ in range(300):
        prog = gen.gen_program(rng)
        assert dump(prog) == dump_reference(prog)


def test_dump_rejects_a_class_not_declared_with_node():
    """A class not declared with ``node`` has no dump step: dumping one of
    its instances, alone or as a child, raises the ``TypeError`` that
    names it."""
    stray = object.__new__(Tree)
    for t in (stray, Tag("x", stray)):
        with pytest.raises(TypeError, match=r"^Tree is not declared with terms\.node$"):
            dump(t)


def test_a_subclass_declared_with_node_dumps_its_own_tag():
    """A subclass declared with ``node`` builds its own step, even when its
    base has built one first: its own tag, atoms and children."""
    assert dump(Node(Leaf(1), Leaf(2))) == "Node\n  Leaf(1)\n  Leaf(2)"

    @node
    class Labelled(Node):
        label: str
        extra: Tree

    t = Labelled(Leaf(1), Leaf(2), "x", Leaf(3))
    assert dump(t) == dump_reference(t) == "Labelled(x)\n  Leaf(1)\n  Leaf(2)\n  Leaf(3)"
    assert dump(Node(t, Leaf(4))) == "Node\n  Labelled(x)\n    Leaf(1)\n    Leaf(2)\n    Leaf(3)\n  Leaf(4)"
    assert Labelled._dump_step is not Node._dump_step
    assert Labelled._dump_step.__qualname__.endswith("Labelled._dump_step")


def test_with_span_keeps_the_class_and_the_fields():
    """``with_span`` gives a node of the same class, equal to the given
    one, holding the same field values and the new span, for classes of
    no, one and several fields."""
    for tree in _dump_samples():
        for t in preorder(tree):
            moved = with_span(t, (7, 9))
            assert type(moved) is type(t) and moved == t and moved.span == (7, 9)
            assert all(getattr(moved, f.name) is getattr(t, f.name) for f in dataclasses.fields(t) if f.compare)
    assert with_span(Nil(), None) == Nil() and with_span(Leaf(3), (0, 1)).span == (0, 1)


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
                yield wrap_node(prog, target, wrapper)
    yield parse_program("class C { void m(int a) { if (a < 1) a = 1; if (a < 2) { } else a = 3; } }")
    # A diet parse: the first body built, the second kept as an Unparsed.
    yield parse_program("class C { void m() { m(); } int n(int a) { return a; } }", lambda span: span[0] < 20)
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


def test_a_string_annotation_is_rejected_where_the_class_is_declared():
    """``node`` reads annotations as evaluated: a field annotated with a
    string, as in a module that postpones its annotations, raises a
    ``TypeError`` naming the class and the field when the class is
    declared."""
    with pytest.raises(TypeError, match=r"^Quoted\.value: unsupported term field annotation 'int'$"):

        @node
        class Quoted(Tree):
            value: "int"

    postponed = "from __future__ import annotations\n@node\nclass Postponed(Tree):\n    child: Tree\n"
    with pytest.raises(TypeError, match=r"^Postponed\.child: unsupported term field annotation 'Tree'$"):
        exec(compile(postponed, "postponed", "exec"), {"node": node, "Tree": Tree})


@pytest.mark.parametrize("annotation", [tuple[Tree, Tree], tuple[Tree], tuple[int, ...], Tree | Twig | None,
                                        Tree | Twig, float, list[Tree]])
def test_an_unsupported_field_annotation_is_rejected(annotation):
    with pytest.raises(TypeError, match=r"^Odd\.value: unsupported term field annotation "):

        @node
        class Odd(Tree):
            value: annotation


def test_node_keeps_the_class_doc_and_names_the_methods_it_installs():
    """An undocumented node class keeps no docstring (``dataclasses`` would
    write the signature it finds, ``Term``'s rejecting one), and each
    method ``node`` installs is named after its class."""
    assert Leaf.__doc__ is None and jast.While.__doc__ is None
    assert Twig.__doc__ == "A leaf of the second sort."
    for cls in (Leaf, jast.While, mast.Let):
        for name in ("__init__", "children", "atoms", "rebuild"):
            assert getattr(cls, name).__qualname__ == f"{cls.__qualname__}.{name}"


def test_node_asks_no_signature_for_a_docstring_it_discards(monkeypatch):
    """``dataclasses`` builds a docstring from ``inspect.signature`` for an
    undocumented class; ``node`` gives the class a placeholder first, so
    declaring one computes no signature, and the class keeps no
    docstring."""
    calls = []
    monkeypatch.setattr(inspect, "signature", lambda *args, **kwargs: calls.append(args))

    @node
    class Bare(Tree):
        value: int

    assert calls == [] and Bare.__doc__ is None


def test_a_class_keyword_a_node_class_does_not_take_is_refused():
    """``Term.__init_subclass__`` passes class keywords on to ``object``,
    which refuses any."""
    with pytest.raises(TypeError):

        class Flavoured(Tree, flavour="plain"):
            pass
