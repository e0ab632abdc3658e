"""Combinator behavior: basic units, composition, dispatch, one-layer
traversal, recursive schemes, and environment propagation."""

from __future__ import annotations

import ast
import random
from functools import partial
from pathlib import Path

import pytest

from refax import strategy
from refax.strategy import (
    QueryTU,
    SortCase,
    StrategyFailure,
    TransformTP,
    above_path_tp,
    above_tp,
    adhoc_tp,
    adhoc_tu,
    apply_tp,
    apply_tu,
    choice_tu,
    fail_tp,
    fail_tu,
    focus_paths,
    map_tu,
    mono_tp,
    mono_tu,
    oncetd_tp,
    oncetd_tu,
    propagate_path_tu,
    scoped_uses_tu,
)

from . import joos_gen, minilet_gen
from .fixture_trees import (
    Leaf,
    Node,
    Tag,
    Tree,
    Twig,
    gen_tree,
    inc_leaf,
    leaf_case,
    leaf_value,
    preorder,
    wrap_node,
)
from .reference_strategies import (
    Monoid,
    adhoc_reference,
    all_tp_reference,
    all_tu_reference,
    choice_reference,
    comb_reference,
    const_reference,
    id_reference,
    let_reference,
    one_tp_reference,
    one_tu_reference,
    oncebu_reference,
    oncetd_reference,
    propagate_reference,
    seq_reference,
)

LIST_MONOID = Monoid((), lambda a, b: a + b)


def sample_trees(n=60, seed=3, twig_chance=0.0):
    rng = random.Random(seed)
    return [gen_tree(rng, tag_chance=0.15, twig_chance=twig_chance) for _ in range(n)]


def _outcome(apply, s, t):
    try:
        out = apply(s, t)
    except StrategyFailure:
        return ("fail", None)
    assert out is not strategy._FAIL
    return ("ok", out)


outcome_tp, outcome_tu = partial(_outcome, apply_tp), partial(_outcome, apply_tu)


def test_identity_and_failure_units():
    t = Node(Leaf(1), Leaf(2))
    assert apply_tp(id_reference(), t) == t
    with pytest.raises(StrategyFailure):
        apply_tp(fail_tp(), t)
    with pytest.raises(StrategyFailure):
        apply_tu(fail_tu(), t)
    assert apply_tu(const_reference(42), Leaf(0)) == 42
    assert apply_tu(const_reference([]), t) == []


def test_adhoc_dispatch():
    from refax.minilet import ast as mast

    assert apply_tp(adhoc_tp(fail_tp(), inc_leaf), Leaf(3)) == Leaf(4)
    assert apply_tu(adhoc_tu(const_reference(0), leaf_value), Leaf(9)) == 9
    # sort miss takes the default branch
    assert apply_tu(adhoc_tu(const_reference(0), leaf_value), mast.IntLit(5)) == 0
    with pytest.raises(StrategyFailure):
        apply_tu(adhoc_tu(fail_tu(), leaf_value), mast.IntLit(5))
    # a matching sort whose case declines fails without falling back
    with pytest.raises(StrategyFailure):
        apply_tu(adhoc_tu(const_reference(0), leaf_value), Node(Leaf(1), Leaf(2)))


def test_mono_is_adhoc_over_failure():
    for t in sample_trees():
        assert outcome_tu(mono_tu(leaf_value), t) == outcome_tu(
            adhoc_tu(fail_tu(), leaf_value), t
        )
        assert outcome_tp(mono_tp(inc_leaf), t) == outcome_tp(
            adhoc_tp(fail_tp(), inc_leaf), t
        )


def test_seq_and_let():
    bump2 = seq_reference(mono_tp(inc_leaf), mono_tp(inc_leaf))
    assert apply_tp(bump2, Leaf(1)) == Leaf(3)
    with pytest.raises(StrategyFailure):
        apply_tp(seq_reference(fail_tp(), id_reference()), Leaf(1))
    assert apply_tu(let_reference(const_reference(5), lambda n: const_reference(n + 1)), Leaf(0)) == 6
    with pytest.raises(StrategyFailure):
        apply_tu(let_reference(fail_tu(), lambda n: const_reference(n)), Leaf(0))


def test_seq_unit_and_associativity_laws():
    inc = mono_tp(inc_leaf)
    for t in sample_trees():
        assert outcome_tp(seq_reference(id_reference(), inc), t) == outcome_tp(inc, t)
        assert outcome_tp(seq_reference(inc, id_reference()), t) == outcome_tp(inc, t)
        a, b, c = oncetd_tp(inc), all_tp_reference(choice_reference(TransformTP, inc, id_reference())), id_reference()
        left, right = seq_reference(seq_reference(a, b), c), seq_reference(a, seq_reference(b, c))
        assert outcome_tp(left, t) == outcome_tp(right, t)


def test_choice_left_bias_and_units():
    assert apply_tu(choice_tu(fail_tu(), const_reference(1)), Leaf(0)) == 1
    assert apply_tu(choice_tu(const_reference(1), const_reference(2)), Leaf(0)) == 1
    inc, value = mono_tp(inc_leaf), mono_tu(leaf_value)
    for t in sample_trees():
        assert outcome_tu(choice_tu(fail_tu(), value), t) == outcome_tu(value, t)
        assert outcome_tu(choice_tu(value, fail_tu()), t) == outcome_tu(value, t)
        assert outcome_tp(choice_reference(TransformTP, fail_tp(), inc), t) == outcome_tp(inc, t)
        assert outcome_tp(choice_reference(TransformTP, inc, fail_tp()), t) == outcome_tp(inc, t)
        assert outcome_tp(choice_reference(TransformTP, fail_tp(), id_reference()), t) == ("ok", t)
        # recovery: a leaf-only rewrite with identity fallback leaves nodes alone
        assert apply_tp(choice_reference(TransformTP, inc, id_reference()), t) == (
            Leaf(t.value + 1) if isinstance(t, Leaf) else t
        )


def test_all_tp():
    inc = choice_reference(TransformTP, mono_tp(inc_leaf), id_reference())
    assert apply_tp(all_tp_reference(inc), Node(Leaf(1), Leaf(2))) == Node(Leaf(2), Leaf(3))
    for s in (fail_tp(), id_reference(), mono_tp(inc_leaf)):
        assert apply_tp(all_tp_reference(s), Leaf(5)) == Leaf(5)
    with pytest.raises(StrategyFailure):
        apply_tp(all_tp_reference(mono_tp(inc_leaf)), Node(Leaf(1), Node(Leaf(2), Leaf(3))))
    for t in sample_trees():
        assert apply_tp(all_tp_reference(id_reference()), t) == t


def test_one_tp_leftmost_only():
    inc_one = one_tp_reference(mono_tp(inc_leaf))
    assert apply_tp(inc_one, Node(Leaf(1), Leaf(2))) == Node(Leaf(2), Leaf(2))
    assert apply_tp(inc_one, Node(Node(Leaf(1), Leaf(2)), Leaf(7))) == Node(Node(Leaf(1), Leaf(2)), Leaf(8))
    with pytest.raises(StrategyFailure):
        apply_tp(inc_one, Leaf(1))


def test_one_tp_touches_exactly_one_child():
    rng = random.Random(11)
    for _ in range(100):
        t = Node(gen_tree(rng, 2), gen_tree(rng, 2))
        hits = []

        def counting(u):
            hits.append(u)
            return u

        s = TransformTP(counting)
        apply_tp(one_tp_reference(s), t)
        assert len(hits) == 1 and hits[0] is t.children()[0]


def test_all_tu_and_one_tu():
    as_list = mono_tu(leaf_case(lambda t: (t.value,)))
    q = choice_tu(as_list, const_reference(()))
    assert apply_tu(all_tu_reference(LIST_MONOID, q), Node(Leaf(1), Leaf(2))) == (1, 2)
    assert apply_tu(all_tu_reference(LIST_MONOID, q), Leaf(9)) == ()
    with pytest.raises(StrategyFailure):
        apply_tu(all_tu_reference(LIST_MONOID, fail_tu()), Node(Leaf(1), Leaf(2)))
    # oneTU: first child success, left to right
    value_one = one_tu_reference(mono_tu(leaf_value))
    assert apply_tu(value_one, Node(Node(Leaf(1), Leaf(2)), Leaf(5))) == 5
    with pytest.raises(StrategyFailure):
        apply_tu(value_one, Node(Node(Leaf(1), Leaf(2)), Node(Leaf(3), Leaf(4))))


def test_all_tu_length_equals_child_count():
    for t in sample_trees():
        got = apply_tu(all_tu_reference(LIST_MONOID, const_reference((1,))), t)
        assert len(got) == len(t.children())


def test_comb_tu():
    union = lambda a, b: tuple(dict.fromkeys(a + b))
    assert apply_tu(comb_reference(union, const_reference((1,)), const_reference((1, 2))), Leaf(0)) == (1, 2)
    with pytest.raises(StrategyFailure):
        apply_tu(comb_reference(union, fail_tu(), const_reference((1,))), Leaf(0))


def test_oncetd_first_preorder_match():
    assert apply_tu(oncetd_tu(mono_tu(leaf_value)), Node(Leaf(4), Leaf(5))) == 4
    deep = Node(Node(Leaf(1), Leaf(2)), Leaf(3))
    assert apply_tu(oncetd_tu(mono_tu(leaf_value)), deep) == 1
    with pytest.raises(StrategyFailure):
        apply_tu(oncetd_tu(fail_tu()), deep)
    with pytest.raises(StrategyFailure):
        apply_tp(oncetd_tp(fail_tp()), deep)


def test_oncebu_first_postorder_match():
    tag_label = mono_tu(SortCase(Tree, lambda t: t.label if isinstance(t, Tag) else _refuse()))
    t = Tag("root", Node(Tag("deep", Leaf(1)), Tag("right", Leaf(2))))
    assert apply_tu(oncebu_reference(QueryTU, one_tu_reference, tag_label), t) == "deep"
    assert apply_tu(oncetd_tu(tag_label), t) == "root"


def _refuse():
    raise StrategyFailure("no")


def test_propagate_select_at_root_short_circuits():
    calls = []

    def update(env):
        def run(t):
            calls.append(t)
            return env

        return QueryTU(run)

    q = propagate_path_tu((), update, const_reference("hit"))
    assert apply_tu(q, Node(Leaf(1), Leaf(2))) == ((), "hit")
    assert calls == []


def test_propagate_threads_environment_along_path():
    def update(env):
        return mono_tu(SortCase(Tree, lambda t: env + (t.label,) if isinstance(t, Tag) else _refuse()))

    select = mono_tu(leaf_case(lambda t: t.value if t.value == 99 else _refuse()))
    q = propagate_path_tu((), update, select)

    t = Tag("a", Node(Tag("b", Tag("c", Leaf(99))), Tag("zzz", Leaf(0))))
    assert apply_tu(q, t) == (("a", "b", "c"), 99)
    # shadowing discipline: duplicates stay, innermost last
    t2 = Tag("x", Tag("y", Tag("x", Leaf(99))))
    assert apply_tu(q, t2) == (("x", "y", "x"), 99)
    with pytest.raises(StrategyFailure):
        apply_tu(q, Tag("a", Leaf(1)))


def _paired(select):
    """``select`` for ``propagate_reference``, pairing its result with the
    environment as ``propagate_path_tu`` does."""
    return lambda env: map_tu(lambda a: (env, a), select)


def test_propagate_path_agrees_with_propagate():
    """Folding ``update`` over the path to the first match gives the
    environment of ``propagate_reference``, the raising top-down search
    that updates the environment at every node it passes: on random trees, with an ``update``
    that refuses at leaves and records which node it ran at, and on
    generated programs of both languages with their own name queries."""

    def update(env):
        return mono_tu(SortCase(
            Tree, lambda t: env + ((t.tag, len(preorder(t))),) if not isinstance(t, Leaf) else _refuse()
        ))

    outcomes = set()
    for t in sample_trees(80, seed=29):
        for k in range(10):
            select = mono_tu(leaf_case(lambda u, k=k: u.value if u.value == k else _refuse()))
            got = outcome_tu(propagate_path_tu((), update, select), t)
            assert got == outcome_tu(propagate_reference((), update, _paired(select)), t)
            outcomes.add((got[0], bool(got[1] and got[1][0])))
    assert outcomes == {("ok", True), ("ok", False), ("fail", False)}

    from refax.joos import ast as jast
    from refax.joos import declared_pairs as joos_declared, statement_focus
    from refax.minilet import ast as mast
    from refax.minilet import declared_pairs as mini_declared, expr_focus

    def collect(declared):
        return lambda env: map_tu(lambda pairs: env + tuple(pairs), declared)

    rng = random.Random(31)
    for _ in range(40):
        prog = joos_gen.gen_program(rng)
        target = rng.choice(joos_gen.statement_nodes(prog))
        focused = wrap_node(prog, target, jast.StatementFocus)
        select, update = mono_tu(statement_focus), collect(joos_declared)
        got = apply_tu(propagate_path_tu((), update, select), focused)
        assert got == apply_tu(propagate_reference((), update, _paired(select)), focused)
        assert got[1] == target
    for _ in range(40):
        prog = minilet_gen.gen_program(rng)
        exprs = minilet_gen.expr_nodes_under_let(prog)
        if not exprs:
            continue
        target = rng.choice(exprs)
        focused = wrap_node(prog, target, mast.ExprFocus)
        select, update = mono_tu(expr_focus), collect(mini_declared)
        got = apply_tu(propagate_path_tu((), update, select), focused)
        assert got == apply_tu(propagate_reference((), update, _paired(select)), focused)
        assert got[1] == target


def test_type_preservation_is_enforced():
    from refax.minilet import ast as mast

    def bad(t):
        return mast.IntLit(0)

    changed = r"^type-preserving strategy changed sort tests\.fixture_trees\.Tree -> refax\.minilet\.ast\.Expression$"
    with pytest.raises(TypeError, match=changed):
        apply_tp(TransformTP(bad), Leaf(1))


def above_reference(s, below):
    """Reference semantics of ``above_tp``, O(n·depth): after every child
    refuses, a fresh ``oncetd_tu(below)`` probe over the node's children
    decides whether ``s`` is tried there."""
    probe = oncetd_tu(below)

    def met_below(t):
        for c in t.children():
            try:
                probe(c)
                return True
            except StrategyFailure:
                continue
        return False

    def run(t):
        try:
            return one_tp_reference(scheme)(t)
        except StrategyFailure:
            pass
        if not met_below(t):
            raise StrategyFailure("aboveTP: condition not met below")
        return s(t)

    scheme = TransformTP(run)
    return scheme


def _hit_on_even_left(t):
    """Marks a Node whose left child is an even leaf, and relabels a Tag;
    refuses every other node, so some candidates pass upwards."""
    if isinstance(t, Node) and isinstance(t.left, Leaf) and t.left.value % 2 == 0:
        return Tag("hit", t)
    if isinstance(t, Tag):
        return Tag("hit", t.child)
    raise StrategyFailure("not a candidate")


def test_above_matches_reference_formulation():
    """The one-pass ``above_tp`` equals the probe-per-candidate reference:
    with several ``below`` hits, with ``s`` refusing at some candidates,
    with ``below`` holding only at the root (which must fail), and with no
    match at all."""
    mark_all = mono_tp(SortCase(Tree, lambda t: Tag("hit", t)))
    mark_some = mono_tp(SortCase(Tree, _hit_on_even_left))
    big_leaf = mono_tu(leaf_case(lambda t: t.value if t.value >= 7 else _refuse()))
    outcomes = set()
    for t in sample_trees(200, seed=17):
        at_root = mono_tu(SortCase(Tree, lambda u, root=t: u if u is root else _refuse()))
        for s in (mark_all, mark_some):
            for below in (big_leaf, mono_tu(leaf_value)):
                got = outcome_tp(above_tp(s, below), t)
                assert got == outcome_tp(above_reference(s, below), t)
                outcomes.add((s is mark_all, got[0]))
            for below in (at_root, fail_tu()):
                assert outcome_tp(above_tp(s, below), t) == ("fail", None)
                assert outcome_tp(above_reference(s, below), t) == ("fail", None)
    # both strategies both succeeded and refused somewhere
    assert outcomes == {(a, o) for a in (True, False) for o in ("ok", "fail")}


def test_above_path_matches_above_at_one_below_node():
    """Where ``below`` holds at exactly one node, the path scheme equals
    the whole-tree ``above_tp``: at every node of random trees, with ``s``
    accepting every ancestor or refusing some, and with the host markers
    and focus recognisers of both languages on generated programs, whose
    passes refuse at every ancestor that is not a host."""
    mark_all = mono_tp(SortCase(Tree, lambda t: Tag("hit", t)))
    mark_some = mono_tp(SortCase(Tree, _hit_on_even_left))
    outcomes = set()
    for t in sample_trees(60, seed=23):
        nodes = preorder(t)
        for target in nodes:
            if sum(u is target for u in nodes) != 1:
                continue
            below = mono_tu(SortCase(Tree, lambda u, target=target: u if u is target else _refuse()))
            for s in (mark_all, mark_some):
                got = outcome_tp(above_path_tp(s, below), t)
                assert got == outcome_tp(above_tp(s, below), t)
                outcomes.add((s is mark_all, got[0]))
    assert outcomes == {(a, o) for a in (True, False) for o in ("ok", "fail")}

    from refax import joos, minilet

    rng = random.Random(37)
    for language, gen, host, focus in (
        (joos.LANGUAGE, joos_gen, joos.method_list_host, joos.statement_focus),
        (minilet.LANGUAGE, minilet_gen, minilet.let_defs_host, minilet.expr_focus),
    ):
        wrapper = language.focus_kinds[language.fragment_kind]
        sort = wrapper.sort
        for _ in range(30):
            prog = gen.gen_program(rng)
            for target in [u for u in preorder(prog) if u.sort is sort]:
                focused = wrap_node(prog, target, wrapper)
                s, below = mono_tp(host), mono_tu(focus)
                assert outcome_tp(above_path_tp(s, below), focused) == outcome_tp(above_tp(s, below), focused)


def test_above_path_takes_the_first_below_node_in_preorder():
    """With several ``below`` nodes the path scheme considers only the
    first in preorder, as its docstring states; ``above_tp`` tries every
    candidate in postorder."""
    mark = mono_tp(SortCase(Tree, lambda t: Tag("hit", t) if isinstance(t, Tag) else _refuse()))
    nine = mono_tu(leaf_case(lambda t: t if t.value == 9 else _refuse()))
    # the first 9 has no Tag above it; a later one has
    t = Node(Node(Leaf(9), Leaf(1)), Tag("a", Leaf(9)))
    assert outcome_tp(above_path_tp(mark, nine), t) == ("fail", None)
    assert outcome_tp(above_tp(mark, nine), t) == ("ok", Node(Node(Leaf(9), Leaf(1)), Tag("hit", Tag("a", Leaf(9)))))
    # a Tag above the first 9 wins over a deeper one above a later 9
    t = Tag("a", Node(Leaf(9), Tag("b", Leaf(9))))
    assert outcome_tp(above_path_tp(mark, nine), t) == ("ok", Tag("hit", t))
    assert outcome_tp(above_tp(mark, nine), t) == ("ok", Tag("a", Node(Leaf(9), Tag("hit", Tag("b", Leaf(9))))))


def test_guided_focus_paths_keep_exactly_the_paths_the_guide_admits():
    """With no guide, ``focus_paths`` yields every node ``select`` accepts,
    in preorder, each with what ``select`` yields there and a path that
    rebuilds the tree. Over random trees and random guides, the guided walk
    yields exactly the unguided walk's paths whose nodes below the root all
    pass the guide, in the same order, with the same ``found``, node and
    rebuilt tree. The guide is asked about no node below one it refused,
    nor about the root."""
    rng = random.Random(41)
    marker = Leaf(-1)

    def records(paths):
        return [(at.found, id(at.node), at.rebuild(marker)) for at in paths]

    kept = pruned = 0
    for t in sample_trees(80, seed=43, twig_chance=0.2):
        nodes = preorder(t)
        parent = {id(c): u for u in nodes for c in u.children()}

        def below_root(u):  # ``u`` and its strict ancestors, the root excluded
            while id(u) in parent:
                yield u
                u = parent[id(u)]

        for select, outcome in ((mono_tu(SortCase(Tree, lambda u: u)), outcome_tu),
                                (mono_tu(leaf_value), outcome_tu), (mono_tp(inc_leaf), outcome_tp)):
            unguided = list(focus_paths(select, t))
            outcomes = [(outcome(select, u), id(u)) for u in nodes]
            assert [(at.found, id(at.node)) for at in unguided] == [
                (found, node) for (kind, found), node in outcomes if kind == "ok"]
            assert all(at.rebuild(at.node) == t for at in unguided)
            for rate in (0.1, 0.4):
                refused = {id(u) for u in nodes if rng.random() < rate}
                asked = []

                def enter(c):
                    asked.append(c)
                    return id(c) not in refused

                guided = records(focus_paths(select, t, enter))
                admitted = [at for at in unguided
                            if not any(id(u) in refused for u in below_root(at.node))]
                assert guided == records(admitted)
                assert all(c is not t for c in asked)
                assert all(not any(id(u) in refused for u in below_root(parent[id(c)]))
                           for c in asked)
                kept += len(guided)
                pruned += len(unguided) - len(guided)
    assert kept > 500 and pruned > 500


def _label(t):
    return (t.label,)


def _odd_leaf(t):
    if isinstance(t, Leaf) and t.value % 2:
        return (t.value,)
    raise StrategyFailure("not an odd leaf")


# Parts that succeed at some nodes and refuse at others, through each way
# refusal can enter the core: a combinator, a ``SortCase`` and user code.
TP_PARTS = {
    "inc": mono_tp(inc_leaf),
    "mark": mono_tp(SortCase(Tree, _hit_on_even_left)),
    "user": TransformTP(_hit_on_even_left),
    "id": id_reference(),
    "fail": fail_tp(),
}
TU_PARTS = {
    "leaf": mono_tu(leaf_case(lambda t: (t.value,))),
    "odd": mono_tu(SortCase(Tree, _odd_leaf)),
    "user": QueryTU(_odd_leaf),
    "const": const_reference(("c",)),
    "fail": fail_tu(),
}


def _odd_twig(t):
    if t.value % 2:
        return t
    raise StrategyFailure("an even twig")


# Cases of the second sort: a twig case that refuses even twigs, and one
# that takes every twig.
ODD_TWIG_TP = mono_tp(SortCase(Twig, lambda t: Twig(_odd_twig(t).value + 2)))
ODD_TWIG_TU = mono_tu(SortCase(Twig, lambda t: ("twig", _odd_twig(t).value)))
ANY_TWIG_TU = mono_tu(SortCase(Twig, lambda t: ("any twig", t.value)))
ODD_CASE = SortCase(Tree, _odd_leaf)


# Guarded cases: ``on`` names the constructor each ``fn`` is written for,
# and ``fn`` would break on the sort's other constructors (no ``value`` or
# ``label`` there), so every outcome shows that the guard ran first. The
# odd-leaf case also refuses some of its own constructor's terms by raising.
# The leaf-or-tag case is on the sort class, so it is entered at every
# constructor of the sort and refuses the others itself.
GUARDED_TU = {
    "odd leaf": SortCase(Leaf, lambda t: (t.value,) if t.value % 2 else _refuse()),
    "tag": SortCase(Tag, _label),
    "leaf or tag": SortCase(
        Tree, lambda t: (t.value,) if isinstance(t, Leaf) else _label(t) if isinstance(t, Tag) else _refuse()
    ),
}
GUARDED_TP = {
    "inc": SortCase(Leaf, lambda t: Leaf(t.value + 1)),
    "relabel": SortCase(Tag, lambda t: Tag("hit", t.child)),
}


def guarded_reference(case):
    """A guarded case in its raising formulation: an unguarded case whose
    ``fn`` raises on the constructors outside ``on``."""

    def fn(t):
        if isinstance(t, case.on):
            return case.fn(t)
        raise StrategyFailure("another constructor")

    return SortCase(case.sort, fn)


def _mono_reference(make, deflt, case):
    return adhoc_reference(make, deflt, guarded_reference(case))


def _guarded_pairs():
    for a, case in GUARDED_TU.items():
        mono = _mono_reference(QueryTU, fail_tu(), case)
        yield "mono_tu", ("guarded", a), mono_tu(case), mono, apply_tu
        yield "adhoc_tu", ("const", "guarded", a), adhoc_tu(const_reference(("c",)), case), _mono_reference(
            QueryTU, const_reference(("c",)), case), apply_tu
        yield "adhoc_tu", ("twig", "guarded", a), adhoc_tu(ODD_TWIG_TU, case), _mono_reference(
            QueryTU, ODD_TWIG_TU, case), apply_tu
        yield "choice_tu", ("guarded", a, "odd"), choice_tu(mono_tu(case), TU_PARTS["odd"]), choice_reference(
            QueryTU, mono, TU_PARTS["odd"]), apply_tu
        yield "oncetd_tu", ("guarded", a), oncetd_tu(mono_tu(case)), oncetd_reference(
            QueryTU, one_tu_reference, mono), apply_tu
    for a, case in GUARDED_TP.items():
        mono = _mono_reference(TransformTP, fail_tp(), case)
        yield "mono_tp", ("guarded", a), mono_tp(case), mono, apply_tp
        yield "adhoc_tp", ("id", "guarded", a), adhoc_tp(id_reference(), case), _mono_reference(
            TransformTP, id_reference(), case), apply_tp
        yield "adhoc_tp", ("twig", "guarded", a), adhoc_tp(ODD_TWIG_TP, case), _mono_reference(
            TransformTP, ODD_TWIG_TP, case), apply_tp
    # Two guarded cases on one sort: the merged table tries both.
    odd, tag = GUARDED_TU["odd leaf"], GUARDED_TU["tag"]
    yield "choice_tu", ("guarded", "odd leaf", "tag"), choice_tu(mono_tu(odd), mono_tu(tag)), choice_reference(
        QueryTU, _mono_reference(QueryTU, fail_tu(), odd), _mono_reference(QueryTU, fail_tu(), tag)), apply_tu


def _reference_pairs():
    """(combinator, part names, new strategy, reference strategy, apply)."""
    for a, s in TP_PARTS.items():
        yield "oncetd_tp", a, oncetd_tp(s), oncetd_reference(TransformTP, one_tp_reference, s), apply_tp
    for a, q in TU_PARTS.items():
        yield "oncetd_tu", a, oncetd_tu(q), oncetd_reference(QueryTU, one_tu_reference, q), apply_tu
        for b, q2 in TU_PARTS.items():
            yield "choice_tu", (a, b), choice_tu(q, q2), choice_reference(QueryTU, q, q2), apply_tu
    # nested: a scheme over a one-layer traversal
    yield "oncetd_tp", "all", oncetd_tp(all_tp_reference(TP_PARTS["inc"])), oncetd_reference(
        TransformTP, one_tp_reference, all_tp_reference(TP_PARTS["inc"])), apply_tp

    # Case tables. An adhoc case over a table default of another sort
    # merges into one table, and over a table default of its own sort it
    # replaces the default's case, so its refusal does not fall through.
    # Over disjoint sorts a choice is one merged table; with a sort on
    # both sides the second must still run where the first refuses.
    mark = SortCase(Tree, _hit_on_even_left)
    for a, case in (("inc", inc_leaf), ("mark", mark)):
        merged, merged_ref = adhoc_tp(ODD_TWIG_TP, case), adhoc_reference(TransformTP, ODD_TWIG_TP, case)
        yield "adhoc_tp", ("twig", a), merged, merged_ref, apply_tp
        yield "adhoc_tp", ("twig", a, "mark"), adhoc_tp(merged, mark), adhoc_reference(
            TransformTP, merged_ref, mark), apply_tp
    for a in ("leaf", "odd"):
        q = TU_PARTS[a]
        yield "choice_tu", (a, "twig"), choice_tu(q, ODD_TWIG_TU), choice_reference(
            QueryTU, q, ODD_TWIG_TU), apply_tu
        yield "choice_tu", ("twig", a), choice_tu(ODD_TWIG_TU, q), choice_reference(
            QueryTU, ODD_TWIG_TU, q), apply_tu
        yield "adhoc_tu", (a, "twig", "odd"), adhoc_tu(choice_tu(q, ODD_TWIG_TU), ODD_CASE), adhoc_reference(
            QueryTU, choice_reference(QueryTU, q, ODD_TWIG_TU), ODD_CASE), apply_tu
        yield "adhoc_tu", ("const", a), adhoc_tu(const_reference(("c",)), ODD_CASE), adhoc_reference(
            QueryTU, const_reference(("c",)), ODD_CASE), apply_tu
    yield "choice_tu", ("twig", "any twig"), choice_tu(ODD_TWIG_TU, ANY_TWIG_TU), choice_reference(
        QueryTU, ODD_TWIG_TU, ANY_TWIG_TU), apply_tu
    yield "oncetd_tu", "table", oncetd_tu(choice_tu(ODD_TWIG_TU, TU_PARTS["odd"])), oncetd_reference(
        QueryTU, one_tu_reference, choice_reference(QueryTU, ODD_TWIG_TU, TU_PARTS["odd"])), apply_tu
    yield from _guarded_pairs()


def test_combinators_match_their_raising_reference_formulations():
    """Over random trees, some of them with leaves of a second sort, every
    combinator gives the outcome, result or refusal, of its raising
    formulation, for parts that refuse at some nodes, guarded cases
    included; and each combinator both succeeds and refuses somewhere.
    Choices and adhoc cases over case tables merge into one table, and a
    merged type-preserving table still rejects a case that changes sort. A
    guarded case refuses other constructors as a public call too, and each
    language's focus and host functions, called directly on another
    constructor, still raise."""
    seen = {}
    pairs = list(_reference_pairs())
    for t in sample_trees(80, seed=23) + sample_trees(80, seed=24, twig_chance=0.4):
        for name, parts, new, ref, apply in pairs:
            got = _outcome(apply, new, t)
            assert got == _outcome(apply, ref, t), (name, parts, t)
            seen.setdefault(name, set()).add(got[0])
    assert all(kinds == {"ok", "fail"} for kinds in seen.values()), seen

    assert set(choice_tu(TU_PARTS["odd"], ODD_TWIG_TU)._cases) == {Tree, Twig}
    assert set(adhoc_tu(ODD_TWIG_TU, ODD_CASE)._cases) == {Tree, Twig}
    to_twig = SortCase(Tree, lambda t: Twig(t.value) if isinstance(t, Leaf) else _refuse())
    merged = adhoc_tp(ODD_TWIG_TP, to_twig)
    assert set(merged._cases) == {Tree, Twig}
    for s in (merged, adhoc_reference(TransformTP, ODD_TWIG_TP, to_twig)):
        with pytest.raises(TypeError):
            apply_tp(s, Leaf(1))
        assert apply_tp(s, Twig(1)) == Twig(3)
        assert outcome_tp(s, Node(Leaf(1), Leaf(2))) == ("fail", None)

    two = choice_tu(mono_tu(GUARDED_TU["odd leaf"]), mono_tu(GUARDED_TU["tag"]))
    assert set(two._cases) == {Tree}
    guarded = mono_tu(GUARDED_TU["tag"])
    for t in (Node(Leaf(1), Leaf(2)), Leaf(1), Twig(1)):
        with pytest.raises(StrategyFailure):
            guarded(t)
        with pytest.raises(StrategyFailure):
            apply_tu(guarded, t)
    assert apply_tu(guarded, Tag("a", Leaf(1))) == ("a",)

    from refax import joos, minilet
    from refax.joos import ast as jast
    from refax.minilet import ast as mast

    wrong_constructor = [
        (joos.statement_focus, jast.Return(None)),
        (joos.method_list_host, jast.MethodDeclarationFocus(jast.MethodList(()))),
        (joos.method_list_focus, jast.MethodList(())),
        (minilet.expr_focus, mast.IntLit(0)),
        (minilet.let_defs_host, mast.IntLit(0)),
        (minilet.fundef_list_focus, mast.FunDefList(())),
    ]
    for case, t in wrong_constructor:
        assert t.sort is case.sort and case.on is not object and not isinstance(t, case.on)
        with pytest.raises(StrategyFailure):
            case.fn(t)
        with pytest.raises(StrategyFailure):
            mono_tu(case)(t)


def test_language_name_queries_are_one_case_table_each():
    """Each language's name queries, composed from its sort cases, are one
    case table each, keyed by the sorts of the constructors they cover, so
    each runs as one lookup on ``t.sort``."""
    from refax import joos, minilet
    from refax.joos import ast as jast
    from refax.minilet import ast as mast

    assert set(joos.declared_pairs._cases) == {jast.Statement, jast.MethodDecl, jast.ClassDecl}
    assert set(joos.referenced_names._cases) == {jast.Statement, jast.Expression}
    assert set(minilet.declared_pairs._cases) == {mast.FunDef}
    assert set(minilet.referenced_names._cases) == {mast.Expression}


def _raise(*_):
    raise StrategyFailure("user code refuses")


def _refusing_strategies():
    """Every public combinator, built to refuse at a Node of two even leaves."""
    odd, leaf = TU_PARTS["odd"], TU_PARTS["leaf"]
    big = mono_tp(leaf_case(lambda t: t if t.value >= 7 else _refuse()))
    yield "fail_tp", fail_tp()
    yield "fail_tu", fail_tu()
    yield "map_tu", map_tu(len, fail_tu())
    yield "map_tu", map_tu(_raise, const_reference(1))
    yield "choice_tu", choice_tu(fail_tu(), odd)
    yield "adhoc_tp", adhoc_tp(id_reference(), inc_leaf)
    yield "adhoc_tu", adhoc_tu(const_reference(0), leaf_value)
    yield "mono_tp", mono_tp(inc_leaf)
    yield "mono_tu", mono_tu(leaf_value)
    yield "mono_tu", mono_tu(GUARDED_TU["tag"])
    yield "mono_tp", mono_tp(GUARDED_TP["relabel"])
    yield "oncetd_tp", oncetd_tp(big)
    yield "oncetd_tu", oncetd_tu(odd)
    yield "above_tp", above_tp(TP_PARTS["mark"], odd)
    yield "above_tp", above_tp(big, leaf)
    yield "above_path_tp", above_path_tp(TP_PARTS["mark"], odd)
    yield "above_path_tp", above_path_tp(big, leaf)
    yield "propagate_path_tu", propagate_path_tu((), lambda env: const_reference(env), odd)
    yield "propagate_path_tu", propagate_path_tu((), _raise, odd)
    yield "TransformTP", TransformTP(_raise)
    yield "QueryTU", QueryTU(_raise)


def test_refusal_surfaces_as_strategy_failure():
    """No public call returns the core's refusal sentinel: calling a
    refusing strategy, or applying it, raises ``StrategyFailure``."""
    t = Node(Leaf(2), Leaf(4))
    names = set()
    for name, s in _refusing_strategies():
        names.add(name)
        apply = apply_tp if isinstance(s, TransformTP) else apply_tu
        with pytest.raises(StrategyFailure):
            s(t)
        with pytest.raises(StrategyFailure):
            apply(s, t)
    public = {n for n in dir(strategy) if n.endswith(("_tp", "_tu")) and not n.startswith("_")}
    # The schemes that cannot refuse: refusal of scoped_uses_tu's parts
    # counts as "none".
    assert names >= public - {"apply_tp", "apply_tu", "scoped_uses_tu"}
    assert apply_tu(const_reference(None), t) is None
    assert apply_tu(scoped_uses_tu(fail_tu(), QueryTU(_raise)), t) == ()


def _names(code):
    """The names ``code`` refers to: variables, attributes and imports."""
    for node in ast.walk(code):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_combinator_has_a_caller():
    """Each public function and class of ``refax.strategy`` is reached from
    a refactoring or the benchmark: named in another module of ``src`` or
    in ``bench``, or by a definition in ``strategy.py`` that is reached.
    What nothing runs belongs in ``tests/reference_strategies.py``."""
    root = Path(__file__).resolve().parents[1]
    module = root / "src" / "refax" / "strategy.py"
    defs = {
        node.name: node
        for node in ast.parse(module.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "bench").rglob("*.py")]:
        if path != module:
            reached.update(_names(ast.parse(path.read_text(encoding="utf-8"))))
    todo = [name for name in defs if name in reached]
    while todo:
        for name in _names(defs[todo.pop()]):
            if name in defs and name not in reached:
                reached.add(name)
                todo.append(name)
    unused = sorted(name for name in defs if not name.startswith("_") and name not in reached)
    assert not unused, f"no caller in src or bench: {unused}"


def test_fold_takes_an_update_that_raises_as_no_change():
    """``FocusPath.fold``: where ``update`` raises ``StrategyFailure``, here
    at the first ancestor, the value is left as it was."""
    t = Tag("a", Node(Tag("b", Leaf(1)), Leaf(2)))
    at = next(focus_paths(mono_tu(leaf_value), t))
    calls = []

    def update(tags):
        calls.append(tags)
        if len(calls) == 1:
            raise StrategyFailure("refused at the root")
        return mono_tu(SortCase(Tree, lambda n: tags + (n.tag,)))

    assert at.fold((), update) == ("Node", "Tag")
    assert calls == [(), (), ("Node",)]


def test_strategies_carry_no_instance_dict():
    """A request builds its strategies afresh, so both kinds are slotted:
    neither carries a ``__dict__``."""
    for s in (mono_tp(inc_leaf), oncetd_tp(mono_tp(inc_leaf)), mono_tu(leaf_value),
              choice_tu(mono_tu(leaf_value), fail_tu()), oncetd_tu(mono_tu(leaf_value))):
        assert not hasattr(s, "__dict__"), s
