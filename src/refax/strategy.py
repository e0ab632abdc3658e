"""Strategy combinators: generic transformations and queries over terms.

Two kinds of generic functions exist. A type-preserving strategy
(``TransformTP``) rewrites a term into a term of the same sort; a
type-unifying strategy (``QueryTU``) computes a value of one fixed result
type from a term of any sort. Both are partial: a strategy may refuse a
term, and ``choice_tu`` and the traversal schemes treat that refusal as
ordinary control flow, not as a fault.

This module keeps the combinators that the refactorings and their
benchmark run. The rest of the vocabulary of Lämmel and Visser (*Typed
Combinators for Generic Traversal*, PADL'02), among them ``id``,
``seq``, ``let``, ``comb``, ``fix``, the one-layer ``all``/``one`` and
``oncebu``, is defined in ``tests/reference_strategies.py``, in the
raising style, as the reference the tests check these combinators
against.

Inside the core, refusal is a value, as ``mzero`` is in the monadic
combinators of that paper. Every strategy holds a non-raising ``_attempt``
that returns a private sentinel when it refuses; each combinator is
written once against it, branches on the sentinel and calls its parts'
``_attempt`` directly. ``StrategyFailure`` appears only at the edges of
the core:

* calling a strategy, or ``apply_tp``/``apply_tu``, raises it on refusal;
* user code may refuse by raising it: the ``run`` of
  ``TransformTP``/``QueryTU``, ``SortCase.fn``, and the functions handed
  to ``map_tu`` and ``propagate_path_tu``. The core catches it once,
  where that code is entered.

So a pass constructs no exception for the nodes its parts refuse. A
type-preserving strategy is checked for a changed sort (``TypeError``)
where user code enters, the only place a sort can change.

Type cases dispatch by sort, as in Strafunski (Lämmel and Visser, *A
Strafunski Application Letter*, PADL'03). ``mono_*`` carries a case table
``{sort: case}`` and refuses every other sort; ``adhoc_*`` over a table
adds its case to a copy of the table; ``choice_tu`` of two tables is one
table, whose entry for a sort both sides list is the choice of the two
cases. A sort is a class, hashed by identity, so a composed type case
such as a language's three-way ``declared`` query is one identity-hashed
lookup on ``t.sort``, not a chain of closures. A ``SortCase`` names one
class, ``on``: a sort class covers every constructor of that sort, and a
node class only itself. Its entry is keyed by ``on``'s sort and tests
``isinstance`` before entering the case, so it refuses the sort's other
constructors as a value, and a recogniser of one wrapper class, run at
every node of its sort, constructs no exception at the nodes it passes.

The recursive scheme ``scoped_uses`` recurses through one Python frame
per tree level, with its one-layer step written into that frame. All
schemes are deterministic: children are tried left to right and the
first success wins. ``focus_paths`` finds nodes as a zipper does
(Huet, JFP'97; Adams, *Scrap Your Zippers*, WGP'10): one walk with an
explicit stack yields each node where a strategy succeeds, in preorder, as
a ``FocusPath`` that keeps only the path to it, so its ancestors can be
folded over, one picked and the path rebuilt without visiting the rest.
``oncetd``, ``above_path`` and ``propagate_path`` are its instances, as
are span placement and its ``SpanMismatch`` scan in ``framework``, so they
spend no Python frame per tree level; placement passes a guide that keeps
the walk out of the subtrees that cannot hold its span. ``scoped_uses``
is the free-name scheme: the names a use query yields outside the scope
of every binder a bind query yields, in one top-down pass that keeps the
names in scope in a count map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterator, Sequence, TypeVar

from .terms import Opaque, Term, sort_name

A = TypeVar("A")
B = TypeVar("B")
E = TypeVar("E")

# What an ``_attempt`` returns when it refuses. Never leaves this module.
_FAIL: Any = object()

Attempt = Callable[[Term], Any]
Cases = dict[type, Attempt]


class StrategyFailure(Exception):
    """Refusal of a strategy at a term, as seen from outside the core."""


class _Strategy:
    __slots__ = ("_attempt", "_cases")

    _attempt: Attempt
    # The case table of a strategy that refuses every sort outside it, or
    # None. Such a strategy is one lookup on ``t.sort``, and ``adhoc_*``
    # and ``choice_tu`` over tables build a table, not a chain of closures.
    _cases: Cases | None

    def __call__(self, t: Term) -> Any:
        out = self._attempt(t)
        if out is _FAIL:
            raise StrategyFailure(f"{type(self).__name__} refused {t.tag}")
        return out


def _sort_changed(t: Term, out: Term) -> TypeError:
    return TypeError(f"type-preserving strategy changed sort {sort_name(t.sort)} -> {sort_name(out.sort)}")


def _enter_tp(run: Callable[[Term], Term], on: type = object) -> Attempt:
    """User code of a type-preserving strategy, as an attempt. It refuses a
    term of a constructor outside ``on`` without entering ``run``."""

    def attempt(t: Term) -> Any:
        if not isinstance(t, on):
            return _FAIL
        try:
            out = run(t)
        except StrategyFailure:
            return _FAIL
        if out.sort is not t.sort:
            raise _sort_changed(t, out)
        return out

    return attempt


def _enter_tu(run: Callable[[Term], Any], on: type = object) -> Attempt:
    """User code of a type-unifying strategy, as an attempt; ``on`` as for
    ``_enter_tp``."""

    def attempt(t: Term) -> Any:
        if not isinstance(t, on):
            return _FAIL
        try:
            return run(t)
        except StrategyFailure:
            return _FAIL

    return attempt


class TransformTP(_Strategy):
    """Type-preserving generic function: any term to a term of the same sort.

    ``run`` may refuse a term by raising ``StrategyFailure``."""

    __slots__ = ()

    def __init__(self, run: Callable[[Term], Term]) -> None:
        self._attempt = _enter_tp(run)
        self._cases = None


class QueryTU(_Strategy, Generic[A]):
    """Type-unifying generic function: any term to one fixed result type.

    ``run`` may refuse a term by raising ``StrategyFailure``."""

    __slots__ = ()

    def __init__(self, run: Callable[[Term], A]) -> None:
        self._attempt = _enter_tu(run)
        self._cases = None


def _tp(attempt: Attempt, cases: Cases | None = None) -> TransformTP:
    """A combinator's result: ``attempt`` already follows the core's rules,
    and ``cases``, if given, is the table it dispatches on."""
    s = object.__new__(TransformTP)
    s._attempt, s._cases = attempt, cases
    return s


def _tu(attempt: Attempt, cases: Cases | None = None) -> QueryTU[Any]:
    q: QueryTU[Any] = object.__new__(QueryTU)
    q._attempt, q._cases = attempt, cases
    return q


def _table(make: Callable[[Attempt, Cases], Any], cases: Cases) -> Any:
    """The strategy that runs ``cases[t.sort]`` and refuses other sorts."""
    get = cases.get

    def attempt(t: Term) -> Any:
        case = get(t.sort)
        return _FAIL if case is None else case(t)

    return make(attempt, cases)


@dataclass(frozen=True)
class SortCase(Generic[A]):
    """A partial function defined only on the terms of class ``on``: every
    constructor of a sort, when ``on`` is that sort's class, or one
    constructor, when it is a node class.

    ``fn`` may still refuse individual terms by raising
    ``StrategyFailure``. ``mono_*`` and ``adhoc_*`` enter ``fn`` only on
    instances of ``on`` and refuse the sort's other constructors as a
    value, so a recogniser that accepts one wrapper class costs no
    exception at the nodes it passes.
    """

    on: type[Term]
    fn: Callable[[Term], A]

    @property
    def sort(self) -> type[Term]:
        return self.on.sort


def apply_tp(s: TransformTP, t: Term) -> Term:
    return s(t)


def apply_tu(q: QueryTU[A], t: Term) -> A:
    return q(t)


def _refuse(t: Term) -> Any:
    return _FAIL


def fail_tp() -> TransformTP:
    return _tp(_refuse, {})


def fail_tu() -> QueryTU[Any]:
    return _tu(_refuse, {})


def map_tu(f: Callable[[A], B], q: QueryTU[A]) -> QueryTU[B]:
    first = q._attempt

    def attempt(t: Term) -> Any:
        a = first(t)
        if a is _FAIL:
            return a
        try:
            return f(a)
        except StrategyFailure:
            return _FAIL

    return _tu(attempt)


def _either(first: Attempt, second: Attempt) -> Attempt:
    def attempt(t: Term) -> Any:
        out = first(t)
        return second(t) if out is _FAIL else out

    return attempt


def choice_tu(q1: QueryTU[A], q2: QueryTU[A]) -> QueryTU[A]:
    """Left-biased choice. Over two case tables it is one table: a sort
    only one side lists takes that side's case (the other refuses it), and
    a sort both list takes the choice of the two cases."""
    first, second = q1._cases, q2._cases
    if first is None or second is None:
        return _tu(_either(q1._attempt, q2._attempt))
    cases = dict(second)
    for sort, here in first.items():
        other = cases.get(sort)
        cases[sort] = here if other is None else _either(here, other)
    return _table(_tu, cases)


def _adhoc(make: Callable[..., Any], deflt: _Strategy, sort: type, here: Attempt) -> Any:
    """``here`` on ``sort``, ``deflt`` elsewhere. Over a case table this is
    the table with ``here`` in ``sort``'s entry: the case replaces the
    default there, refusal included."""
    if deflt._cases is not None:
        return _table(make, {**deflt._cases, sort: here})
    other = deflt._attempt

    def attempt(t: Term) -> Any:
        return here(t) if t.sort is sort else other(t)

    return make(attempt)


def adhoc_tp(deflt: TransformTP, case: SortCase[Term]) -> TransformTP:
    return _adhoc(_tp, deflt, case.sort, _enter_tp(case.fn, case.on))


def adhoc_tu(deflt: QueryTU[A], case: SortCase[A]) -> QueryTU[A]:
    return _adhoc(_tu, deflt, case.sort, _enter_tu(case.fn, case.on))


def mono_tp(case: SortCase[Term]) -> TransformTP:
    return adhoc_tp(fail_tp(), case)


def mono_tu(case: SortCase[A]) -> QueryTU[A]:
    return adhoc_tu(fail_tu(), case)


def oncetd_tp(s: TransformTP) -> TransformTP:
    """Apply ``s`` once, at the first node in preorder where it succeeds:
    the first ``FocusPath`` of ``focus_paths``, with only its path rebuilt."""

    def attempt(t: Term) -> Any:
        at = next(focus_paths(s, t), None)
        return _FAIL if at is None else at.rebuild(at.found)

    return _tp(attempt)


def oncetd_tu(q: QueryTU[A]) -> QueryTU[A]:
    def attempt(t: Term) -> Any:
        at = next(focus_paths(q, t), None)
        return _FAIL if at is None else at.found

    return _tu(attempt)


@dataclass(slots=True)
class FocusPath(Generic[A]):
    """A ``node`` as a zipper holds it: what the strategy that picked it
    yielded there (``found``), and its ``path``, each strict ancestor from
    the root (depth 0) down with its children and the index of the child
    entered. The rest of the tree is shared, so work on the path costs its
    length."""

    found: A
    node: Term
    path: list[tuple[Term, tuple[Term, ...], int]]

    def fold(self, e0: E, update: Callable[[E], QueryTU[E]]) -> E:
        """``e0`` extended by ``update`` at each strict ancestor, root
        first; refusal there (or ``StrategyFailure``) means "no change"."""
        env = e0
        for node, _, _ in self.path:
            try:
                new = update(env)._attempt(node)
            except StrategyFailure:
                continue
            if new is not _FAIL:
                env = new
        return env

    def deepest(self, s: TransformTP) -> tuple[int, Term] | None:
        """The depth of the deepest strict ancestor ``s`` accepts, and
        ``s``'s result there; None when ``s`` refuses them all."""
        for depth in range(len(self.path) - 1, -1, -1):
            out = s._attempt(self.path[depth][0])
            if out is not _FAIL:
                return depth, out
        return None

    def rebuild(self, new: Term, bottom: int | None = None) -> Term:
        """The root with ``new`` in place of the node at depth ``bottom``
        (this node by default), rebuilding only the ancestors above it."""
        for node, cs, i in reversed(self.path[:bottom]):
            new = node.rebuild(cs[:i] + (new,) + cs[i + 1 :])
        return new


def focus_paths(
    select: _Strategy, t: Term, enter: Callable[[Term], bool] | None = None
) -> Iterator[FocusPath[Any]]:
    """Every node of ``t`` where ``select`` (a query or a transformation)
    succeeds, in preorder, each as a ``FocusPath`` of its own. One walk,
    with a stack in place of a frame per level, that holds only the path to
    the node it is at; taking the first costs a search that stops there.
    A guide ``enter`` prunes the walk: a child below the root for which it
    is false is skipped with its whole subtree."""
    here, path = select._attempt, []
    node, cs, i = None, (t,), 0  # the root, as the only child of no node
    while True:
        if i < len(cs):
            c = cs[i]
            if enter is not None and path and not enter(c):
                i += 1
                continue
            path.append((node, cs, i))
            out = here(c)
            if out is not _FAIL:
                yield FocusPath(out, c, path[1:])
            node, cs, i = c, c.children(), 0
        elif path:
            node, cs, i = path.pop()
            i += 1
        else:
            return


def above_path_tp(s: TransformTP, below: QueryTU[Any]) -> TransformTP:
    """``s`` at the deepest strict ancestor it accepts of the first node
    in preorder where ``below`` succeeds, on that node's ``FocusPath``:
    only the path above the ancestor is rebuilt, and nothing right of the
    path is visited. It refuses when ``below`` holds nowhere or only at
    the root, or when ``s`` refuses every strict ancestor. The whole-tree
    scheme, which tries every candidate in postorder, is
    ``above_reference`` in ``tests/reference_strategies.py``."""

    def attempt(t: Term) -> Any:
        at = next(focus_paths(below, t), None)
        host = None if at is None else at.deepest(s)
        return _FAIL if host is None else at.rebuild(host[1], bottom=host[0])

    return _tp(attempt)


# The name ``bench/traced.py`` imports for its whole-tree ``above`` pass.
# ROADMAP item 4 moves the benchmark to ``above_path_tp`` and removes this
# alias; ``oncetd_tu``, which no refactoring runs but the benchmark also
# imports, stays in the core until then for the same reason.
above_tp = above_path_tp


def propagate_path_tu(e0: E, update: Callable[[E], QueryTU[E]], select: QueryTU[A]) -> QueryTU[tuple[E, A]]:
    """``select``'s result at the first node in preorder where it succeeds,
    paired with ``e0`` folded with ``update`` over that node's ``FocusPath``:
    once per level, not once per node the search passes."""

    def attempt(t: Term) -> Any:
        at = next(focus_paths(select, t), None)
        return _FAIL if at is None else (at.fold(e0, update), at.found)

    return _tu(attempt)


def _scoped_uses(n: Term, bind_at: Attempt, use_at: Attempt, bound: dict[Any, int], found: dict[Any, None]) -> None:
    """``scoped_uses_tu``'s walk of ``n``, one frame per tree level: a
    module-level function, not a closure, so a call leaves no cycle."""
    if n.opaque:
        raise Opaque(f"{n.tag} holds names no pass has parsed")
    names = bind_at(n)
    if names is _FAIL:
        names = ()
    for name in names:
        bound[name] = bound.get(name, 0) + 1
    used = use_at(n)
    if used is not _FAIL:
        for name in used:
            if name not in bound:
                found.setdefault(name)
    for c in n.children():
        _scoped_uses(c, bind_at, use_at, bound, found)
    for name in names:
        left = bound[name] - 1
        if left:
            bound[name] = left
        else:
            del bound[name]


def scoped_uses_tu(binds: QueryTU[Sequence[A]], uses: QueryTU[Sequence[A]]) -> QueryTU[tuple[A, ...]]:
    """The names ``uses`` yields that no binder scopes over: every name
    used at a node, unless ``binds`` yields it at that node or at one of
    its ancestors, in preorder and once each, at its first such use.
    Refusal of either query counts as "none", so this never refuses; an
    opaque node (``Term.opaque``) raises ``Opaque``, since its names may be
    used or bound in ways its atoms do not tell.

    One top-down pass: ``binds`` and ``uses`` run once per node. The names
    in scope are a count map, raised on entry to a binder and lowered on
    exit, so no scope is copied per binder and deep nesting stays linear."""
    bind_at, use_at = binds._attempt, uses._attempt

    def attempt(t: Term) -> Any:
        found: dict[Any, None] = {}
        _scoped_uses(t, bind_at, use_at, {}, found)
        return tuple(found)

    return _tu(attempt)
