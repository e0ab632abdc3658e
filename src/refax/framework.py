"""Language-independent refactoring layer.

Built on the strategy combinators: operations to place, select, replace
and mark a focus; the name analyses (free names, bound typed names along
the path to a focus, typed free names); the abstraction-signature
interface a language instance fills in; the two refactorings composed
from them, extraction and introduction; and the ``Language`` record
through which the CLI uses one language instance.

A refactoring acts at one focus, so the steps that only need the focus
walk the path from the root to it, not the whole tree: placing the focus
by span enters only the children whose span encloses it,
``bound_typed_names`` folds the environment over the focus's ancestors
(``strategy.propagate_path_tu``), and ``mark_host`` searches and rebuilds
only the path to the focus (``strategy.above_path_tp``).

A language participates by providing a handful of ``SortCase`` values
(recognisers for its focus wrappers, a host marker), each naming the
constructor it accepts so that the passes refuse every other node
without raising; ``QueryTU`` analyses for declared and referenced names;
and an ``AbstractionSignature`` with the constructors for its
abstraction form (methods, functions, ...). Free names are one scoped
top-down pass of those two analyses (``strategy.scoped_uses_tu``). Its
``Language`` record adds the parser, printer and checker, and the focus
kinds (kind name to sort and wrapper class) that focus placement works
from. The printer and the checker reject a focus wrapper where their own
dispatch meets one (``FocusPresent``), without a separate pass.
Everything here manipulates terms only through the uniform protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .lexing import Span, SpanMismatch
from .strategy import (
    QueryTU,
    SortCase,
    StrategyFailure,
    above_path_tp,
    apply_tp,
    apply_tu,
    choice_tu,
    map_tu,
    mono_tp,
    mono_tu,
    oncetd_tp,
    oncetd_tu,
    propagate_path_tu,
    scoped_uses_tu,
)
from .terms import Sort, Term, append_child


class RefactoringError(Exception):
    """A refactoring precondition failed; the input program is unchanged."""


class NoFocus(RefactoringError):
    def __init__(self, detail: str = "no focus wrapper present") -> None:
        super().__init__(detail)


class NoHost(RefactoringError):
    def __init__(self, detail: str = "no enclosing host for the focus") -> None:
        super().__init__(detail)


class NameClash(RefactoringError):
    def __init__(self, name: str) -> None:
        super().__init__(f"name {name!r} is already defined or free in the target scope")
        self.name = name


class CheckFailed(RefactoringError):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class UntypedFreeName(RefactoringError):
    def __init__(self, name: str) -> None:
        super().__init__(f"free name {name!r} has no binding in the environment")
        self.name = name


class ReplacementRejected(RefactoringError):
    def __init__(self, detail: str = "focus replacement was rejected") -> None:
        super().__init__(detail)


class ConstructorRejected(RefactoringError):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)


class FocusPresent(Exception):
    """An operation that requires a wrapper-free program saw a focus wrapper."""


@dataclass(frozen=True)
class NameTypePair:
    name: str
    tpe: Any


# Bindings visible at a point, outermost first; the innermost binding of a
# name is the last occurrence.
Environment = tuple[NameTypePair, ...]


def env_lookup(env: Environment, name: str) -> NameTypePair | None:
    for pair in reversed(env):
        if pair.name == name:
            return pair
    return None


@dataclass(frozen=True)
class AbstractionSignature:
    """Name observer and constructors for one language's abstraction form.

    Constructors are partial: they raise ``ConstructorRejected`` for
    arguments outside the form they support. The two fragment converters
    mediate between the focused-fragment kind and the abstraction body /
    application kinds where a language distinguishes them.
    """

    get_abs_name: Callable[[Term], str]
    make_abstraction: Callable[[str, Any, Term], Term]
    make_formals: Callable[[Sequence[NameTypePair]], Any]
    make_application: Callable[[str, Any], Term]
    make_actuals: Callable[[Sequence[NameTypePair]], Any]
    body_from_fragment: Callable[[Term], Term]
    fragment_from_application: Callable[[Term], Term]


# ---------------------------------------------------------------------------
# Focus and scope
# ---------------------------------------------------------------------------

# A language's focus kinds: kind name -> (sort, wrapper class). A wrapper
# class is built from the node it wraps and has the same sort.
FocusKinds = Mapping[str, tuple[Sort, type]]


def wrap_first(
    sort: Sort, accept: Callable[[Term], bool], wrap: Callable[[Term], Term], prog: Term
) -> Term:
    """Rewrite with ``wrap`` the first node of ``sort``, in preorder, that
    ``accept`` admits, in one top-down pass. Raises ``StrategyFailure``
    when no node is admitted."""

    def put(t: Term) -> Term:
        if accept(t):
            return wrap(t)
        raise StrategyFailure("not the selected node")

    return apply_tp(oncetd_tp(mono_tp(SortCase(sort, put))), prog)


def _encloses(outer: Span, inner: Span) -> bool:
    return (outer.line, outer.col) <= (inner.line, inner.col) and (
        inner.end_line, inner.end_col) <= (outer.end_line, outer.end_col)


def _wrap_at_span(sort: Sort, wrapper: Callable[[Term], Term], span: Span, prog: Term) -> Term | None:
    """``prog`` with ``wrapper`` around the first node of ``sort``, in
    preorder, whose span is ``span``; None when there is none.

    The search enters only children whose span encloses ``span`` (or that
    have none) and rebuilds only the path to the node, so it costs
    O(depth · branching), not O(n). It finds what
    ``wrap_first(sort, lambda t: t.span == span, wrapper, prog)`` finds
    wherever each child's span lies within its parent's, as the parsers'
    spans do: a subtree it skips holds no node of span ``span``."""

    def go(t: Term) -> Term | None:  # one frame per tree level
        if t.sort is sort and t.span == span:
            return wrapper(t)
        cs = t.children()
        for i, c in enumerate(cs):
            if c.span is None or _encloses(c.span, span):
                out = go(c)
                if out is not None:
                    return t.rebuild(cs[:i] + (out,) + cs[i + 1 :])
        return None

    return go(prog)


def select_focus(get_focus: SortCase[Term], prog: Term) -> Term:
    """Unwrap the first (preorder) focus wrapper recognised by ``get_focus``."""
    try:
        return apply_tu(oncetd_tu(mono_tu(get_focus)), prog)
    except StrategyFailure:
        raise NoFocus() from None


def replace_focus(put_focus: SortCase[Term], prog: Term) -> Term:
    """Rewrite the first focus wrapper via ``put_focus``, removing it.

    The search stops at the first wrapper ``put_focus`` recognises; if the
    rewriter then declines, ``ReplacementRejected`` propagates rather than
    the traversal descending further.
    """
    try:
        return apply_tp(oncetd_tp(mono_tp(put_focus)), prog)
    except StrategyFailure:
        raise NoFocus() from None


def mark_host(set_host: SortCase[Term], get_focus: SortCase[Term], prog: Term) -> Term:
    """Wrap the deepest host-acceptable node strictly containing the first
    (preorder) focus. Only the path to the focus is searched and rebuilt
    (``above_path_tp``)."""
    try:
        return apply_tp(above_path_tp(mono_tp(set_host), mono_tu(get_focus)), prog)
    except StrategyFailure:
        raise NoHost() from None


# ---------------------------------------------------------------------------
# Name analyses
# ---------------------------------------------------------------------------

Names = tuple[str, ...]


def free_names(
    declared: QueryTU[Sequence[str]],
    referenced: QueryTU[Sequence[str]],
    t: Term,
) -> Names:
    """Free names of ``t`` in order of first occurrence (preorder): the
    names ``referenced`` yields at a node that ``declared`` yields neither
    there nor at an ancestor within ``t``. Refusal of either query counts
    as "none". One scoped top-down pass (``scoped_uses_tu``)."""
    return apply_tu(scoped_uses_tu(declared, referenced), t)


def bound_typed_names(
    declared: QueryTU[Sequence[NameTypePair]],
    get_focus: SortCase[Term],
    prog: Term,
) -> tuple[Environment, Term]:
    """Collect the name-type pairs declared on the root-to-focus path, in
    top-down order (deeper bindings later), together with the unwrapped
    focused fragment. ``declared`` runs only at the focus's ancestors."""

    def update(env: Environment) -> QueryTU[Environment]:
        return map_tu(lambda pairs: env + tuple(pairs), declared)

    try:
        return apply_tu(propagate_path_tu((), update, mono_tu(get_focus)), prog)
    except StrategyFailure:
        raise NoFocus() from None


def declared_names(declared: QueryTU[Sequence[NameTypePair]]) -> QueryTU[Names]:
    return map_tu(lambda pairs: tuple(p.name for p in pairs), declared)


def free_typed_names(
    declared: QueryTU[Sequence[NameTypePair]],
    referenced: QueryTU[Sequence[str]],
    env: Environment,
    t: Term,
) -> tuple[NameTypePair, ...]:
    """Free names of ``t`` qualified with their types from ``env``; the
    innermost binding of each name wins."""
    out = []
    for name in free_names(declared_names(declared), referenced, t):
        pair = env_lookup(env, name)
        if pair is None:
            raise UntypedFreeName(name)
        out.append(pair)
    return tuple(out)


# ---------------------------------------------------------------------------
# Refactorings
# ---------------------------------------------------------------------------


def introduce(
    declared: QueryTU[Sequence[NameTypePair]],
    referenced: QueryTU[Sequence[str]],
    find2: SortCase[Term],
    sig: AbstractionSignature,
    abstr: Term,
    prog: Term,
) -> Term:
    """Append ``abstr`` to the focused abstraction list, provided its name
    is neither defined by the list nor free within it."""
    lst = select_focus(find2, prog)
    name = sig.get_abs_name(abstr)
    frees = free_names(declared_names(declared), referenced, lst)
    defs = tuple(sig.get_abs_name(a) for a in lst.children())
    if name in frees or name in defs:
        raise NameClash(name)
    extended = append_child(lst, abstr)

    def put(t: Term) -> Term:
        find2.fn(t)  # recognise the wrapper; declines elsewhere
        return extended

    return replace_focus(SortCase(find2.sort, put, find2.on), prog)


def extract(
    declared: QueryTU[Sequence[NameTypePair]],
    referenced: QueryTU[Sequence[str]],
    find: SortCase[Term],
    mark: SortCase[Term],
    find2: SortCase[Term],
    check: Callable[[Term], None],
    sig: AbstractionSignature,
    new_name: str,
    prog: Term,
) -> Term:
    """Extract the focused fragment into a new abstraction.

    The fragment's typed free names become the formal parameters of the
    abstraction and the actual parameters of the application that replaces
    the focus; the abstraction is introduced into the deepest enclosing
    abstraction list. Any precondition failure raises before the program
    is touched, so failure leaves the input intact.
    """
    env, fragment = bound_typed_names(declared, find, prog)
    check(fragment)
    pairs = free_typed_names(declared, referenced, env, fragment)
    formals = sig.make_formals(pairs)
    body = sig.body_from_fragment(fragment)
    abstr = sig.make_abstraction(new_name, formals, body)
    marked = mark_host(mark, find, prog)
    extended = introduce(declared, referenced, find2, sig, abstr, marked)
    actuals = sig.make_actuals(pairs)
    app = sig.make_application(new_name, actuals)

    def put(t: Term) -> Term:
        find.fn(t)  # recognise the fragment wrapper
        return sig.fragment_from_application(app)

    result = replace_focus(SortCase(find.sort, put, find.on), extended)
    try:
        apply_tu(oncetd_tu(choice_tu(mono_tu(find), mono_tu(find2))), result)
    except StrategyFailure:
        return result
    raise RuntimeError("extraction left a focus wrapper behind")


@dataclass(frozen=True)
class Language:
    """One language instance as the CLI uses it.

    ``fragment_kind`` names the focus kind that ``extract`` takes and
    ``list_kind`` the one that ``introduce`` takes when its target list is
    placed by span. A language whose target lists are named instead (JOOS
    method lists, by class) supplies ``focus_class(program, name)``.
    """

    name: str
    parse: Callable[[str], Term]
    parse_decl: Callable[[str], Term]
    pretty: Callable[[Term], str]
    check: Callable[[Term], list[str]]
    extract: Callable[[str, Term], Term]
    introduce: Callable[[Term, Term], Term]
    focus_kinds: FocusKinds
    fragment_kind: str
    list_kind: str
    focus_class: Callable[[Term, str], Term] | None = None

    def place_focus_by_span(self, source: str, kind: str, span: Span) -> Term:
        """Parse ``source`` and wrap the first node of focus kind ``kind``
        whose source span is exactly ``span``."""
        if kind not in self.focus_kinds:
            raise ValueError(f"unknown focus kind {kind!r}")
        sort, wrapper = self.focus_kinds[kind]
        prog = self.parse(source)
        placed = _wrap_at_span(sort, wrapper, span, prog)
        if placed is not None:
            return placed
        candidates: list[Span] = []

        def collect(t: Term) -> None:
            if t.sort == sort and t.span is not None:
                candidates.append(t.span)
            for c in t.children():
                collect(c)

        collect(prog)
        nearest = sorted(
            candidates,
            key=lambda s: (abs(s.line - span.line), abs(s.col - span.col),
                           abs(s.end_line - span.end_line), abs(s.end_col - span.end_col)),
        )[:3]
        shown = ", ".join(str(s) for s in nearest) or "none"
        raise SpanMismatch(
            f"no {kind} node covers exactly {span}; nearest candidate spans: {shown}"
        )
