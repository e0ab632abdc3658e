"""Language-independent refactoring layer.

Built on the strategy combinators: operations to place, replace and mark
a focus; the name analyses (free names, bound typed names along
the path to a focus, typed free names); the abstraction-signature
interface a language instance fills in; introduction; and the
``Language`` record, one per language, whose ``extract`` and
``introduce`` methods are the two refactorings composed from these
phases, written once for every language.

A refactoring acts at one focus, so the steps that only need the focus
work on the path from the root to it, not the whole tree.
``Language.focus_path_by_span`` finds the focus as a ``FocusPath``, by a
``strategy.focus_paths`` walk guided into only the children whose span
encloses it, and ``Language.extract_at`` runs every phase on that path:
the environment is folded over the focus's ancestors, the host is picked
among them and marked with the fragment still in place, ``introduce``
judges and extends its list, and only the path below the host is walked
again and rebuilt, with the application in place of the focus. The CLI's
extract is these two, with no focus wrapper. ``Language.extract`` is the
paper's entry on a program holding one focus wrapper (as
``place_focus_by_span`` builds one): one whole-tree walk checks its
wrappers up front and hands the fragment wrapper's path to
``extract_at``. The phases also exist one by one, each searching from the
root: ``bound_typed_names`` (``strategy.propagate_path_tu``),
``mark_host`` (``strategy.above_path_tp``), ``introduce`` and
``replace_focus``.

A language participates by filling in its ``Language`` record once:
``QueryTU`` analyses for declared and referenced names (free names are
one scoped top-down pass of the two, ``strategy.scoped_uses_tu``), where
each name ``referenced`` yields at a node must be one of that node's
``atoms()``: the ``NameClash`` rule asks whether a name occurs among the
atoms before it runs the free-name pass, and is sound only so; a
host-marking ``SortCase`` that names the constructor it accepts, so that
the passes refuse every other node without raising; an extraction
precondition; an ``AbstractionSignature`` with the constructors for its
abstraction form (methods, functions, ...); its focus kinds (kind name
to wrapper class; a wrapper has the sort of what it wraps), from which
focus placement works and ``focus_case`` derives the focus recognisers;
and the parser, printer and checker. The printer and the checker reject a focus wrapper where
their own dispatch meets one (``FocusPresent``), without a separate pass.
Everything here manipulates terms only through the uniform protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

from .lexing import Lines, Span, SpanMismatch
from .strategy import (
    FocusPath,
    QueryTU,
    SortCase,
    StrategyFailure,
    above_path_tp,
    apply_tp,
    apply_tu,
    choice_tu,
    focus_paths,
    map_tu,
    mono_tp,
    mono_tu,
    oncetd_tp,
    propagate_path_tu,
    scoped_uses_tu,
)
from .terms import Term, append_child


class RefactoringError(Exception):
    """A refactoring precondition failed; the input program is unchanged."""


class NoFocus(RefactoringError):
    def __init__(self) -> None:
        super().__init__("no focus wrapper present")


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


class ConstructorRejected(RefactoringError):
    """A language's abstraction constructor refused its arguments."""


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

# A language's focus kinds: kind name -> wrapper class. A wrapper class is
# built from the node it wraps and has the same sort.
FocusKinds = Mapping[str, type[Term]]


def focus_case(wrapper: type[Term]) -> SortCase[Term]:
    """The recogniser of one focus wrapper class: it yields the node the
    wrapper wraps. Strategies built from it pass every other constructor
    without entering it; called directly, its function raises
    ``StrategyFailure`` on any other node."""

    def unwrap(t: Term) -> Term:
        if isinstance(t, wrapper):
            return t.children()[0]
        raise StrategyFailure(f"no {wrapper.__name__} here")

    return SortCase(wrapper, unwrap)


def wrap_first(
    on: type[Term], accept: Callable[[Term], bool], wrap: Callable[[Term], Term], prog: Term
) -> Term:
    """Rewrite with ``wrap`` the first node of class ``on``, in preorder,
    that ``accept`` admits, in one top-down pass. Raises
    ``StrategyFailure`` when no node is admitted."""

    def put(t: Term) -> Term:
        if accept(t):
            return wrap(t)
        raise StrategyFailure("not the selected node")

    return apply_tp(oncetd_tp(mono_tp(SortCase(on, put))), prog)


def replace_focus(put_focus: SortCase[Term], prog: Term) -> Term:
    """Rewrite the first focus wrapper via ``put_focus``, removing it.
    Raises ``NoFocus`` when ``put_focus`` accepts no node.

    The search stops at the first wrapper ``put_focus`` recognises; any
    ``RefactoringError`` the rewriter raises there propagates, rather than
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


def _scope(declared: QueryTU[Sequence[NameTypePair]]) -> Callable[[Environment], QueryTU[Environment]]:
    """The environment update at one ancestor: its declared pairs appended."""

    def update(env: Environment) -> QueryTU[Environment]:
        return map_tu(lambda pairs: env + tuple(pairs), declared)

    return update


def bound_typed_names(
    declared: QueryTU[Sequence[NameTypePair]],
    get_focus: SortCase[Term],
    prog: Term,
) -> tuple[Environment, Term]:
    """Collect the name-type pairs declared on the root-to-focus path, in
    top-down order (deeper bindings later), together with the unwrapped
    focused fragment. ``declared`` runs only at the focus's ancestors."""
    try:
        return apply_tu(propagate_path_tu((), _scope(declared), mono_tu(get_focus)), prog)
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
    """Append ``abstr`` to the first list focus in ``prog``, provided its
    name is neither defined by the list nor free within it (the
    ``NameClash`` rule). One search, and only the path to the list is
    rebuilt. ``Language.extract_at`` makes this call on the marked host
    with the fragment still in place.

    The rule asks about one name, so it is judged as a query for that
    name: the list's definitions first, then a walk that stops at the
    first node whose atoms hold it, and the scoped free-name pass only
    when it occurs. A free name is an atom of the node ``referenced``
    yields it at, so the verdict is that of the free-name pass alone."""
    at = next(focus_paths(mono_tu(find2), prog), None)
    if at is None:
        raise NoFocus()
    name, target = sig.get_abs_name(abstr), at.found
    if name in (sig.get_abs_name(a) for a in target.children()) or (
        _occurs(name, target) and name in free_names(declared_names(declared), referenced, target)
    ):
        raise NameClash(name)
    return at.rebuild(append_child(target, abstr))


def _occurs(name: str, t: Term) -> bool:
    """Whether ``name`` is an atom of a node of ``t``: a walk with an
    explicit stack that stops at the first."""
    stack = [t]
    pop, push = stack.pop, stack.extend
    while stack:
        n = pop()
        if name in n.atoms():
            return True
        push(n.children())
    return False


@dataclass(frozen=True)
class Language:
    """One language instance: its front end, printer and checker, and the
    ingredients from which ``extract`` and ``introduce`` are built:
    ``extract_at`` on the ``FocusPath`` that ``focus_path_by_span`` finds,
    ``extract`` on a program holding one focus wrapper.

    ``declared`` and ``referenced`` are the name queries; ``host`` marks
    the node whose abstraction list receives an extracted abstraction;
    ``extractable`` raises ``CheckFailed`` for a fragment that may not be
    extracted; ``signature`` builds the abstraction and its application.
    ``fragment_kind`` names the focus kind that ``extract`` takes and
    ``list_kind`` the one that ``introduce`` takes; their recognisers
    ``find`` and ``find2`` are derived from ``focus_kinds`` once per
    record. A language whose target lists are named instead of placed by
    span (JOOS method lists, by class) supplies ``focus_class(program,
    name)``.
    """

    name: str
    parse: Callable[[str], Term]
    parse_decl: Callable[[str], Term]
    pretty: Callable[[Term], str]
    check: Callable[[Term], list[str]]
    focus_kinds: FocusKinds
    fragment_kind: str
    list_kind: str
    declared: QueryTU[Sequence[NameTypePair]]
    referenced: QueryTU[Sequence[str]]
    host: SortCase[Term]
    extractable: Callable[[Term], None]
    signature: AbstractionSignature
    focus_class: Callable[[Term, str], Term] | None = None
    find: SortCase[Term] = field(init=False, repr=False, compare=False)
    find2: SortCase[Term] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "find", focus_case(self.focus_kinds[self.fragment_kind]))
        object.__setattr__(self, "find2", focus_case(self.focus_kinds[self.list_kind]))

    def extract(self, new_name: str, prog: Term) -> Term:
        """The paper's entry: extract the fragment under ``prog``'s one focus
        wrapper. One whole-tree walk first finds the wrappers: ``NoFocus``
        without a fragment wrapper, else ``RuntimeError`` with any other
        (the result would keep it); then ``extract_at`` on its path."""
        wrappers = list(focus_paths(choice_tu(mono_tu(self.find), mono_tu(self.find2)), prog))
        at = next((w for w in wrappers if isinstance(w.node, self.find.on)), None)
        if at is None:
            raise NoFocus()
        if len(wrappers) > 1:
            raise RuntimeError("extraction would leave a focus wrapper behind")
        return self.extract_at(new_name, at)

    def extract_at(self, new_name: str, at: FocusPath[Term]) -> Term:
        """Extract ``at.found`` into a new abstraction whose application takes
        the place of ``at.node`` (the fragment, or its wrapper) in the
        program at the root of ``at``'s path.

        The fragment's typed free names become the abstraction's formals and
        the application's actuals; the abstraction goes into the deepest
        enclosing abstraction list under the ``NameClash`` rule, which judges
        the list with the fragment in place. A failed precondition raises
        before the program is touched. No phase searches: ``declared`` is
        folded over ``at``'s ancestors, the host is the deepest one ``host``
        accepts, and it goes to ``introduce`` marked, with the fragment still
        in place, so the application's own call does not make the new name
        occur there. ``at``'s child indices below the host then lead to the
        fragment in the extended host, and only that path and the one above
        the host are rebuilt."""
        declared, referenced, sig = self.declared, self.referenced, self.signature
        fragment = at.found
        env = at.fold((), _scope(declared))
        self.extractable(fragment)
        pairs = free_typed_names(declared, referenced, env, fragment)
        formals = sig.make_formals(pairs)
        abstr = sig.make_abstraction(new_name, formals, sig.body_from_fragment(fragment))
        hosting = mono_tp(self.host)
        host = at.deepest(hosting)
        if host is None:
            raise NoHost()
        depth, marked = host
        app = sig.fragment_from_application(sig.make_application(new_name, sig.make_actuals(pairs)))
        extended = introduce(declared, referenced, self.find2, sig, abstr, marked)
        # Appending moves no child, so the path's indices below the host
        # still lead to the fragment in the extended host.
        below, t = [], extended
        for _, _, i in at.path[depth:]:
            cs = t.children()
            below.append((t, cs, i))
            t = cs[i]
        return at.rebuild(FocusPath(t, t, below).rebuild(app), bottom=depth)

    def introduce(self, decl: Term, prog: Term) -> Term:
        """Append ``decl`` to the focused abstraction list, rejecting name
        clashes."""
        return introduce(self.declared, self.referenced, self.find2, self.signature, decl, prog)

    def place_focus_by_span(self, source: str, kind: str, span: Span) -> Term:
        """Parse ``source`` and wrap the node ``focus_path_by_span`` finds
        in the wrapper class of ``kind``, rebuilding only its path."""
        at = self.focus_path_by_span(source, kind, span)
        return at.rebuild(self.focus_kinds[kind](at.node))

    def focus_path_by_span(self, source: str, kind: str, span: Span) -> FocusPath[Term]:
        """Parse ``source`` and return the ``FocusPath`` of the first node of
        focus kind ``kind`` whose source span is exactly ``span``, the node
        as its ``found``, or raise ``SpanMismatch`` naming the nearest spans
        of that kind: two ``focus_paths`` walks over one span query, the
        first guided by span enclosure. Node spans are offsets, so ``span``
        is converted once through the line table, and a position the
        source does not have matches no node."""
        if kind not in self.focus_kinds:
            raise ValueError(f"unknown focus kind {kind!r}")
        prog = self.parse(source)
        spans = mono_tu(SortCase(self.focus_kinds[kind].sort, attrgetter("span")))
        lines = Lines(source)
        wanted = lines.offsets(span)
        if wanted is not None:
            start, end = wanted

            def encloses(c: Term) -> bool:  # spans nest, so no other child holds it
                s = c.span
                return s is None or (s[0] <= start and end <= s[1])

            for at in focus_paths(spans, prog, encloses):
                if at.found == wanted:
                    return FocusPath(at.node, at.node, at.path)
        nearest = sorted(
            (lines.span(at.found) for at in focus_paths(spans, prog) if at.found is not None),
            key=lambda s: (abs(s.line - span.line), abs(s.col - span.col),
                           abs(s.end_line - span.end_line), abs(s.end_col - span.end_col)),
        )[:3]
        shown = ", ".join(str(s) for s in nearest) or "none"
        raise SpanMismatch(
            f"no {kind} node covers exactly {span}; nearest candidate spans: {shown}"
        )
