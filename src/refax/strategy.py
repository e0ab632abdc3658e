"""Strategy combinators: generic transformations and queries over terms.

Two kinds of generic functions exist. A type-preserving strategy
(``TransformTP``) rewrites a term into a term of the same sort; a
type-unifying strategy (``QueryTU``) computes a value of one fixed result
type from a term of any sort. Both are partial: they signal refusal by
raising ``StrategyFailure``, which ``choice`` and the traversal schemes
treat as ordinary control flow, not as a fault.

``all``/``one`` work one layer deep, over immediate children only. The
recursive schemes ``oncetd`` and ``oncebu`` are composed from them;
``above`` and ``propagate``, which carry a result up or an environment
down, are single passes of their own. All are deterministic: children
are tried left to right and the first success wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar

from .terms import Sort, Term

A = TypeVar("A")
B = TypeVar("B")
C = TypeVar("C")
E = TypeVar("E")


class StrategyFailure(Exception):
    """Refusal of a strategy at a term. Recoverable control flow."""


@dataclass(frozen=True)
class TransformTP:
    """Type-preserving generic function: any term to a term of the same sort."""

    run: Callable[[Term], Term]

    def __call__(self, t: Term) -> Term:
        out = self.run(t)
        if out.sort != t.sort:
            raise TypeError(
                f"type-preserving strategy changed sort {t.sort.id} -> {out.sort.id}"
            )
        return out


@dataclass(frozen=True)
class QueryTU(Generic[A]):
    """Type-unifying generic function: any term to one fixed result type."""

    run: Callable[[Term], A]

    def __call__(self, t: Term) -> A:
        return self.run(t)


@dataclass(frozen=True)
class MonoidSpec(Generic[A]):
    """Unit and associative combine operation used to fold child results."""

    empty: A
    combine: Callable[[A, A], A]


@dataclass(frozen=True)
class SortCase(Generic[A]):
    """A partial function defined only on terms of one declared sort.

    ``fn`` may still refuse individual terms of that sort by raising
    ``StrategyFailure``.
    """

    sort: Sort
    fn: Callable[[Term], A]


def apply_tp(s: TransformTP, t: Term) -> Term:
    return s(t)


def apply_tu(q: QueryTU[A], t: Term) -> A:
    return q(t)


def id_tp() -> TransformTP:
    return TransformTP(lambda t: t)


def fail_tp() -> TransformTP:
    def run(t: Term) -> Term:
        raise StrategyFailure("failTP")

    return TransformTP(run)


def fail_tu() -> QueryTU[Any]:
    def run(t: Term) -> Any:
        raise StrategyFailure("failTU")

    return QueryTU(run)


def const_tu(value: A) -> QueryTU[A]:
    return QueryTU(lambda t: value)


def seq_tp(s1: TransformTP, s2: TransformTP) -> TransformTP:
    return TransformTP(lambda t: s2(s1(t)))


def let_tu(q: QueryTU[A], k: Callable[[A], QueryTU[B]]) -> QueryTU[B]:
    """Monadic bind: run ``q``, feed its result to ``k``, run the produced
    query on the same input term."""
    return QueryTU(lambda t: k(q(t))(t))


def map_tu(f: Callable[[A], B], q: QueryTU[A]) -> QueryTU[B]:
    return let_tu(q, lambda a: const_tu(f(a)))


def choice_tp(s1: TransformTP, s2: TransformTP) -> TransformTP:
    def run(t: Term) -> Term:
        try:
            return s1(t)
        except StrategyFailure:
            return s2(t)

    return TransformTP(run)


def choice_tu(q1: QueryTU[A], q2: QueryTU[A]) -> QueryTU[A]:
    def run(t: Term) -> A:
        try:
            return q1(t)
        except StrategyFailure:
            return q2(t)

    return QueryTU(run)


def comb_tu(o: Callable[[A, B], C], q1: QueryTU[A], q2: QueryTU[B]) -> QueryTU[C]:
    """Lift a binary operation: both queries see the same input term."""
    return QueryTU(lambda t: o(q1(t), q2(t)))


def all_tp(s: TransformTP) -> TransformTP:
    def run(t: Term) -> Term:
        return t.rebuild(tuple(s(c) for c in t.children()))

    return TransformTP(run)


def one_tp(s: TransformTP) -> TransformTP:
    def run(t: Term) -> Term:
        cs = t.children()
        for i, c in enumerate(cs):
            try:
                new = s(c)
            except StrategyFailure:
                continue
            return t.rebuild(cs[:i] + (new,) + cs[i + 1 :])
        raise StrategyFailure("oneTP: no child succeeded")

    return TransformTP(run)


def all_tu(monoid: MonoidSpec[A], q: QueryTU[A]) -> QueryTU[A]:
    def run(t: Term) -> A:
        acc = monoid.empty
        for c in t.children():
            acc = monoid.combine(acc, q(c))
        return acc

    return QueryTU(run)


def one_tu(q: QueryTU[A]) -> QueryTU[A]:
    def run(t: Term) -> A:
        for c in t.children():
            try:
                return q(c)
            except StrategyFailure:
                continue
        raise StrategyFailure("oneTU: no child succeeded")

    return QueryTU(run)


def adhoc_tp(deflt: TransformTP, case: SortCase[Term]) -> TransformTP:
    def run(t: Term) -> Term:
        if t.sort == case.sort:
            return case.fn(t)
        return deflt(t)

    return TransformTP(run)


def adhoc_tu(deflt: QueryTU[A], case: SortCase[A]) -> QueryTU[A]:
    def run(t: Term) -> A:
        if t.sort == case.sort:
            return case.fn(t)
        return deflt(t)

    return QueryTU(run)


def mono_tp(case: SortCase[Term]) -> TransformTP:
    return adhoc_tp(fail_tp(), case)


def mono_tu(case: SortCase[A]) -> QueryTU[A]:
    return adhoc_tu(fail_tu(), case)


def oncetd_tp(s: TransformTP) -> TransformTP:
    """Apply ``s`` once, at the first node in preorder where it succeeds."""

    def run(t: Term) -> Term:
        try:
            return s(t)
        except StrategyFailure:
            return descend(t)

    scheme = TransformTP(run)
    descend = one_tp(scheme)
    return scheme


def oncetd_tu(q: QueryTU[A]) -> QueryTU[A]:
    def run(t: Term) -> A:
        try:
            return q(t)
        except StrategyFailure:
            return descend(t)

    scheme = QueryTU(run)
    descend = one_tu(scheme)
    return scheme


def oncebu_tp(s: TransformTP) -> TransformTP:
    """Apply ``s`` once, at the first node in postorder where it succeeds."""

    def run(t: Term) -> Term:
        try:
            return descend(t)
        except StrategyFailure:
            return s(t)

    scheme = TransformTP(run)
    descend = one_tp(scheme)
    return scheme


def oncebu_tu(q: QueryTU[A]) -> QueryTU[A]:
    def run(t: Term) -> A:
        try:
            return descend(t)
        except StrategyFailure:
            return q(t)

    scheme = QueryTU(run)
    descend = one_tu(scheme)
    return scheme


def above_tp(s: TransformTP, below: QueryTU[Any]) -> TransformTP:
    """Transform the deepest node at which ``s`` succeeds while ``below``
    succeeds somewhere strictly inside that node's subtree (the node itself
    is excluded from the ``below`` check). Candidates are tried bottom-up,
    children left to right, and the first success wins; a node where ``s``
    refuses passes the candidacy on to its ancestors.

    One bottom-up pass: each node reports its rewritten self, or a refusal
    together with whether ``below`` held strictly inside it. So each node
    is visited once and ``below`` runs at most once per node, O(n) in all
    rather than a fresh probe of every candidate's subtree, O(n·depth)."""

    def holds(t: Term) -> bool:
        try:
            below(t)
        except StrategyFailure:
            return False
        return True

    def go(t: Term) -> tuple[Term | None, bool]:
        cs = t.children()
        met = False
        for i, c in enumerate(cs):
            new, inside = go(c)
            if new is not None:
                return t.rebuild(cs[:i] + (new,) + cs[i + 1 :]), True
            met = met or inside or holds(c)
        if met:
            try:
                return s(t), True
            except StrategyFailure:
                pass
        return None, met

    def run(t: Term) -> Term:
        new, _ = go(t)
        if new is None:
            raise StrategyFailure("aboveTP: no candidate with the condition met below")
        return new

    return TransformTP(run)


def propagate_tu(
    e0: E,
    update: Callable[[E], QueryTU[E]],
    select: Callable[[E], QueryTU[A]],
) -> QueryTU[A]:
    """Top-down search threading an environment. At each node, ``select``
    is tried first with the current environment; on refusal the environment
    is updated via ``update`` (refusal there means "no change") and the
    children are searched left to right."""

    def go(t: Term, env: E) -> A:
        try:
            return select(env)(t)
        except StrategyFailure:
            pass
        try:
            env = update(env)(t)
        except StrategyFailure:
            pass
        for c in t.children():
            try:
                return go(c, env)
            except StrategyFailure:
                continue
        raise StrategyFailure("propagateTU: selection failed everywhere")

    return QueryTU(lambda t: go(t, e0))
