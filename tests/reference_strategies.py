"""The Strafunski vocabulary of Lämmel and Visser (*Typed Combinators for
Generic Traversal*, PADL'02) in its raising formulation: a strategy
refuses a term by raising ``StrategyFailure``, and each combinator catches
that refusal where its definition says to. ``refax.strategy`` keeps only
what the refactorings run, with refusal passed as a value, and the tests
require its combinators to agree with these on every outcome. A
combinator of both kinds takes ``make`` (``TransformTP`` or ``QueryTU``),
a traversal scheme also ``one`` (``one_tp_reference`` or
``one_tu_reference``).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from refax.strategy import QueryTU, StrategyFailure, TransformTP, oncetd_tu


class Monoid(NamedTuple):
    """Unit and associative combine operation used to fold child results."""

    empty: Any
    combine: Callable[[Any, Any], Any]


def id_reference():
    return TransformTP(lambda t: t)


def const_reference(value):
    return QueryTU(lambda t: value)


def seq_reference(s1, s2):
    return TransformTP(lambda t: s2(s1(t)))


def let_reference(q, k):
    """Monadic bind: run ``q``, feed its result to ``k``, run the produced
    query on the same input term."""
    return QueryTU(lambda t: k(q(t))(t))


def comb_reference(o, q1, q2):
    """Lift a binary operation: both queries see the same input term."""
    return QueryTU(lambda t: o(q1(t), q2(t)))


def fix_reference(f):
    """The recursive query ``q = f(q)``: ``f`` receives ``q`` itself, to
    use in its own definition (typically below ``all_tu_reference``)."""
    q = QueryTU(lambda t: body(t))
    body = f(q)
    return q


def choice_reference(make, s1, s2):
    def run(t):
        try:
            return s1(t)
        except StrategyFailure:
            return s2(t)

    return make(run)


def adhoc_reference(make, deflt, case):
    def run(t):
        if t.sort == case.sort:
            return case.fn(t)
        return deflt(t)

    return make(run)


def all_tp_reference(s):
    return TransformTP(lambda t: t.rebuild(tuple(s(c) for c in t.children())))


def one_tp_reference(s):
    def run(t):
        cs = t.children()
        for i, c in enumerate(cs):
            try:
                new = s(c)
            except StrategyFailure:
                continue
            return t.rebuild(cs[:i] + (new,) + cs[i + 1 :])
        raise StrategyFailure("oneTP: no child succeeded")

    return TransformTP(run)


def all_tu_reference(monoid, q):
    def run(t):
        acc = monoid.empty
        for c in t.children():
            acc = monoid.combine(acc, q(c))
        return acc

    return QueryTU(run)


def one_tu_reference(q):
    def run(t):
        for c in t.children():
            try:
                return q(c)
            except StrategyFailure:
                continue
        raise StrategyFailure("oneTU: no child succeeded")

    return QueryTU(run)


def oncetd_reference(make, one, s):
    def run(t):
        try:
            return s(t)
        except StrategyFailure:
            return descend(t)

    scheme = make(run)
    descend = one(scheme)
    return scheme


def oncebu_reference(make, one, s):
    def run(t):
        try:
            return descend(t)
        except StrategyFailure:
            return s(t)

    scheme = make(run)
    descend = one(scheme)
    return scheme


def above_reference(s, below):
    """The whole-tree ``above`` scheme, O(n·depth): after every child
    refuses, a fresh ``oncetd_tu(below)`` probe over the node's children
    decides whether ``s`` is tried there. So it transforms the first node
    in postorder at which ``s`` succeeds and ``below`` holds strictly
    inside. The probe is ``refax``'s own, which the tests check against
    ``oncetd_reference``; it is used for speed alone."""
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
            return descend(t)
        except StrategyFailure:
            pass
        if not met_below(t):
            raise StrategyFailure("aboveTP: condition not met below")
        return s(t)

    scheme = TransformTP(run)
    descend = one_tp_reference(scheme)
    return scheme


def propagate_reference(e0, update, select):
    def go(t, env):
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
