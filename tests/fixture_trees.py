"""Fixture algebra for combinator-law tests: small binary trees over
integers, plus a labelled wrapper used to plant host candidates, all in
one sort (``Tree``) so every strategy applies everywhere; and a leaf of a
second sort (``Twig``, which derives ``Term`` directly and so is its own
sort), for the tests of dispatch by sort; and the tree helpers the tests
share, ``wrap_node`` among them, which puts a focus wrapper around one
node of a program of either language."""

import random

from refax.strategy import SortCase, StrategyFailure, focus_paths, mono_tu
from refax.terms import Term, node


class Tree(Term):
    __slots__ = ()


@node
class Leaf(Tree):
    value: int


@node
class Node(Tree):
    left: Tree
    right: Tree


@node
class Tag(Tree):
    label: str
    child: Tree


@node
class Twig(Term):
    """A leaf of the second sort."""

    value: int


def gen_tree(
    rng: random.Random, depth: int = 4, tag_chance: float = 0.0, twig_chance: float = 0.0
) -> Tree:
    """A random tree; with ``tag_chance`` > 0 some subtrees get wrapped in
    Tag("plain") nodes so shapes vary beyond pure binary, and with
    ``twig_chance`` > 0 some leaves are twigs."""
    if depth <= 0 or rng.random() < 0.3:
        value = rng.randrange(0, 10)
        if twig_chance and rng.random() < twig_chance:
            return Twig(value)
        return Leaf(value)
    if tag_chance and rng.random() < tag_chance:
        return Tag("plain", gen_tree(rng, depth - 1, tag_chance, twig_chance))
    return Node(
        gen_tree(rng, depth - 1, tag_chance, twig_chance),
        gen_tree(rng, depth - 1, tag_chance, twig_chance),
    )


def preorder(t: Tree) -> list[Tree]:
    out = [t]
    for c in t.children():
        out.extend(preorder(c))
    return out


def wrap_node(prog: Term, target: Term, wrapper: type[Term]) -> Term:
    """``prog`` with ``wrapper`` around the node ``target``, found by
    identity, rebuilding only its path: one walk, with no frame per level."""

    def this(t: Term) -> Term:
        if t is target:
            return t
        raise StrategyFailure("not the target")

    at = next(focus_paths(mono_tu(SortCase(wrapper.sort, this)), prog))
    return at.rebuild(wrapper(at.node))


def postorder(t: Tree) -> list[Tree]:
    out = []
    for c in t.children():
        out.extend(postorder(c))
    out.append(t)
    return out


def leaf_case(fn) -> SortCase:
    """Sort case applying ``fn`` to leaves only."""

    def run(t: Tree):
        if isinstance(t, Leaf):
            return fn(t)
        raise StrategyFailure("not a leaf")

    return SortCase(Tree, run)


inc_leaf = leaf_case(lambda t: Leaf(t.value + 1))
leaf_value = leaf_case(lambda t: t.value)


def plant(t: Tree, path: tuple[int, ...], replacement: Tree) -> Tree:
    """Replace the node at a child-index path."""
    if not path:
        return replacement
    cs = t.children()
    i = path[0]
    return t.rebuild(cs[:i] + (plant(cs[i], path[1:], replacement),) + cs[i + 1 :])


def node_at(t: Tree, path: tuple[int, ...]) -> Tree:
    for i in path:
        t = t.children()[i]
    return t


def all_paths(t: Tree, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    out = [prefix]
    for i, c in enumerate(t.children()):
        out.extend(all_paths(c, prefix + (i,)))
    return out
