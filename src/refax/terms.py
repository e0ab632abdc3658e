"""Uniform term protocol for syntax trees.

Every AST in this package implements ``Term``: a node reports the sort
(syntactic category) it belongs to, a constructor tag, its immediate child
terms in left-to-right source order, and its scalar atoms, and it can be
rebuilt with substituted children. The traversal and refactoring layers
depend on this protocol only, never on concrete node shapes; that is what
keeps them language-independent while each language keeps an ordinary
typed AST.

Nodes are frozen dataclasses. Field annotations drive the protocol:

* fields typed as a ``Term`` subclass are single child slots,
* ``X | None`` (X a ``Term`` subclass) is an optional child slot,
* ``tuple[X, ...]`` is a child sequence (or an atom sequence for str/int),
* ``str``/``int``/``bool`` fields are atoms,
* fields declared with ``compare=False`` (source spans) are metadata and
  take no part in the protocol or in structural equality.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from itertools import islice
from typing import Any, ClassVar, Sequence, get_args, get_origin, get_type_hints

Atom = str | int


class Sort:
    """Identity of a syntactic category (e.g. the statements of one language).

    Interned: ``Sort(id)`` is the one sort object for ``id``, so equality
    and hashing are object identity, which every sort dispatch and every
    ``rebuild`` child check relies on to stay cheap."""

    __slots__ = ("id",)
    _interned: ClassVar[dict[str, Sort]] = {}

    def __new__(cls, id: str) -> Sort:
        sort = cls._interned.get(id)
        if sort is None:
            sort = super().__new__(cls)
            object.__setattr__(sort, "id", id)
            cls._interned[id] = sort
        return sort

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"Sort({self.id!r})"


class TermError(Exception):
    """Violation of a term-protocol precondition."""


class ArityMismatch(TermError):
    pass


class SortMismatch(TermError):
    def __init__(self, slot: int, expected: Sort, got: Sort) -> None:
        super().__init__(f"child slot {slot} expects sort {expected.id}, got {got.id}")
        self.slot = slot


# Slot kinds, derived once per node class from its field annotations.
_CHILD, _OPT_CHILD, _CHILD_SEQ, _ATOM, _ATOM_SEQ = range(5)


def _classify(owner: type, name: str, tp: Any) -> tuple[int, Any]:
    if isinstance(tp, type) and issubclass(tp, Term):
        return _CHILD, tp
    if tp in (str, int, bool):
        return _ATOM, tp
    origin = get_origin(tp)
    if origin is tuple:
        args = get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            if isinstance(args[0], type) and issubclass(args[0], Term):
                return _CHILD_SEQ, args[0]
            if args[0] in (str, int):
                return _ATOM_SEQ, args[0]
    if origin in (types.UnionType, typing.Union):
        args = [a for a in get_args(tp) if a is not type(None)]
        if len(args) == 1 and isinstance(args[0], type) and issubclass(args[0], Term):
            return _OPT_CHILD, args[0]
    raise TypeError(f"{owner.__name__}.{name}: unsupported term field annotation {tp!r}")


def _slots(cls: type) -> tuple[tuple[int, str, Any], ...]:
    table = cls.__dict__.get("_term_slots")
    if table is None:
        hints = get_type_hints(cls)
        entries = []
        for f in dataclasses.fields(cls):
            if not f.compare:
                continue  # metadata, outside the protocol
            kind, arg = _classify(cls, f.name, hints[f.name])
            entries.append((kind, f.name, arg))
        table = tuple(entries)
        cls._term_slots = table  # type: ignore[attr-defined]
    return table


class Term:
    """Base class for tree nodes exposing the uniform protocol."""

    sort: ClassVar[Sort]

    @property
    def tag(self) -> str:
        return type(self).__name__

    def children(self) -> tuple[Term, ...]:
        out: list[Term] = []
        for kind, name, _ in _slots(type(self)):
            value = getattr(self, name)
            if kind == _CHILD:
                out.append(value)
            elif kind == _OPT_CHILD:
                if value is not None:
                    out.append(value)
            elif kind == _CHILD_SEQ:
                out.extend(value)
        return tuple(out)

    def atoms(self) -> tuple[Atom, ...]:
        out: list[Atom] = []
        for kind, name, _ in _slots(type(self)):
            value = getattr(self, name)
            if kind == _ATOM:
                out.append(value)
            elif kind == _ATOM_SEQ:
                out.extend(value)
        return tuple(out)

    def rebuild(self, new_children: Sequence[Term]) -> Term:
        """Same node with substituted children; tag, atoms and sort unchanged."""
        old = self.children()
        new = tuple(new_children)
        if len(new) != len(old):
            raise ArityMismatch(
                f"{self.tag}: expected {len(old)} children, got {len(new)}"
            )
        for i, (n, o) in enumerate(zip(new, old)):
            if n.sort != o.sort:
                raise SortMismatch(i, o.sort, n.sort)
        it = iter(new)
        replaced: dict[str, Any] = {}
        for kind, name, _ in _slots(type(self)):
            value = getattr(self, name)
            if kind == _CHILD:
                replaced[name] = next(it)
            elif kind == _OPT_CHILD:
                replaced[name] = next(it) if value is not None else None
            elif kind == _CHILD_SEQ:
                replaced[name] = tuple(islice(it, len(value)))
        return dataclasses.replace(self, **replaced)


def append_child(t: Term, child: Term) -> Term:
    """Extend a sequence node (one whose children form a single homogeneous
    sequence slot) with one more child at the end."""
    seq_slots = [s for s in _slots(type(t)) if s[0] == _CHILD_SEQ]
    if len(seq_slots) != 1:
        raise TermError(f"{t.tag}: not a single-sequence node")
    _, name, elem_cls = seq_slots[0]
    if child.sort != elem_cls.sort:
        raise SortMismatch(len(getattr(t, name)), elem_cls.sort, child.sort)
    return dataclasses.replace(t, **{name: getattr(t, name) + (child,)})


def dump(t: Term, indent: int = 0) -> str:
    """Deterministic indented dump of a term: tag, atoms, then children."""
    lines: list[str] = []
    _dump_lines(t, indent, lines)
    return "\n".join(lines)


def _dump_lines(t: Term, indent: int, lines: list[str]) -> None:
    # One frame per tree level, and each line is joined once, not once
    # per ancestor.
    head = "  " * indent + t.tag
    atoms = t.atoms()
    if atoms:
        head += "(" + ", ".join(str(a) for a in atoms) + ")"
    lines.append(head)
    for c in t.children():
        _dump_lines(c, indent + 1, lines)
