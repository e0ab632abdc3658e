"""Uniform term protocol for syntax trees.

Every AST in this package implements ``Term``: a node reports the sort
(syntactic category) it belongs to, a constructor tag, its immediate child
terms in left-to-right source order, and its scalar atoms, and it can be
rebuilt with substituted children. The traversal and refactoring layers
depend on this protocol only, never on concrete node shapes; that is what
keeps them language-independent while each language keeps an ordinary
typed AST.

Node classes are declared with the ``node`` decorator, which makes each a
slotted frozen dataclass with a generated ``__init__``, so a node has no
``__dict__`` and is built by writing its slots directly. Field
annotations drive the protocol:

* fields typed as a ``Term`` subclass are single child slots,
* ``X | None`` (X a ``Term`` subclass) is an optional child slot,
* ``tuple[X, ...]`` is a child sequence (or an atom sequence for str/int),
* ``str``/``int``/``bool`` fields are atoms.

A node's sort is a class: the class in its MRO that derives ``Term``
directly (a language's ``Statement``, say, which its statement node
classes derive). A class is hashed and compared by identity, so every sort
dispatch and every ``rebuild`` child check stays cheap.

``Term`` itself declares the one metadata field every node carries, its
source ``span``, which takes no part in the protocol or in structural
equality.

``node`` builds each class's ``children``, ``rebuild`` and ``atoms`` from
these slots when the class is defined (one-layer accessors, as in
Uniplate: Mitchell and Runciman, Haskell'07), so a traversal step or a
dump reads fields directly instead of interpreting the slot table at
every node.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import types
import typing
from operator import attrgetter
from typing import Any, Callable, ClassVar, Sequence, TypeVar, get_args, get_origin

Atom = str | int

# A node's source region as character offsets, end-exclusive.
Offsets = tuple[int, int]


class TermError(Exception):
    """Violation of a term-protocol precondition."""


class ArityMismatch(TermError):
    pass


class SortMismatch(TermError):
    def __init__(self, slot: int, expected: type, got: type) -> None:
        super().__init__(f"child slot {slot} expects sort {sort_name(expected)}, got {sort_name(got)}")
        self.slot = slot


def sort_name(sort: type) -> str:
    """A sort's name in messages: its module and qualified name, since two
    languages may each have a sort class of the same name."""
    return f"{sort.__module__}.{sort.__qualname__}"


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
    # Only each field's own annotation is evaluated, in the module of the
    # class declaring it: ``get_type_hints`` would also evaluate ``Term``'s
    # for every node class, several times the cost at import.
    entries = []
    for f in dataclasses.fields(cls):
        if not f.compare:
            continue  # the span: metadata, outside the protocol
        tp = f.type
        if isinstance(tp, str):
            owner = next(base for base in cls.__mro__ if f.name in inspect.get_annotations(base))
            tp = eval(tp, vars(sys.modules[owner.__module__]))
        kind, arg = _classify(cls, f.name, tp)
        entries.append((kind, f.name, arg))
    return tuple(entries)


@dataclasses.dataclass(frozen=True, init=False)
class Term:
    """Base class for tree nodes exposing the uniform protocol, and owner
    of every node's ``span`` (None for a node not parsed). ``node``
    installs each class's ``__init__``, ``children``, ``rebuild`` and
    ``atoms``; here they are stubs that reject a class declared without
    it. A sort class between ``Term`` and its nodes declares
    ``__slots__ = ()``, so that no node has a ``__dict__``."""

    # Written out: ``dataclass(weakref_slot=True)`` needs Python 3.11.
    __slots__ = ("__weakref__",)

    sort: ClassVar[type[Term]]
    _term_slots: ClassVar[tuple[tuple[int, str, Any], ...]]
    span: Offsets | None = dataclasses.field(default=None, kw_only=True, compare=False, repr=False)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # A class deriving ``Term`` directly is a sort, and its subclasses
        # inherit it. This runs again for the class ``dataclass(slots=True)``
        # builds in place of the given one, so ``sort`` is the final class.
        super().__init_subclass__(**kwargs)
        if Term in cls.__bases__:
            cls.sort = cls

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(f"{self.tag} is not declared with terms.node")

    @property
    def tag(self) -> str:
        return type(self).__name__

    def children(self) -> tuple[Term, ...]:
        """Immediate child terms, left to right."""
        raise TypeError(f"{self.tag} is not declared with terms.node")

    def atoms(self) -> tuple[Atom, ...]:
        """Scalar atoms, in field order; an atom sequence is spliced in."""
        raise TypeError(f"{self.tag} is not declared with terms.node")

    def rebuild(self, new_children: Sequence[Term]) -> Term:
        """Same node with substituted children; tag, atoms, sort and span
        unchanged."""
        raise TypeError(f"{self.tag} is not declared with terms.node")


_T = TypeVar("_T", bound=Term)


def node(cls: type[_T]) -> type[_T]:
    """Declare node class ``cls``: make it a slotted frozen dataclass, then
    install its ``__init__``, its slot table as ``_term_slots`` and the
    ``children``, ``atoms`` and ``rebuild`` built from that table.

    ``__init__``, ``children`` and ``atoms`` are generated as source by
    one ``exec``, in the way ``dataclasses`` writes its methods.
    ``__init__`` takes the dataclass's parameters (the fields in order,
    then ``span``, keyword-only and defaulting to None) and writes each
    field through the ``__set__`` of its slot's descriptor; the dataclass
    one calls ``object.__setattr__`` per field, which is most of the cost
    of building a node. ``children`` and ``atoms`` are each one tuple
    expression over their fields, the cheapest form of the step every
    traversal takes at every node. ``rebuild``, which runs only where a
    pass changes the tree, is a closure over the constructor's fields: it
    checks arity and child sorts against the old children, then calls the
    constructor with the new children, the old atoms and the old span."""
    given, doc = cls, cls.__doc__
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    # ``slots=True`` makes a new class, but the frozen ``__setattr__`` and
    # ``__delattr__`` test ``type(self) is cls`` against the given one:
    # point them at the new class, so that assigning any name raises
    # FrozenInstanceError and the given class can be freed.
    for method in (cls.__setattr__, cls.__delattr__):
        for cell in method.__closure__ or ():
            if cell.cell_contents is given:
                cell.cell_contents = cls
    # dataclasses documents an undocumented class by the signature it finds
    # then, which is Term's rejecting one.
    cls.__doc__ = doc
    table = _slots(cls)
    kinds = {name: kind for kind, name, _ in table}
    # The constructor's parameters: the fields in order, then ``span``,
    # keyword-only. A node field takes no default.
    fields = (*kinds, "span")
    namespace: dict[str, Any] = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
    exec(
        f"def __init__(self, {''.join(f'{name}, ' for name in kinds)}*, span=None):\n"
        + "".join(f"    _set_{name}(self, {name})\n" for name in fields)
        + f"def children(self):\n    return {_tuple_of(kinds, _CHILD, _OPT_CHILD, _CHILD_SEQ)}\n"
        f"def atoms(self):\n    return {_tuple_of(kinds, _ATOM, None, _ATOM_SEQ)}\n",
        namespace,
    )
    namespace["rebuild"] = _rebuild_for(cls, kinds)
    cls._term_slots = table
    for name in ("__init__", "children", "atoms", "rebuild"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls


_sort_of = attrgetter("sort")


def _mismatch(t: Term, new: tuple[Term, ...], old: tuple[Term, ...]) -> TermError:
    """The error for children ``new`` that cannot replace ``old`` in ``t``."""
    if len(new) != len(old):
        return ArityMismatch(f"{t.tag}: expected {len(old)} children, got {len(new)}")
    return next(
        SortMismatch(i, o.sort, n.sort)
        for i, (n, o) in enumerate(zip(new, old))
        if n.sort is not o.sort
    )


def _tuple_of(kinds: dict[str, int], one: int, optional: int | None, seq: int) -> str:
    """A tuple expression of, in field order, the fields of kind ``one``
    (single values), ``optional`` (a value or None) and ``seq`` (tuples,
    spliced in). Runs of single values become one tuple display."""
    parts: list[str] = []
    run: list[str] = []
    for name, kind in kinds.items():
        if kind == one:
            run.append(f"self.{name},")
            continue
        if kind not in (optional, seq):
            continue
        if run:
            parts.append("(" + " ".join(run) + ")")
            run = []
        if kind == optional:
            parts.append(f"(() if self.{name} is None else (self.{name},))")
        else:
            parts.append(f"self.{name}")
    if run:
        parts.append("(" + " ".join(run) + ")")
    return " + ".join(parts) or "()"


def _rebuild_for(cls: type, kinds: dict[str, int]) -> Callable[..., Any]:
    fields = tuple(kinds.items())

    def rebuild(self: Term, new_children: Sequence[Term]) -> Term:
        new = tuple(new_children)
        old = self.children()
        if len(new) != len(old) or list(map(_sort_of, new)) != list(map(_sort_of, old)):
            raise _mismatch(self, new, old)
        args = []
        i = 0
        for name, kind in fields:
            value = getattr(self, name)
            if kind == _CHILD or (kind == _OPT_CHILD and value is not None):
                value = new[i]
                i += 1
            elif kind == _CHILD_SEQ:
                value = new[i : i + len(value)]
                i += len(value)
            args.append(value)
        return cls(*args, span=self.span)

    return rebuild


def append_child(t: Term, child: Term) -> Term:
    """Extend a sequence node (one whose children form a single homogeneous
    sequence slot) with one more child at the end."""
    seq_slots = [s for s in type(t)._term_slots if s[0] == _CHILD_SEQ]
    if len(seq_slots) != 1:
        raise TermError(f"{t.tag}: not a single-sequence node")
    _, name, elem_cls = seq_slots[0]
    if child.sort is not elem_cls.sort:
        raise SortMismatch(len(getattr(t, name)), elem_cls.sort, child.sort)
    return dataclasses.replace(t, **{name: getattr(t, name) + (child,)})


def dump(t: Term) -> str:
    """Deterministic indented dump of a term: tag, atoms, then children."""
    lines: list[str] = []
    _dump_lines(t, 0, lines)
    return "\n".join(lines)


def _dump_lines(t: Term, indent: int, lines: list[str]) -> None:
    # One frame per tree level, and each line is joined once, not once
    # per ancestor.
    head = "  " * indent + type(t).__name__
    atoms = t.atoms()
    if atoms:
        head += "(" + ", ".join(map(str, atoms)) + ")"
    lines.append(head)
    for c in t.children():
        _dump_lines(c, indent + 1, lines)
