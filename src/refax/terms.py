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
* ``tuple[X, ...]`` is a child sequence (or an atom sequence for str),
* ``str``/``int``/``bool`` fields are atoms.

``node`` reads each annotation as the class body evaluated it, so a node
module does not postpone its annotations (no ``from __future__ import
annotations``), and each annotation names a class defined above it; an
annotation left as a string is rejected with a ``TypeError`` naming the
class and the field.

A node's sort is a class: the class in its MRO that derives ``Term``
directly (a language's ``Statement``, say, which its statement node
classes derive). A class is hashed and compared by identity, so every sort
dispatch and every ``rebuild`` child check stays cheap.

``Term`` itself declares the one metadata field every node carries, its
source ``span``, which takes no part in the protocol or in structural
equality.

``node`` builds each class's ``children``, ``rebuild`` and ``atoms`` from
these slots when the class is defined (one-layer accessors, as in
Uniplate: Mitchell and Runciman, Haskell'07), so a traversal step reads
fields directly instead of interpreting the slot table at every node.

``dump`` is also one generated step per class, which writes the node's
line and runs its children's steps, but a class builds its step at its
first dump, not when it is defined: only ``refax ast`` dumps, so every
other request, and the start-up of each, would pay for steps it never
runs. ``with_span`` gives a node another span (a parenthesised
expression's) by calling its class with its field values, and
``append_child`` extends a sequence node the same way.

A class may mark its nodes ``opaque``: each stands for a region of source
text that a parser checked but built no nodes for, and holds the text's
tokens as its atoms. A walk over atoms sees its names; a pass that must
know how they are bound raises ``Opaque`` there.
"""

from __future__ import annotations

import dataclasses
import functools
import types
from operator import attrgetter
from typing import Any, Callable, ClassVar, Sequence, TypeVar, get_args, get_origin

Atom = str | int

# A node's source region as character offsets, end-exclusive.
Offsets = tuple[int, int]


class TermError(Exception):
    """Violation of a term-protocol precondition."""


class ArityMismatch(TermError):
    pass


class Opaque(TermError):
    """A pass that must see inside a node met an opaque one (``Term.opaque``)."""


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
            if args[0] is str:
                return _ATOM_SEQ, str
    if origin is types.UnionType:
        arg, *others = (a for a in get_args(tp) if a is not type(None))
        if not others and isinstance(arg, type) and issubclass(arg, Term):
            return _OPT_CHILD, arg
    raise TypeError(f"{owner.__name__}.{name}: unsupported term field annotation {tp!r}")


def _slots(cls: type) -> tuple[tuple[int, str, Any], ...]:
    entries = []
    for f in dataclasses.fields(cls):
        if not f.compare:
            continue  # the span: metadata, outside the protocol
        kind, arg = _classify(cls, f.name, f.type)
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
    # True for a class of opaque nodes (see the module's docstring).
    opaque: ClassVar[bool] = False
    span: Offsets | None = dataclasses.field(default=None, kw_only=True, compare=False, repr=False)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # A class deriving ``Term`` directly is a sort, and its subclasses
        # inherit it. This runs again for the class ``dataclass(slots=True)``
        # builds in place of the given one, so ``sort`` is the final class.
        super().__init_subclass__(**kwargs)
        if Term in cls.__bases__:
            cls.sort = cls
        # Each class starts with the builder of its own dump step, so that
        # no class runs a step built for its base.
        cls._dump_step = Term._dump_step

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

    def _dump_step(self, pad: str, append: Callable[[str], Any]) -> None:
        """Append this node's dump lines, each after ``pad``. Here it is the
        builder that a class runs at its first dump: it generates the
        class's step (``_dump_step_for``), installs it on the class and
        runs it."""
        cls = type(self)
        if not hasattr(cls, "_term_slots"):
            raise TypeError(f"{self.tag} is not declared with terms.node")
        step = _dump_step_for(cls)
        cls._dump_step = step
        step(self, pad, append)


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
    # A placeholder spares dataclasses a signature docstring; restored below.
    cls.__doc__ = doc or "-"
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    # ``slots=True`` makes a new class, but the frozen ``__setattr__`` and
    # ``__delattr__`` test ``type(self) is cls`` against the given one:
    # point them at the new class, so that assigning any name raises
    # FrozenInstanceError and the given class can be freed.
    for method in (cls.__setattr__, cls.__delattr__):
        for cell in method.__closure__ or ():
            if cell.cell_contents is given:
                cell.cell_contents = cls
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
        elif kind in (optional, seq):
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


def with_span(t: _T, span: Offsets | None) -> _T:
    """``t`` with another span: its class called with its field values,
    which costs less than ``dataclasses.replace``, which reads the
    dataclass's field table at every call."""
    cls = type(t)
    return cls(*_field_values(cls)(t), span=span)


@functools.cache
def _field_values(cls: type) -> Callable[[Term], tuple[Any, ...]]:
    """A getter of a node's field values, in order, built at the first
    ``with_span`` of its class."""
    names = [name for _, name, _ in cls._term_slots]
    if len(names) == 1:  # a getter of one name returns the value itself
        get = attrgetter(*names)
        return lambda t: (get(t),)
    return attrgetter(*names) if names else lambda t: ()


def append_child(t: Term, child: Term) -> Term:
    """Extend a sequence node (one whose children form a single homogeneous
    sequence slot) with one more child at the end."""
    seq_slots = [s for s in type(t)._term_slots if s[0] == _CHILD_SEQ]
    if len(seq_slots) != 1:
        raise TermError(f"{t.tag}: not a single-sequence node")
    ((_, name, elem_cls),) = seq_slots
    if child.sort is not elem_cls.sort:
        raise SortMismatch(len(getattr(t, name)), elem_cls.sort, child.sort)
    cls = type(t)
    values = [
        value + (child,) if slot[1] == name else value
        for slot, value in zip(cls._term_slots, _field_values(cls)(t))
    ]
    return cls(*values, span=t.span)


def dump(t: Term) -> str:
    """Deterministic indented dump of a term: tag, atoms, then children."""
    lines: list[str] = []
    t._dump_step("", lines.append)
    return "\n".join(lines)


def _dump_step_for(cls: type) -> Callable[..., None]:
    """The dump step of node class ``cls``, generated as source in the way
    ``node`` writes ``children`` and ``atoms``: it appends the node's line,
    its tag after ``pad`` and, if it has atoms, their ``str``s in
    parentheses, then runs each child's step two spaces deeper. One frame
    per tree level, and each line is joined once, not once per ancestor."""
    kinds = {name: kind for kind, name, _ in cls._term_slots}
    tag = cls.__name__
    if _ATOM_SEQ in kinds.values():
        # An atom sequence may be empty: join whatever the atoms are.
        head = f"pad + {tag!r} + ('(' + _join(map(str, atoms)) + ')' if atoms else '')"
        body = [f"    atoms = {_tuple_of(kinds, _ATOM, None, _ATOM_SEQ)}\n"]
    else:
        singles = [f"{{self.{name}}}" for name, kind in kinds.items() if kind == _ATOM]
        head = f"f'{{pad}}{tag}({', '.join(singles)})'" if singles else f"pad + {tag!r}"
        body = []
    body.append(f"    append({head})\n")
    steps = []
    for name, kind in kinds.items():
        if kind == _CHILD:
            steps.append(f"    self.{name}._dump_step(pad, append)\n")
        elif kind == _OPT_CHILD:
            steps.append(f"    if self.{name} is not None:\n        self.{name}._dump_step(pad, append)\n")
        elif kind == _CHILD_SEQ:
            steps.append(f"    for child in self.{name}:\n        child._dump_step(pad, append)\n")
    if steps:
        body += ["    pad += '  '\n", *steps]
    namespace: dict[str, Any] = {"_join": ", ".join}
    exec("def _dump_step(self, pad, append):\n" + "".join(body), namespace)
    namespace["_dump_step"].__qualname__ = f"{cls.__qualname__}._dump_step"
    return namespace["_dump_step"]
