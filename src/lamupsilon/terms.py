"""Term algebra of the lambda-upsilon calculus.

Terms are de Bruijn indexed and carry explicit substitutions: a closure
``t[s]`` pairs a term with a pending substitution built from slash
(``a/``, substitute a term for index 0), lift (``⇑(s)``, protect a
substitution under a binder) and shift (``↑``, increment free indices).

All values are immutable with structural equality, so they are safe to
share between workers and to use as dictionary keys.  The size of a term
counts its constructors, with the index ``n`` weighing ``n + 1`` (indices
are conceptually unary numerals, although they are stored as machine
integers).

Each node class is a slotted dataclass (no ``__dict__``) that states its
child layout once, in its ``_children`` method, and every walk reads that
method.  The public constructors check sorts (below), so every node
below a root is well sorted, and only a root can be of the wrong sort or
no node at all.  Each public entry point checks its root once, through
``_of_sort``, and its walk reads ``_children`` unchecked.  ``_nodes``
yields every node once to the folds that do not depend on order.  Every
node class, and the skeletons of ``trees``, inherit equality, hashing,
``repr`` and frozen attributes from one base, ``_Node``: two nodes are
equal when they have the same class and the same code, and the hash is
that of the code.  Terms find equality by one lockstep walk over both
terms that stops at the first difference and does not enter a subterm
the two share; skeletons compare their codes.  Assigning or deleting any
attribute of a node raises ``FrozenInstanceError``.  A term's code is its term code: the pre-order
list of per-node codes, ``n`` for ``Index(n)`` and the class's fixed
negative ``_tag`` for every other node.  A tag fixes its node's number of
children, so the code is a prefix code and determines the term.  The code
holds ints only, so hashes repeat across interpreters, and it and
``repr`` are built with explicit stacks, so depth is limited by memory
only, never by the recursion limit.

Each node class has two ways in.  The public class is checked: ``Index``
takes a non-negative ``int``, and every other class raises ``TypeError``
for a child of the wrong sort, where a field annotated ``Term`` takes a
term and one annotated ``Subst`` a substitution.  The private factories
(``_index``, ``_abs``, ``_app``, ``_closure``, ``_slash``, ``_lift``)
and ``_with_child`` check nothing: they serve the rewriter, the parser
and the sampler, which build well-sorted nodes by construction, at about
two thirds of the public constructor's cost.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields

from . import _int


class _Node:
    """The node protocol shared by every term class and by ``trees.BinTree``:
    equality agrees with the node's code, and hashing and ``repr`` read it."""

    __slots__ = ()

    def _code(self) -> list[int]:
        """The term code: pre-order, ``n`` for ``Index(n)`` and the class's
        ``_tag`` for every other node.  Its own loop: a pre-order generator
        costs it a fifth more."""
        code, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is Index:
                code.append(node.n)
            else:
                code.append(node._tag)
                stack += node._children()[::-1]
        return code

    def __eq__(self, other) -> bool:
        """Same class and same code, found by one lockstep walk over both
        nodes' children that stops at the first difference and takes a
        pair of one shared object as equal without walking it."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a.__class__ is Index and a.n != b.n:
                return False
            stack += zip(a._children(), b._children())
        return True

    def __hash__(self) -> int:
        return hash(tuple(self._code()))  # ints only, so it repeats across runs

    def __repr__(self) -> str:
        """The dataclass-generated ``repr`` text, built with an explicit
        stack and joined once, so it takes linear time at any depth."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            pieces = [f"{item.__class__.__qualname__}("]
            for i, field in enumerate(fields(item)):
                value = getattr(item, field.name)
                nested = isinstance(value, _Node)
                pieces += (f"{', ' if i else ''}{field.name}=", value if nested else repr(value))
            stack += reversed(pieces + [")"])
        return "".join(out)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node_class(cls):
    """A node class as a slotted frozen dataclass that takes ``_Node``'s
    equality, hashing, ``repr`` and frozen attribute errors.  The frozen
    ``__setattr__`` and ``__delattr__`` that ``dataclass`` generates are
    dropped: on a slotted class they name the class as it was before the
    slots, and raise ``TypeError`` for any name that is not a field.  The
    generated ``__init__`` sets fields through ``object``, so it keeps its
    speed, and then runs the class's checks in ``__post_init__``."""
    cls = dataclass(frozen=True, eq=False, repr=False, slots=True)(cls)
    del cls.__setattr__, cls.__delattr__
    return cls


@_node_class
class Index(_Node):
    """De Bruijn index; ``n`` must be an ``int`` (not a ``bool``) and
    non-negative."""

    n: int

    def __post_init__(self) -> None:
        if _int("de Bruijn index n", self.n) < 0:
            raise ValueError("de Bruijn indices must be non-negative")

    def _children(self) -> tuple:
        return ()


@_node_class
class Abs(_Node):
    """Abstraction (binder)."""

    body: Term

    _tag = -1

    def __post_init__(self) -> None:
        if self.body.__class__ not in _TERMS:
            raise _sort_error(self)

    def _children(self) -> tuple:
        return (self.body,)


@_node_class
class App(_Node):
    """Application, left-associative in the concrete syntax."""

    fun: Term
    arg: Term

    _tag = -2

    def __post_init__(self) -> None:
        if self.fun.__class__ not in _TERMS or self.arg.__class__ not in _TERMS:
            raise _sort_error(self)

    def _children(self) -> tuple:
        return (self.fun, self.arg)


@_node_class
class Closure(_Node):
    """A term with a suspended substitution: ``body[sub]``."""

    body: Term
    sub: Subst

    _tag = -3

    def __post_init__(self) -> None:
        if self.body.__class__ not in _TERMS or self.sub.__class__ not in _SUBSTS:
            raise _sort_error(self)

    def _children(self) -> tuple:
        return (self.body, self.sub)


@_node_class
class Slash(_Node):
    """Substitution of ``term`` for index 0."""

    term: Term

    _tag = -4

    def __post_init__(self) -> None:
        if self.term.__class__ not in _TERMS:
            raise _sort_error(self)

    def _children(self) -> tuple:
        return (self.term,)


@_node_class
class Lift(_Node):
    """Substitution adjusted to pass under one binder."""

    sub: Subst

    _tag = -5

    def __post_init__(self) -> None:
        if self.sub.__class__ not in _SUBSTS:
            raise _sort_error(self)

    def _children(self) -> tuple:
        return (self.sub,)


@_node_class
class Shift(_Node):
    """Increment all free indices by one."""

    _tag = -6

    def _children(self) -> tuple:
        return ()


SHIFT = Shift()

Term = Index | Abs | App | Closure
Subst = Slash | Lift | Shift
Node = Term | Subst

_TERMS, _SUBSTS = frozenset(Term.__args__), frozenset(Subst.__args__)
#: Each sort, keyed by the field annotation that names it: its classes and its name.
_SORTS = {"Term": (_TERMS, "a term"), "Subst": (_SUBSTS, "a substitution")}


def _sort_error(node) -> TypeError:
    """The error for the first child of ``node`` not of its field's sort."""
    for field in fields(node):
        child = getattr(node, field.name)
        classes, name = _SORTS[field.type]
        if child.__class__ not in classes:
            kind = node.__class__.__name__
            return TypeError(f"{kind} {field.name} must be {name}, not {child!r}")


def _factory(cls):
    """The unchecked constructor of ``cls``: ``object.__new__`` and the slot
    descriptors' ``__set__``, so it runs neither ``__init__`` nor a check.
    Its callers pass children of the right sorts, and ``_index`` a
    non-negative int."""
    new = object.__new__
    setters = [getattr(cls, field.name).__set__ for field in fields(cls)]
    if len(setters) == 1:
        (set_a,) = setters

        def make(a):
            node = new(cls)
            set_a(node, a)
            return node
    else:
        set_a, set_b = setters

        def make(a, b):
            node = new(cls)
            set_a(node, a)
            set_b(node, b)
            return node
    return make


_index, _abs, _app, _closure, _slash, _lift = map(_factory, (Index, Abs, App, Closure, Slash, Lift))
_FACTORIES = {Abs: _abs, App: _app, Closure: _closure, Slash: _slash, Lift: _lift}

#: A position is the path of 0-based child ordinals from the root, each
#: an index into the node's ``_children()``.
Position = tuple[int, ...]


def _not_a_node(node) -> TypeError:
    """The error for a value that is not a node at all."""
    return TypeError(f"not a lambda-upsilon node: {node!r}")


def _of_sort(value, sort: str):
    """``value``, the root of an argument, if it is a node of ``sort``
    (``"Term"`` or ``"Subst"``); else TypeError, which names the sort for
    a node of the other one."""
    classes, name = _SORTS[sort]
    if value.__class__ in classes:
        return value
    if value.__class__ in _TERMS or value.__class__ in _SUBSTS:
        raise TypeError(f"not {name}: {value!r}")
    raise _not_a_node(value)


def children(node: Node) -> tuple[Node, ...]:
    """Children of a node in canonical order; raises TypeError for a non-node."""
    try:
        return node._children()
    except AttributeError:
        raise _not_a_node(node) from None


def with_child(node: Node, ordinal: int, child: Node) -> Node:
    """Copy of ``node`` with the child at ``ordinal`` replaced, rebuilt by
    the node's class from its children."""
    kids = list(children(node))
    if not 0 <= ordinal < len(kids):
        raise ValueError(f"node {type(node).__name__} has no child {ordinal}")
    kids[ordinal] = child
    return node.__class__(*kids)


def _with_child(node: Node, ordinal: int, child: Node) -> Node:
    """``with_child`` through the unchecked factory, for a valid ``ordinal``
    and a ``child`` of the slot's sort."""
    kids = list(node._children())
    kids[ordinal] = child
    return _FACTORIES[node.__class__](*kids)


def _nodes(term: Node):
    """Yield every node of ``term`` once, checked by ``children``, in no set order."""
    stack = [term]
    while stack:
        node = stack.pop()
        stack += children(node)
        yield node


def size(term: Node) -> int:
    """Constructor count of a term or a substitution; ``size(Index(n)) == n + 1``."""
    return sum(node.n + 1 if node.__class__ is Index else 1 for node in _nodes(term))


def size_sub(sub: Subst) -> int:
    """Constructor count of a substitution; ``size_sub(SHIFT) == 1``."""
    return size(_of_sort(sub, "Subst"))  # same traversal; the size rules coincide


def is_pure(term: Term) -> bool:
    """True iff the term contains no closure anywhere."""
    return not any(node.__class__ is Closure for node in _nodes(_of_sort(term, "Term")))


def iter_subterms(term: Term):
    """Yield ``(position, node)`` pairs in pre-order.

    Pre-order means node before children, fun before arg, body before sub;
    substitution nodes are included.
    """
    stack: list[tuple[Position, Node]] = [((), _of_sort(term, "Term"))]
    while stack:
        pos, node = stack.pop()
        yield pos, node
        kids = node._children()
        for i in range(len(kids) - 1, -1, -1):
            stack.append((pos + (i,), kids[i]))


def _walk(term: Term, position: Position) -> list[Node]:
    """Nodes along ``position``, root first; raises ValueError on an invalid path."""
    path: list[Node] = [_of_sort(term, "Term")]
    for depth, ordinal in enumerate(position):
        kids = path[-1]._children()
        if not 0 <= _int("position ordinal", ordinal) < len(kids):
            raise ValueError(
                f"invalid position {position!r}: no child {ordinal} at depth {depth}"
            )
        path.append(kids[ordinal])
    return path


def subterm_at(term: Term, position: Position) -> Node:
    """Node at ``position``; raises ValueError on an invalid path."""
    return _walk(term, position)[-1]


def replace_at(term: Term, position: Position, replacement: Node) -> Term:
    """Copy of ``term`` with the node at ``position`` replaced; TypeError if
    ``replacement`` does not have the sort of its slot."""
    *spine, _ = _walk(term, position)
    if not position:
        return _of_sort(replacement, "Term")
    new = with_child(spine[-1], position[-1], replacement)  # the one check
    for ordinal, parent in zip(reversed(position[:-1]), reversed(spine[:-1])):
        new = _with_child(parent, ordinal, new)
    return new
