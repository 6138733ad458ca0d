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

Each node class states its child layout once, in its ``_children``
method, and every walk reads that method.  Equality and hashing compare
the term code: the pre-order list of per-node codes, ``n`` for
``Index(n)`` and the class's fixed negative ``_tag`` for every other node.
A tag fixes its node's number of children, so the code is a prefix code
and determines the term.  The code holds ints only, so hashes repeat
across interpreters, and it is read with an explicit stack, so depth is
limited by memory only, never by the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


def _code(node: Node) -> list[int]:
    """The term code of a node: pre-order, ``n`` for ``Index(n)`` and the
    class's ``_tag`` for every other node."""
    code, stack = [], [node]
    while stack:
        node = stack.pop()
        if node.__class__ is Index:
            code.append(node.n)
        else:
            code.append(node._tag)
            stack += node._children()[::-1]
    return code


def _node_eq(self, other) -> bool:
    """Structural equality, shared by every node type: the term codes agree."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or _code(self) == _code(other)


def _node_hash(self) -> int:
    """Structural hash, consistent with ``_node_eq``."""
    return hash(tuple(_code(self)))  # ints only, so it repeats across runs


def _node_repr(self) -> str:
    """The dataclass-generated ``repr`` text, built with an explicit stack
    and joined once, so it takes linear time at any depth; shared by every
    node type and by ``trees.BinTree``."""
    out, stack = [], [self]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        pieces = [f"{item.__class__.__qualname__}("]
        for i, field in enumerate(fields(item)):
            value = getattr(item, field.name)
            shared = type(value).__repr__ is _node_repr
            pieces += (f"{', ' if i else ''}{field.name}=", value if shared else repr(value))
        stack += reversed(pieces + [")"])
    return "".join(out)


@dataclass(frozen=True, repr=False)
class Index:
    """De Bruijn index; ``n`` must be an ``int`` (not a ``bool``) and
    non-negative."""

    n: int

    def __post_init__(self) -> None:
        if self.n.__class__ is not int:
            raise TypeError(f"de Bruijn indices must be ints, not {self.n!r}")
        if self.n < 0:
            raise ValueError("de Bruijn indices must be non-negative")

    def _children(self) -> tuple:
        return ()

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, repr=False)
class Abs:
    """Abstraction (binder)."""

    body: "Term"

    _tag = -1

    def _children(self) -> tuple:
        return (self.body,)

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, repr=False)
class App:
    """Application, left-associative in the concrete syntax."""

    fun: "Term"
    arg: "Term"

    _tag = -2

    def _children(self) -> tuple:
        return (self.fun, self.arg)

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, repr=False)
class Closure:
    """A term with a suspended substitution: ``body[sub]``."""

    body: "Term"
    sub: "Subst"

    _tag = -3

    def _children(self) -> tuple:
        return (self.body, self.sub)

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, repr=False)
class Slash:
    """Substitution of ``term`` for index 0."""

    term: "Term"

    _tag = -4

    def _children(self) -> tuple:
        return (self.term,)

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, repr=False)
class Lift:
    """Substitution adjusted to pass under one binder."""

    sub: "Subst"

    _tag = -5

    def _children(self) -> tuple:
        return (self.sub,)

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, repr=False)
class Shift:
    """Increment all free indices by one."""

    _tag = -6

    def _children(self) -> tuple:
        return ()

    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


SHIFT = Shift()

Term = Index | Abs | App | Closure
Subst = Slash | Lift | Shift
Node = Term | Subst

#: A position is the path of 0-based child ordinals from the root, each
#: an index into the node's ``_children()``.
Position = tuple[int, ...]


def children(node: Node) -> tuple[Node, ...]:
    """Children of a node in canonical order."""
    if not isinstance(node, Node):
        raise TypeError(f"not a lambda-upsilon node: {node!r}")
    return node._children()


def with_child(node: Node, ordinal: int, child: Node) -> Node:
    """Copy of ``node`` with the child at ``ordinal`` replaced, rebuilt by
    the node's class from its children."""
    kids = list(children(node))
    if not 0 <= ordinal < len(kids):
        raise ValueError(f"node {type(node).__name__} has no child {ordinal}")
    kids[ordinal] = child
    return node.__class__(*kids)


def size(term: Term) -> int:
    """Constructor count of a term; ``size(Index(n)) == n + 1``."""
    total = 0
    stack: list[Node] = [term]
    while stack:
        node = stack.pop()
        total += node.n + 1 if node.__class__ is Index else 1
        stack += children(node)
    return total


def size_sub(sub: Subst) -> int:
    """Constructor count of a substitution; ``size_sub(SHIFT) == 1``."""
    return size(sub)  # same traversal; the size rules coincide


def is_pure(term: Term) -> bool:
    """True iff the term contains no closure anywhere."""
    stack: list[Node] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Closure):
            return False
        stack.extend(children(node))
    return True


def iter_subterms(term: Term):
    """Yield ``(position, node)`` pairs in pre-order.

    Pre-order means node before children, fun before arg, body before sub;
    substitution nodes are included.
    """
    stack: list[tuple[Position, Node]] = [((), term)]
    while stack:
        pos, node = stack.pop()
        yield pos, node
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((pos + (i,), kids[i]))


def _walk(term: Term, position: Position) -> list[Node]:
    """Nodes along ``position``, root first; raises ValueError on an invalid path."""
    path: list[Node] = [term]
    for depth, ordinal in enumerate(position):
        kids = children(path[-1])
        if not 0 <= ordinal < len(kids):
            raise ValueError(
                f"invalid position {position!r}: no child {ordinal} at depth {depth}"
            )
        path.append(kids[ordinal])
    return path


def subterm_at(term: Term, position: Position) -> Node:
    """Node at ``position``; raises ValueError on an invalid path."""
    return _walk(term, position)[-1]


def replace_at(term: Term, position: Position, replacement: Node) -> Term:
    """Copy of ``term`` with the node at ``position`` replaced."""
    *spine, _ = _walk(term, position)
    new = replacement
    for ordinal, parent in zip(reversed(position), reversed(spine)):
        new = with_child(parent, ordinal, new)
    return new
