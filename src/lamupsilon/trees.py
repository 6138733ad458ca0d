"""Plane binary tree skeletons, the size-preserving bijection with terms,
and the exact-size uniform sampler.

A skeleton node has an optional left and an optional right child; the
skeletons with n nodes are counted by Catalan(n), exactly like size-n
terms.  Translating a skeleton (``phi``) costs O(n), so composing it with
Rémy's uniform skeleton generator (``remy_tree``) gives a linear-time
uniform sampler of terms of an exact size.

``sample_term`` is that composition fused into one routine: it computes
the SplitMix64 words of the sample in batches, each with a handful of
big-integer operations over all its words at once (``_words``), reads
them in order in the grafting loop, and translates the grafting arrays
straight to the term, with no ``BinTree`` in between.  It returns the
same term as ``phi(remy_tree(n, rng))`` and leaves ``rng`` in the same
state; ``remy_tree``, ``Rng.below`` and ``phi`` stay as the reference it
is tested against.  At n = 1000 it takes 1.9–2.3 ms, against 2.2–3.4 ms
with one scalar SplitMix64 step per word (medians of alternating runs on
two shared cores, CPython 3.11); the kernel mixes the 2000 words in about
0.3 ms.

Every walk over a ``BinTree`` goes through its shape code: the pre-order
list (left subtree before right) of per-node codes ``2*(has left) + (has
right)``.  It is a prefix code, so it determines the tree.  ``_shape``
reads the code off a tree and ``_from_shape`` builds a tree from one;
``node_count``, the JSON form, ``phi``, ``phi_inv`` and Rémy's leaf
erasure all speak codes, and ``BinTree`` inherits equality and hashing
over its code, and ``repr``, from the term classes' base ``terms._Node``.
Both walks use an explicit stack, so depth is limited by memory only,
never by the recursion limit.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Optional

from . import _int, _member
from .terms import SHIFT, Abs, App, Index, Lift, Shift, Term, _Node, _node_class
from .terms import _abs, _app, _closure, _factory, _index, _lift, _of_sort, _slash


class InvalidSize(ValueError):
    """There is no structure of the requested size."""


@_node_class
class BinTree(_Node):
    """Plane binary tree skeleton; None stands for a missing child, and any
    other child that is not a ``BinTree`` raises TypeError."""

    left: Optional["BinTree"] = None
    right: Optional["BinTree"] = None

    def __post_init__(self) -> None:
        for name, child in (("left", self.left), ("right", self.right)):
            if child is not None and child.__class__ is not BinTree:
                raise TypeError(f"BinTree {name} must be a BinTree or None, not {child!r}")

    def _code(self) -> list[int]:
        return _shape(self)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    __hash__ = _Node.__hash__


LEAF = BinTree()
_bintree = _factory(BinTree)  # unchecked: for children that are skeletons or None


def _shape(root, children=attrgetter("left", "right")) -> list[int]:
    """The shape code of a skeleton: per node ``2*(has left) + (has right)``,
    in pre-order with the left subtree before the right.  ``children`` maps
    a node to its (left, right) pair, with None for no child."""
    codes, stack = [], [root]
    while stack:
        left, right = children(stack.pop())
        codes.append(2 * (left is not None) + (right is not None))
        if right is not None:
            stack.append(right)
        if left is not None:
            stack.append(left)
    return codes


def _from_shape(codes: list[int], make=_bintree):
    """The skeleton of a shape code, built bottom-up by ``make(left, right)``."""
    built: list = []  # a left subtree lies above its sibling
    for code in reversed(codes):
        left = built.pop() if code & 2 else None
        built.append(make(left, built.pop() if code & 1 else None))
    return built[0]


def node_count(tree: BinTree) -> int:
    """Number of nodes of a skeleton, the size of the term ``phi`` gives it."""
    return len(_shape(_member(BinTree, tree)))


def tree_to_json(tree: Optional[BinTree]):
    """Nested ``{"l": ..., "r": ...}`` objects with null for no child."""
    if tree is None:
        return None
    return _from_shape(_shape(_member(BinTree, tree)), lambda left, right: {"l": left, "r": right})


def tree_from_json(data) -> Optional[BinTree]:
    """Inverse of ``tree_to_json``; raises ValueError for a node that is
    not an object with both ``l`` and ``r``."""
    if data is None:
        return None
    try:
        return _from_shape(_shape(data, itemgetter("l", "r")))
    except (KeyError, TypeError) as err:
        raise ValueError(f"each node must be an object with 'l' and 'r': {err!r}") from None


@lru_cache(maxsize=None, typed=True)
def enumerate_trees(n: int) -> tuple[BinTree, ...]:
    """All skeletons with exactly n nodes (there are Catalan(n) of them)."""
    if _int("n", n) <= 0:
        return ()
    if n == 1:
        return (LEAF,)
    out: list[BinTree] = []
    for left_nodes in range(n):
        lefts = enumerate_trees(left_nodes) if left_nodes else (None,)
        rights = enumerate_trees(n - 1 - left_nodes) if n - 1 - left_nodes else (None,)
        out.extend(_bintree(l, r) for l in lefts for r in rights)
    return tuple(out)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """Deterministic 64-bit generator (SplitMix64).

    The stream is a pure function of the seed: state k yields
    ``mix64(seed + (k+1) * golden)``.  Bounded draws use rejection
    sampling, so they are unbiased for every bound up to 2**64.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _int("seed", seed) & _MASK64

    @classmethod
    def derived(cls, seed: int, index: int) -> "Rng":
        """Independent stream ``index`` of a master ``seed``.

        Stream i starts from ``mix64(mix64(seed) + (i+1) * golden)``, so
        results depend only on (seed, index), never on worker layout.
        """
        state = _mix64(_int("seed", seed)) + (_int("index", index) + 1) * _GOLDEN
        return cls(_mix64(state & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), for an int 0 < bound <= 2**64."""
        if not 0 < _int("bound", bound) <= 1 << 64:
            raise ValueError("bound must be in [1, 2**64]")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


#: Words per ``_words`` call in ``sample_term``: bounds its memory at any
#: size.  It covers the 2n words of a sample up to n = 1023 in one call,
#: and it is odd, so batch ends fall on draws as well as on side words.
_BATCH = 2047


@lru_cache(maxsize=8)
def _lanes(count: int) -> tuple[int, int, int]:
    """The packed constants of ``_words``: ``ones`` (1 in every lane),
    ``mask`` (2**64 - 1 in every lane) and ``steps`` ((j+1) * golden in
    lane j).  Lane j is the 64-bit word 2j of the int's bytes in native
    byte order, and word 2j+1 is zero."""
    slots = [0] * (2 * count)
    slots[0::2] = [(j + 1) * _GOLDEN & _MASK64 for j in range(count)]
    steps = int.from_bytes(array("Q", slots).tobytes(), sys.byteorder)
    slots[0::2] = [1] * count
    ones = int.from_bytes(array("Q", slots).tobytes(), sys.byteorder)
    return ones, ones * _MASK64, steps


def _words(state: int, count: int) -> list[int]:
    """The next ``count`` words of the SplitMix64 stream at ``state``:
    word j is ``mix64(state + (j+1) * golden)``, as ``Rng.next_u64`` draws
    it.  All lanes are mixed at once in one int, where each lane has 64
    zero bits above it: a lane times a 64-bit constant never reaches the
    next lane, and masking every lane after each shift and multiply keeps
    them apart.  The int is packed and unpacked in native byte order, so
    lane j reads back as word 2j on every platform."""
    ones, mask, steps = _lanes(count)
    x = (ones * state + steps) & mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    x ^= x >> 31
    return memoryview(x.to_bytes(16 * count, sys.byteorder)).cast("Q")[0::2].tolist()


def _batches(state: int, count: int):
    """Yield the stream at ``state`` as ``_words`` batches: ``count`` words
    in batches of at most ``_BATCH``, then one word per batch for as long
    as the caller reads (only rejected draws read past ``count``)."""
    while True:
        size = max(1, min(count, _BATCH))
        yield _words(state, size)
        state = (state + size * _GOLDEN) & _MASK64
        count -= size


def _fold(plan: list[tuple[int, int]]) -> Term:
    """The term of a translation plan: (chain length, anchor code) pairs in
    pre-order, built bottom-up.  A leaf anchor (code 0) under a chain of k
    makes the index k; a right-only (1) or two-child (3) anchor makes a
    binder or an application, or under a chain of k >= 1 a closure with a
    shift or slash base wrapped in k - 1 lifts.  Every child is a term
    but the closure's substitution, and a chain length is a non-negative
    int, so the unchecked factories build the nodes."""
    built: list[Term] = []  # a left subtree's term lies above its sibling's
    for chain, kind in reversed(plan):
        if not kind:
            built.append(_index(chain))
        elif not chain:
            top = built.pop()
            built.append(_abs(top) if kind == 1 else _app(top, built.pop()))
        else:
            base = built.pop()
            sub = SHIFT if kind == 1 else _slash(built.pop())
            for _ in range(chain - 1):
                sub = _lift(sub)
            built.append(_closure(base, sub))
    return built[0]


def phi(tree: BinTree) -> Term:
    """Translate a skeleton to the term of the same size.

    A lone node is index 0; two children make an application; only a
    right child makes a binder.  A maximal chain of only-left nodes adds
    successors over a leaf anchor, or wraps lifts around the closure
    produced by a right-only or two-child anchor.  In the shape code such
    a chain is a run of 2s followed by its anchor's code.
    """
    plan, chain = [], 0
    for code in _shape(_member(BinTree, tree)):
        if code == 2:
            chain += 1
        else:
            plan.append((chain, code))
            chain = 0
    return _fold(plan)


def phi_inv(term: Term) -> BinTree:
    """Inverse translation; ``phi(phi_inv(t)) == t``.

    One pre-order walk of the term emits the shape code: ``Index(k)`` is
    k 2s and a 0; a binder is 1 and an application 3 before their
    children; a closure with j lifts is j + 1 2s, then 1 before its body
    for a shift base, or 3 before its body and the slash payload.
    """
    codes, stack = [], [_of_sort(term, "Term")]
    while stack:
        t = stack.pop()
        if isinstance(t, Index):
            codes += [2] * t.n + [0]
        elif isinstance(t, Abs):
            codes.append(1)
            stack.append(t.body)
        elif isinstance(t, App):
            codes.append(3)
            stack += (t.arg, t.fun)
        else:  # a closure
            sub = t.sub
            codes.append(2)
            while isinstance(sub, Lift):
                codes.append(2)
                sub = sub.sub
            if isinstance(sub, Shift):
                codes.append(1)
                stack.append(t.body)
            else:  # a slash
                codes.append(3)
                stack += (sub.term, t.body)
    return _from_shape(codes)


def _grafting_arrays(n: int) -> tuple[list[int], list[int], list[int]]:
    """Rémy's left, right and parent arrays over the ids 0..2n."""
    if 2 * n + 1 > sys.maxsize:
        raise InvalidSize("the size is too large: 2n + 1 exceeds sys.maxsize")
    return [0] * (2 * n + 1), [0] * (2 * n + 1), [-1] * (2 * n + 1)


def remy_tree(n: int, rng: Rng) -> BinTree:
    """Uniform random skeleton with exactly n nodes, in O(n).

    Grows a full binary tree by n graftings: step k picks one of the
    2k-1 existing nodes and a side, and hangs it under a fresh internal
    node together with a fresh leaf.  Internal nodes get odd ids, leaves
    even ids; erasing the leaves leaves the uniform skeleton.
    """
    if _int("n", n) < 1:
        raise InvalidSize("there is no tree with zero nodes")
    left, right, parent = _grafting_arrays(n)
    root = 0
    for k in range(1, n + 1):
        x = rng.below(2 * k - 1)
        side = rng.below(2)
        internal = 2 * k - 1
        leaf = 2 * k
        p = parent[x]
        if p < 0:
            root = internal
        elif left[p] == x:
            left[p] = internal
        else:
            right[p] = internal
        parent[internal] = p
        if side == 0:
            left[internal], right[internal] = leaf, x
        else:
            left[internal], right[internal] = x, leaf
        parent[x] = internal
        parent[leaf] = internal
    # Erase the leaves: a child survives iff its id is odd.
    kids = [(l if l & 1 else None, r if r & 1 else None) for l, r in zip(left, right)]
    return _from_shape(_shape(root, kids.__getitem__))


def sample_term(n: int, rng: Rng) -> Term:
    """Uniform random term of size exactly n (there is none of size 0).

    Returns ``phi(remy_tree(n, rng))`` and advances ``rng`` exactly as that
    call would, in one fused pass:

    * the grafting loop is ``remy_tree``'s, reading the stream's words in
      order from ``_batches``: the 2n words a sample needs when no draw is
      rejected, then one more per rejection.  A rejected draw just reads
      the next word.  The node id 2k-1 of step k is also its draw bound.
      A draw below ``2**64 - 2n`` is below every bound's rejection limit
      ``2**64 - 2**64 % (2k-1)``, so the limit is only computed for the
      rare draws above it.  The side is the low bit of the next word,
      because bound 2 never rejects.  The state ends ``used`` golden
      steps further on, ``used`` being the number of words read;
    * the translation reads ``phi``'s plan straight off the ``left``/
      ``right`` id arrays (a skeleton child exists iff its id is odd; even
      ids are Rémy's leaves) and hands it to the same ``_fold``.
    """
    if _int("n", n) < 1:
        raise InvalidSize("there is no term of size zero")
    left, right, parent = _grafting_arrays(n)
    root = 0
    state = rng._state
    safe = (1 << 64) - 2 * n
    words = itertools.chain.from_iterable(_batches(state, 2 * n))
    used = 2 * n
    for node, z, side in zip(range(1, 2 * n, 2), words, words):
        while z >= safe and z >= (1 << 64) - (1 << 64) % node:
            z, side = side, next(words)
            used += 1
        x = z % node
        p = parent[x]
        if p < 0:
            root = node
        elif left[p] == x:
            left[p] = node
        else:
            right[p] = node
        parent[node] = p
        if side & 1:
            left[node], right[node] = x, node + 1
        else:
            left[node], right[node] = node + 1, x
        parent[x] = parent[node + 1] = node
    rng._state = (state + used * _GOLDEN) & _MASK64
    plan, stack = [], [root]  # plan: (chain length, anchor code) in pre-order
    while stack:
        node, chain = stack.pop(), 0
        l, r = left[node], right[node]
        while not r & 1 and l & 1:
            node, chain = l, chain + 1
            l, r = left[node], right[node]
        if not r & 1:
            plan.append((chain, 0))  # no child: a leaf anchor
        elif not l & 1:
            plan.append((chain, 1))  # right child only
            stack.append(r)
        else:
            plan.append((chain, 3))  # two children
            stack += (r, l)
    return _fold(plan)
