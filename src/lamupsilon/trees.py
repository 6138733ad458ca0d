"""Plane binary tree skeletons, the size-preserving bijection with terms,
and the exact-size uniform sampler.

A skeleton node has an optional left and an optional right child; the
skeletons with n nodes are counted by Catalan(n), exactly like size-n
terms.  Translating a skeleton (``phi``) costs O(n), so composing it with
Rémy's uniform skeleton generator (``remy_tree``) gives a linear-time
uniform sampler of terms of an exact size.

``sample_term`` is that composition fused into one routine: it inlines
the SplitMix64 draws into the grafting loop and translates the grafting
arrays straight to the term, with no ``BinTree`` in between.  It returns
the same term as ``phi(remy_tree(n, rng))`` and leaves ``rng`` in the same
state; ``remy_tree`` and ``phi`` stay as the reference it is tested
against.  Every walk here uses an explicit stack, so depth is limited by
memory only, never by the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .terms import SHIFT, Abs, App, Closure, Index, Lift, Shift, Slash, Term


class InvalidSize(ValueError):
    """There is no structure of the requested size."""


def _preorder(tree: "BinTree") -> list["BinTree"]:
    """The nodes of ``tree`` in pre-order, left subtree before right."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return nodes


def _tree_eq(self, other) -> bool:
    """Structural equality with an explicit stack (like ``terms._node_eq``)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a is None or b is None:
            return False
        stack.append((a.right, b.right))
        stack.append((a.left, b.left))
    return True


def _tree_hash(self) -> int:
    """Structural hash folded bottom-up over the pre-order (like
    ``terms._node_hash``); a missing child hashes as the fixed tag 0, so
    hashes repeat across runs."""
    hashes: list[int] = []
    for node in reversed(_preorder(self)):
        left = 0 if node.left is None else hashes.pop()
        right = 0 if node.right is None else hashes.pop()
        hashes.append(hash((left, right)))
    return hashes[0]


@dataclass(frozen=True)
class BinTree:
    left: Optional["BinTree"] = None
    right: Optional["BinTree"] = None

    __eq__ = _tree_eq
    __hash__ = _tree_hash


LEAF = BinTree()


def node_count(tree: BinTree) -> int:
    return len(_preorder(tree))


def tree_to_json(tree: Optional[BinTree]):
    """Nested ``{"l": ..., "r": ...}`` objects with null for no child."""
    if tree is None:
        return None
    top = {"l": None, "r": None}
    stack = [(tree, top)]
    while stack:
        node, out = stack.pop()
        for key, child in (("l", node.left), ("r", node.right)):
            if child is not None:
                out[key] = {"l": None, "r": None}
                stack.append((child, out[key]))
    return top


def tree_from_json(data) -> Optional[BinTree]:
    if data is None:
        return None
    items, stack = [], [data]  # pre-order, left subtree before right
    while stack:
        item = stack.pop()
        items.append(item)
        for child in (item["r"], item["l"]):
            if child is not None:
                stack.append(child)
    built: list[BinTree] = []  # a left subtree's tree lies above its sibling's
    for item in reversed(items):
        left = None if item["l"] is None else built.pop()
        built.append(BinTree(left, None if item["r"] is None else built.pop()))
    return built[0]


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[BinTree, ...]:
    """All skeletons with exactly n nodes (there are Catalan(n) of them)."""
    if n <= 0:
        return ()
    if n == 1:
        return (LEAF,)
    out: list[BinTree] = []
    for left_nodes in range(n):
        lefts = enumerate_trees(left_nodes) if left_nodes else (None,)
        rights = enumerate_trees(n - 1 - left_nodes) if n - 1 - left_nodes else (None,)
        out.extend(BinTree(l, r) for l in lefts for r in rights)
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
        self._state = seed & _MASK64

    @classmethod
    def derived(cls, seed: int, index: int) -> "Rng":
        """Independent stream ``index`` of a master ``seed``.

        Stream i starts from ``mix64(mix64(seed) + (i+1) * golden)``, so
        results depend only on (seed, index), never on worker layout.
        """
        return cls(_mix64((_mix64(seed) + (index + 1) * _GOLDEN) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), for 0 < bound <= 2**64."""
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must be in [1, 2**64]")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def phi(tree: BinTree) -> Term:
    """Translate a skeleton to the term of the same size.

    A lone node is index 0; two children make an application; only a
    right child makes a binder.  A maximal chain of only-left nodes adds
    successors over a leaf anchor, or wraps lifts around the closure
    produced by a right-only or two-child anchor.  A pre-order walk finds
    the chains, and a reverse fold builds the terms bottom-up.
    """
    plan, stack = [], [tree]  # plan: (chain length, anchor) in pre-order
    while stack:
        node, chain = stack.pop(), 0
        while node.right is None and node.left is not None:
            node, chain = node.left, chain + 1
        plan.append((chain, node))
        if node.right is not None:
            stack += (node.right,) if node.left is None else (node.right, node.left)
    built: list[Term] = []  # a left subtree's term lies above its sibling's
    for chain, node in reversed(plan):
        if node.right is None:
            built.append(Index(chain))
        elif not chain:
            top = built.pop()
            built.append(Abs(top) if node.left is None else App(top, built.pop()))
        else:
            base = built.pop()
            sub = SHIFT if node.left is None else Slash(built.pop())
            for _ in range(chain - 1):
                sub = Lift(sub)
            built.append(Closure(base, sub))
    return built[0]


def _strip_lifts(sub) -> tuple[int, object]:
    """The number of lifts around a substitution, and what they wrap."""
    lifts = 0
    while isinstance(sub, Lift):
        lifts, sub = lifts + 1, sub.sub
    return lifts, sub


def phi_inv(term: Term) -> BinTree:
    """Inverse translation; ``phi(phi_inv(t)) == t``.

    A pre-order walk lists the terms (a closure's slash payload after its
    body), and a reverse fold builds the skeletons bottom-up.
    """
    order, stack = [], [term]
    while stack:
        t = stack.pop()
        order.append(t)
        if isinstance(t, Abs):
            stack.append(t.body)
        elif isinstance(t, App):
            stack += (t.arg, t.fun)
        elif isinstance(t, Closure):
            base = _strip_lifts(t.sub)[1]
            stack += (t.body,) if isinstance(base, Shift) else (base.term, t.body)
        elif not isinstance(t, Index):
            raise TypeError(f"not a term: {t!r}")
    built: list[BinTree] = []  # a first child's skeleton lies above its sibling's
    for t in reversed(order):
        if isinstance(t, Index):
            tree, lifts = LEAF, t.n
        elif isinstance(t, Abs):
            tree, lifts = BinTree(right=built.pop()), 0
        elif isinstance(t, App):
            tree, lifts = BinTree(built.pop(), built.pop()), 0
        else:
            lifts, base = _strip_lifts(t.sub)
            body = built.pop()
            anchor = BinTree(right=body) if isinstance(base, Shift) else BinTree(body, built.pop())
            tree = BinTree(left=anchor)
        for _ in range(lifts):
            tree = BinTree(left=tree)
        built.append(tree)
    return built[0]


def remy_tree(n: int, rng: Rng) -> BinTree:
    """Uniform random skeleton with exactly n nodes, in O(n).

    Grows a full binary tree by n graftings: step k picks one of the
    2k-1 existing nodes and a side, and hangs it under a fresh internal
    node together with a fresh leaf.  Internal nodes get odd ids, leaves
    even ids; erasing the leaves leaves the uniform skeleton.
    """
    if n < 1:
        raise InvalidSize("there is no tree with zero nodes")
    left = [0] * (2 * n + 1)
    right = [0] * (2 * n + 1)
    parent = [-1] * (2 * n + 1)
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
    # Erase leaves (even ids) bottom-up without recursion.
    built: dict[int, BinTree] = {}
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        l, r = left[node], right[node]
        if expanded:
            built[node] = BinTree(built.get(l), built.get(r))
        else:
            stack.append((node, True))
            if l % 2:
                stack.append((l, False))
            if r % 2:
                stack.append((r, False))
    return built[root]


def sample_term(n: int, rng: Rng) -> Term:
    """Uniform random term of size exactly n (there is none of size 0).

    Returns ``phi(remy_tree(n, rng))`` and advances ``rng`` exactly as that
    call would, in one fused pass:

    * the grafting loop is ``remy_tree``'s, with the SplitMix64 step of
      ``Rng.below`` inlined.  The node id 2k-1 of step k is also its draw
      bound.  A draw below ``2**64 - 2n`` is below every bound's rejection
      limit ``2**64 - 2**64 % (2k-1)``, so the limit is only computed for
      the rare draws above it.  The side is the low bit of the next word,
      because bound 2 never rejects;
    * the translation is ``phi``'s left-chain plan and fold, run over the
      ``left``/``right`` id arrays: a skeleton child exists iff its id is
      odd (even ids are Rémy's leaves).
    """
    if n < 1:
        raise InvalidSize("there is no term of size zero")
    left = [0] * (2 * n + 1)
    right = [0] * (2 * n + 1)
    parent = [-1] * (2 * n + 1)
    root = 0
    state = rng._state
    safe = (1 << 64) - 2 * n
    for node in range(1, 2 * n, 2):
        while True:
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < safe or z < (1 << 64) - (1 << 64) % node:
                break
        x = z % node
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        p = parent[x]
        if p < 0:
            root = node
        elif left[p] == x:
            left[p] = node
        else:
            right[p] = node
        parent[node] = p
        if (z ^ (z >> 31)) & 1:
            left[node], right[node] = x, node + 1
        else:
            left[node], right[node] = node + 1, x
        parent[x] = parent[node + 1] = node
    rng._state = state
    plan, stack = [], [root]  # plan: (chain length, anchor kind) in pre-order
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
            plan.append((chain, 2))  # two children
            stack += (r, l)
    built: list[Term] = []  # a left subtree's term lies above its sibling's
    for chain, kind in reversed(plan):
        if not kind:
            built.append(Index(chain))
        elif not chain:
            top = built.pop()
            built.append(Abs(top) if kind == 1 else App(top, built.pop()))
        else:
            base = built.pop()
            sub = SHIFT if kind == 1 else Slash(built.pop())
            for _ in range(chain - 1):
                sub = Lift(sub)
            built.append(Closure(base, sub))
    return built[0]
