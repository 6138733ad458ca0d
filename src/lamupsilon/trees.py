"""Plane binary tree skeletons, the size-preserving bijection with terms,
and the exact-size uniform sampler.

A skeleton node has an optional left and an optional right child; the
skeletons with n nodes are counted by Catalan(n), exactly like size-n
terms.  Translating a skeleton (``phi``) costs O(n), so composing it with
a uniform skeleton generator gives a linear-time uniform sampler of terms
of an exact size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .terms import SHIFT, Abs, App, Closure, Index, Lift, Shift, Slash, Term


class InvalidSize(ValueError):
    """There is no structure of the requested size."""


@dataclass(frozen=True)
class BinTree:
    left: Optional["BinTree"] = None
    right: Optional["BinTree"] = None


LEAF = BinTree()


def node_count(tree: BinTree) -> int:
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        total += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return total


def tree_to_json(tree: Optional[BinTree]):
    """Nested ``{"l": ..., "r": ...}`` objects with null for no child."""
    if tree is None:
        return None
    return {"l": tree_to_json(tree.left), "r": tree_to_json(tree.right)}


def tree_from_json(data) -> Optional[BinTree]:
    if data is None:
        return None
    return BinTree(tree_from_json(data["l"]), tree_from_json(data["r"]))


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


def phi_inv(term: Term) -> BinTree:
    """Inverse translation; ``phi(phi_inv(t)) == t``."""
    if isinstance(term, Index):
        tree = LEAF
        for _ in range(term.n):
            tree = BinTree(left=tree)
        return tree
    if isinstance(term, Abs):
        return BinTree(right=phi_inv(term.body))
    if isinstance(term, App):
        return BinTree(phi_inv(term.fun), phi_inv(term.arg))
    if isinstance(term, Closure):
        lifts = 0
        sub = term.sub
        while isinstance(sub, Lift):
            lifts += 1
            sub = sub.sub
        if isinstance(sub, Shift):
            tree = BinTree(left=BinTree(right=phi_inv(term.body)))
        else:
            tree = BinTree(left=BinTree(phi_inv(term.body), phi_inv(sub.term)))
        for _ in range(lifts):
            tree = BinTree(left=tree)
        return tree
    raise TypeError(f"not a term: {term!r}")


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
    """Uniform random term of size exactly n (there is none of size 0)."""
    if n < 1:
        raise InvalidSize("there is no term of size zero")
    return phi(remy_tree(n, rng))
