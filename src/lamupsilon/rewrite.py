"""The eight rewriting rules, redex search, normalization and classifiers.

``match_redex`` is the one class dispatch that recognises a redex.  Each
rule's right-hand side is a builder in one table keyed by ``RuleKind``,
run only by ``normalize`` and ``rewrite_root``, so the counters classify
without building.

Rule left-hand sides are mutually exclusive and inspect only a node and
its immediate children, which the normalizer exploits: after a rewrite,
outside the freshly created subtree only the parent's redex status can
have changed.  The engine is therefore an incremental pre-order scan that
is observationally identical to "rescan from the root, fire the first
enabled redex" (leftmost-outermost).  A step costs its redex's depth: it
copies the position, and with ``keep_terms`` rebuilds the path to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional

from .syntax import render_term
from .terms import (
    SHIFT,
    Abs,
    App,
    Closure,
    Index,
    Lift,
    Position,
    Slash,
    Term,
    children,
    is_pure,
    replace_at,
    size,
    subterm_at,
    with_child,
)


class RuleKind(Enum):
    """The eight rewriting rules."""

    BETA = "Beta"  # (\a) b        -> a[b/]
    APP = "App"  # (a b)[s]      -> a[s] (b[s])
    LAMBDA = "Lambda"  # (\a)[s]       -> \(a[lift(s)])
    FVAR = "FVar"  # 0[a/]         -> a
    RVAR = "RVar"  # (n+1)[a/]     -> n
    FVARLIFT = "FVarLift"  # 0[lift(s)]    -> 0
    RVARLIFT = "RVarLift"  # (n+1)[lift(s)]-> n[s][shift]
    VARSHIFT = "VarShift"  # n[shift]      -> n+1

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs Python code


ALL_RULES = frozenset(RuleKind)
UPSILON_RULES = frozenset(RuleKind) - {RuleKind.BETA}

# Each rule's right-hand side, built from a node that match_redex gives that rule.
_RIGHT_HAND_SIDE = {
    RuleKind.BETA: lambda t: Closure(t.fun.body, Slash(t.arg)),
    RuleKind.APP: lambda t: App(Closure(t.body.fun, t.sub), Closure(t.body.arg, t.sub)),
    RuleKind.LAMBDA: lambda t: Abs(Closure(t.body.body, Lift(t.sub))),
    RuleKind.FVAR: lambda t: t.sub.term,
    RuleKind.RVAR: lambda t: Index(t.body.n - 1),
    RuleKind.FVARLIFT: lambda t: Index(0),
    RuleKind.RVARLIFT: lambda t: Closure(Closure(Index(t.body.n - 1), t.sub.sub), SHIFT),
    RuleKind.VARSHIFT: lambda t: Index(t.body.n + 1),
}


@dataclass(frozen=True)
class Redex:
    """A claim that rule ``kind`` matches at ``position``."""

    position: Position
    kind: RuleKind


@dataclass(frozen=True)
class TraceStep:
    """One rewrite of a trace: the rule fired and where."""

    rule: RuleKind
    position: Position
    result: Optional[Term]  # whole term after the step; None if not recorded


@dataclass(frozen=True)
class Trace:
    """The steps of a normalization, in order; its length is the step count."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def rules(self) -> tuple[RuleKind, ...]:
        return tuple(step.rule for step in self.steps)


class InvalidRedex(ValueError):
    """The claimed rule does not match at the claimed position."""


class BudgetExceeded(Exception):
    """Normalization ran out of steps; carries the partial result."""

    def __init__(self, term: Term, trace: Trace):
        self.term = term
        self.trace = trace
        super().__init__(f"step budget exhausted after {len(trace)} steps")


def match_redex(term: Term) -> Optional[RuleKind]:
    """The unique rule matching at the root, if any."""
    if term.__class__ is Closure:
        body, sub = term.body, term.sub
        if body.__class__ is App:
            return RuleKind.APP
        if body.__class__ is Abs:
            return RuleKind.LAMBDA
        if body.__class__ is not Index:
            return None
        if sub.__class__ is Slash:
            return RuleKind.RVAR if body.n else RuleKind.FVAR
        if sub.__class__ is not Lift:
            return RuleKind.VARSHIFT
        return RuleKind.RVARLIFT if body.n else RuleKind.FVARLIFT
    if term.__class__ is App and term.fun.__class__ is Abs:
        return RuleKind.BETA
    return None


def _rule_kind(kind: RuleKind) -> RuleKind:
    if kind.__class__ is not RuleKind:
        raise TypeError(f"not a RuleKind: {kind!r}")
    return kind


def rewrite_root(term: Term, kind: RuleKind) -> Term:
    """Right-hand side for a redex of ``kind`` at the root."""
    if match_redex(term) is not _rule_kind(kind):
        raise InvalidRedex(f"{kind.value} does not match at the root")
    return _RIGHT_HAND_SIDE[kind](term)


def apply_at(term: Term, redex: Redex) -> Term:
    """Apply ``redex`` to ``term``; raises InvalidRedex on mismatch."""
    try:
        node = subterm_at(term, redex.position)
    except ValueError:
        raise InvalidRedex(f"no node at position {redex.position!r}") from None
    return replace_at(term, redex.position, rewrite_root(node, redex.kind))


def find_redexes(term: Term, kinds: Optional[Iterable[RuleKind]] = None) -> list[Redex]:
    """All redexes whose kind is in ``kinds`` (default: all), in pre-order.

    The walk keeps one path of child ordinals and copies it only for a
    redex, so a call costs the size of the term plus the depth of each
    redex found, not the depth of every node."""
    wanted = ALL_RULES if kinds is None else frozenset(map(_rule_kind, kinds))
    children(term)  # TypeError unless the root is a node
    found, path, stack = [], [], [(term, 0, 0)]  # (node, depth, ordinal)
    while stack:
        node, depth, ordinal = stack.pop()
        path[depth:] = (ordinal,)  # path[0] stands for the root
        if (kind := match_redex(node)) in wanted:
            found.append(Redex(tuple(path[1:]), kind))
        kids = node._children()
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], depth + 1, i))
    return found


def count_redexes(term: Term, kind: RuleKind) -> int:
    """Number of positions where ``kind`` matches."""
    return count_all_redexes(term)[_rule_kind(kind)]


def count_all_redexes(term: Term) -> dict[RuleKind, int]:
    """Counts for all eight rules in a single traversal."""
    counts = dict.fromkeys(RuleKind, 0)
    children(term)  # TypeError unless the root is a node
    stack = [term]
    while stack:
        node = stack.pop()
        kind = match_redex(node)
        if kind is not None:
            counts[kind] += 1
        stack += node._children()
    return counts


def _snapshot(parents: list[Term], ordinals: list[int], focus: Term) -> Term:
    """Current whole term; repairs stale ``parents`` in place."""
    for depth in range(len(parents) - 1, -1, -1):
        if parents[depth]._children()[ordinals[depth]] is not focus:
            parents[depth] = with_child(parents[depth], ordinals[depth], focus)
        focus = parents[depth]
    return focus


def normalize(
    term: Term,
    strategy: str = "full",
    max_steps: Optional[int] = None,
    keep_terms: bool = True,
) -> tuple[Term, Trace]:
    """Repeatedly fire the leftmost-outermost enabled redex.

    ``strategy`` is ``"full"`` (all eight rules) or ``"upsilon"`` (all but
    Beta; always terminates with a pure term).  The leftmost-outermost
    redex is the pre-order-first one.  Raises BudgetExceeded once
    ``max_steps`` rewrites have happened and an enabled redex remains.
    With ``keep_terms=False`` the trace omits the per-step result terms.
    A step costs its redex's depth, for the position and any result term.
    """
    if strategy not in ("full", "upsilon"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    beta = strategy == "full"  # only Beta matches at an App

    steps: list[TraceStep] = []
    parents: list[Term] = []  # nodes on the path from the root to the focus
    ordinals: list[int] = []  # ordinals[d]: the child of parents[d] on the path
    children(term)  # TypeError unless the root is a node
    focus: object = term
    test = True  # does the focus still need a redex test?
    resume = 0  # next child of the focus to visit
    while True:
        if test and (focus.__class__ is Closure or (beta and focus.__class__ is App)):
            kind = match_redex(focus)
            if kind is not None:
                if max_steps is not None and len(steps) >= max_steps:
                    whole = _snapshot(parents, ordinals, focus)
                    raise BudgetExceeded(whole, Trace(tuple(steps)))
                focus = _RIGHT_HAND_SIDE[kind](focus)
                after = _snapshot(parents, ordinals, focus) if keep_terms else None
                steps.append(TraceStep(kind, tuple(ordinals), after))
                resume = 0
                if parents:
                    # Outside the new subtree only the parent's redex status can change.
                    resume = ordinals.pop()
                    focus = with_child(parents.pop(), resume, focus)
                continue
        kids = focus._children()
        if resume < len(kids):
            parents.append(focus)
            ordinals.append(resume)
            focus, resume, test = kids[resume], 0, True
            continue
        if not parents:
            return focus, Trace(tuple(steps))
        node, ordinal = parents.pop(), ordinals.pop()
        if node._children()[ordinal] is not focus:
            node = with_child(node, ordinal, focus)
        focus, resume, test = node, ordinal + 1, False


def _trace_items(trace: Trace):
    """The wire-format items of ``trace``, rendered one step at a time."""
    for step in trace.steps:
        if step.result is None:
            raise ValueError("trace was recorded without result terms")
        yield {
            "rule": step.rule.value,
            "position": list(step.position),
            "term": render_term(step.result),
        }


def trace_to_json(trace: Trace) -> list[dict]:
    """Wire format: ``[{"rule": ..., "position": [...], "term": ...}]``."""
    return list(_trace_items(trace))


def has_nested_substitution(term: Term) -> bool:
    """True iff some slash payload in ``term`` is impure.

    Non-Beta steps never create a slash node, so every slash payload of a
    strict substitution form (reached from ``a[b/]`` with pure ``a, b``)
    stays pure: a nested substitution certifies lazy form.  Checking every
    slash, including those wrapped in lifts, is exactly the complement of
    the restricted grammar behind ``solve_restricted_series``.
    """
    children(term)  # TypeError unless the root is a node
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Slash) and not is_pure(node.term):
            return True
        stack += node._children()
    return False


def unsuspended_constructors(term: Term) -> int:
    """Constructors reachable without entering any closure's substitution."""
    total = 0
    stack = [term]
    while stack:
        node = stack.pop()
        if not isinstance(node, Term):
            raise TypeError(f"not a term: {node!r}")
        if node.__class__ is Index:
            total += node.n + 1
        else:
            total += 1
            # a closure's substitution is suspended: take only its body
            stack += (node.body,) if node.__class__ is Closure else node._children()
    return total


@lru_cache(maxsize=None)
def _pure_terms(n: int) -> tuple[Term, ...]:
    """All pure terms of size exactly ``n`` (binders, applications, indices)."""
    if n <= 0:
        return ()
    out: list[Term] = [Index(n - 1)]
    out.extend(Abs(a) for a in _pure_terms(n - 1))
    for i in range(1, n - 1):
        for a in _pure_terms(i):
            for b in _pure_terms(n - 1 - i):
                out.append(App(a, b))
    return tuple(out)


def _is_source(term: Term) -> bool:
    return (
        isinstance(term, Closure)
        and isinstance(term.sub, Slash)
        and is_pure(term.body)
        and is_pure(term.sub.term)
    )


def is_strict_form_bounded(
    term: Term,
    max_source_size: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> str:
    """Bounded oracle for strict substitution form: ``"yes"`` or ``"unknown"``.

    A term is in strict substitution form when it is reachable from some
    ``a[b/]`` with ``a``, ``b`` pure using non-Beta steps only (under any
    redex choice).  The search enumerates all such sources up to
    ``max_source_size`` (default ``size(term) + 4``) and explores every
    reduction order for up to ``max_steps`` (default ``4*size(term) + 16``)
    steps.  It never answers ``"no"``: exhausting the bounded search only
    yields ``"unknown"``.
    """
    n = size(term)
    if max_source_size is None:
        max_source_size = n + 4
    if max_steps is None:
        max_steps = 4 * n + 16
    if _is_source(term):
        return "yes"
    for body_size in range(1, max_source_size - 2):
        for slash_size in range(1, max_source_size - 1 - body_size):
            for a in _pure_terms(body_size):
                for b in _pure_terms(slash_size):
                    if _reaches(Closure(a, Slash(b)), term, max_steps):
                        return "yes"
    return "unknown"


def _reaches(source: Term, target: Term, max_steps: int) -> bool:
    """Breadth-first non-Beta reachability, all redex orders."""
    if source == target:
        return True
    seen = {source}
    frontier = [source]
    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier = []
        for cur in frontier:
            for redex in find_redexes(cur, UPSILON_RULES):
                succ = apply_at(cur, redex)
                if succ == target:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    next_frontier.append(succ)
        frontier = next_frontier
    return False
