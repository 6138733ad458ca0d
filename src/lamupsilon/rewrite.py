"""The eight rewriting rules, redex search, normalization and classifiers.

``_contract`` (for a closure) and ``_beta`` (for an application) match a
redex and build its right-hand side in one call, the only place the
right-hand sides are stated; ``normalize`` and ``rewrite_root`` build
through them.  ``match_redex`` and ``_closure_rule`` classify the same
redexes without building, for the counters.

Rule left-hand sides are mutually exclusive and inspect only a node and
its immediate children, which the normalizer exploits: after a rewrite,
outside the freshly created subtree only the parent's redex status can
have changed, and only if the new subtree is its first child.  The engine
is therefore an incremental pre-order scan that is observationally
identical to "rescan from the root, fire the first enabled redex"
(leftmost-outermost).  Closures stack, so a step often makes its parent a
redex: that rule fires from the new subtree and the parent's other child,
without rebuilding the parent, and so on up.  A parent that is not a redex
stays stale until the walk climbs back through it or ``_rebuild`` needs
the whole term.  A step costs its redex's depth: the walk keeps its path of
child ordinals in a ``bytearray`` (every ordinal on a path is 0 or 1), and a
step stores its position as one C copy of it, one byte per level.  The trace
keeps each step as its rule and that ``bytes`` position, neither tracked
by the garbage collector, and with ``keep_terms`` the start term, from
which it replays each result term through ``apply_at`` once ``steps`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from . import _int, _iterable, _member
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
    Subst,
    Term,
    _abs,
    _app,
    _closure,
    _index,
    _lift,
    _nodes,
    _of_sort,
    _position,
    _rebuild,
    _slash,
    _walk,
    _with_child,
    is_pure,
    size,
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

# The members as module globals: reading one is much cheaper than ``RuleKind.X``.
_BETA, _APP, _LAMBDA, _FVAR, _RVAR, _FVARLIFT, _RVARLIFT, _VARSHIFT = RuleKind


@dataclass(frozen=True)
class Redex:
    """A claim that rule ``kind`` matches at ``position``."""

    position: Position
    kind: RuleKind


class TraceStep(NamedTuple):
    """One rewrite of a trace: the rule fired and where."""

    rule: RuleKind
    position: Position
    result: Optional[Term]  # whole term after the step, replayed on read; None if not kept


@dataclass(frozen=True)
class Trace:
    """The steps of a normalization, in order; its length is the step count.

    A trace that ``normalize`` made holds a compact record instead (see
    ``_compact_trace``): it builds ``steps`` on first read and keeps them,
    while ``len`` and ``rules`` read the record and build no step."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self):  # not run by _compact_trace, which bypasses __init__
        steps = _iterable("steps", self.steps, "a tuple of TraceStep records")
        object.__setattr__(self, "steps", tuple(
            TraceStep(_member(RuleKind, rule), _position(position),
                      result if result is None else _of_sort(result, "Term"))
            for rule, position, result in (_member(TraceStep, step) for step in steps)))

    def __getattr__(self, name: str):
        # reached only while ``steps`` is unset, so on a trace from _compact_trace
        if name != "steps" or "_record" not in self.__dict__:
            raise AttributeError(f"'Trace' object has no attribute {name!r}")
        steps = tuple(TraceStep(rule, tuple(position), result)
                      for rule, position, result in _rows(self))
        object.__setattr__(self, "steps", steps)
        return steps

    def __len__(self) -> int:
        record = self.__dict__.get("_record")
        return len(self.steps if record is None else record[1])

    @property
    def rules(self) -> tuple[RuleKind, ...]:
        record = self.__dict__.get("_record")
        return tuple(step.rule for step in self.steps) if record is None else tuple(record[1])


def _compact_trace(start: Optional[Term], rules: list[RuleKind], positions: list[bytes]) -> Trace:
    """The trace of ``normalize``: its start term (None: no result terms) and per
    step its rule and its position as bytes.  It is equal, in hash and in repr,
    to the trace of the same steps built through ``Trace(steps)``."""
    trace = object.__new__(Trace)
    object.__setattr__(trace, "_record", (start, rules, positions))
    return trace


def _rows(trace: Trace):
    """``(rule, position, result)`` per step of ``trace``, off its record if it has
    one, replaying each step on the result before; one that does not replay is
    a fault of the engine, raised as RuntimeError."""
    record = trace.__dict__.get("_record")
    if record is None:
        yield from trace.steps
        return
    term, rules, positions = record
    for k, (rule, position) in enumerate(zip(rules, positions)):
        if term is not None:
            try:
                term = apply_at(term, Redex(tuple(position), rule))
            except InvalidRedex as err:
                raise RuntimeError(f"step {k} of the trace does not replay: {err}") from err
        yield rule, position, term


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
        return _closure_rule(term.body, term.sub)
    if term.__class__ is App and term.fun.__class__ is Abs:
        return _BETA
    return None


def _closure_rule(body: Term, sub: Subst) -> Optional[RuleKind]:
    """The rule matching at the closure ``body[sub]``, if any; builds nothing."""
    if body.__class__ is App:
        return _APP
    if body.__class__ is Abs:
        return _LAMBDA
    if body.__class__ is not Index:
        return None
    if sub.__class__ is Slash:
        return _RVAR if body.n else _FVAR
    if sub.__class__ is Lift:
        return _RVARLIFT if body.n else _FVARLIFT
    return _VARSHIFT


def _contract(body: Term, sub: Subst) -> Optional[tuple[RuleKind, Term]]:
    """``(_closure_rule(body, sub), right-hand side)``, or None; the unchecked factories build
    it, as a redex's children are well sorted and RVar and RVarLift match only n >= 1."""
    if body.__class__ is App:
        return _APP, _app(_closure(body.fun, sub), _closure(body.arg, sub))
    if body.__class__ is Abs:
        return _LAMBDA, _abs(_closure(body.body, _lift(sub)))
    if body.__class__ is not Index:
        return None
    if sub.__class__ is Slash:
        return (_RVAR, _index(body.n - 1)) if body.n else (_FVAR, sub.term)
    if sub.__class__ is not Lift:
        return _VARSHIFT, _index(body.n + 1)
    if body.n:
        return _RVARLIFT, _closure(_closure(_index(body.n - 1), sub.sub), SHIFT)
    return _FVARLIFT, _index(0)


def _beta(fun: Term, arg: Term) -> Optional[tuple[RuleKind, Term]]:
    """``(BETA, right-hand side)`` for the application ``fun arg``, or None."""
    return (_BETA, _closure(fun.body, _slash(arg))) if fun.__class__ is Abs else None


def rewrite_root(term: Term, kind: RuleKind) -> Term:
    """Right-hand side for a redex of ``kind`` at the root."""
    if match_redex(term) is not _member(RuleKind, kind):
        raise InvalidRedex(f"{kind.value} does not match at the root")
    return (_beta(term.fun, term.arg) if kind is _BETA else _contract(term.body, term.sub))[1]


def apply_at(term: Term, redex: Redex) -> Term:
    """Apply ``redex`` to ``term``; raises InvalidRedex on mismatch."""
    _member(Redex, redex)
    try:
        (*spine, node), position = _walk(term, redex.position)
    except ValueError:
        raise InvalidRedex(f"no node at position {redex.position!r}") from None
    return _rebuild(spine, position, rewrite_root(node, redex.kind))


def find_redexes(term: Term, kinds: Optional[Iterable[RuleKind]] = None) -> list[Redex]:
    """All redexes whose kind is in ``kinds`` (default: all; a bare string
    or a lone ``RuleKind`` raises TypeError), in pre-order.

    The walk keeps one path of child ordinals and copies it only for a
    redex, so a call costs the size of the term plus the depth of each
    redex found, not the depth of every node."""
    if kinds is None:
        wanted = ALL_RULES
    else:
        kinds = _iterable("kinds", kinds, "a list of RuleKind members")
        wanted = frozenset(_member(RuleKind, kind) for kind in kinds)
    found, path, stack = [], [], [(_of_sort(term, "Term"), 0, 0)]  # (node, depth, ordinal)
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
    return count_all_redexes(term)[_member(RuleKind, kind)]


def count_all_redexes(term: Term) -> dict[RuleKind, int]:
    """Counts for all eight rules in a single traversal.  A loop of its own:
    on this hot path of the sampling experiment ``_nodes`` costs a quarter more."""
    counts = dict.fromkeys(RuleKind, 0)
    stack = [_of_sort(term, "Term")]
    while stack:
        node = stack.pop()
        kind = match_redex(node)
        if kind is not None:
            counts[kind] += 1
        stack += node._children()
    return counts


def _bound(name: str, value: Optional[int], default: Optional[int]) -> Optional[int]:
    """``value``, or ``default`` for None; ValueError if it is negative."""
    if value is None:
        return default
    if _int(name, value) < 0:
        raise ValueError(f"{name} must be non-negative")
    return value


def normalize(
    term: Term,
    strategy: str = "full",
    max_steps: Optional[int] = None,
    keep_terms: bool = True,
) -> tuple[Term, Trace]:
    """Repeatedly fire the leftmost-outermost enabled redex.

    ``strategy`` is ``"full"`` (all eight rules) or ``"upsilon"`` (all but
    Beta; on a term it always terminates with a pure term).  The
    leftmost-outermost redex is the pre-order-first one.  Raises
    BudgetExceeded once ``max_steps`` rewrites have happened and an enabled
    redex remains.
    A step costs its redex's depth, for its position: one C copy of the
    walk's ``bytearray`` path into ``bytes``.  The trace replays
    each result term from ``term`` on read; with ``keep_terms=False`` it is None.
    A parent that a step makes a redex fires from its children at once;
    any other parent stays stale until the walk climbs back through it.
    """
    if strategy not in ("full", "upsilon"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _bound("max_steps", max_steps, None)
    beta = strategy == "full"  # only Beta matches at an App

    start = term if _member(bool, keep_terms) else None
    rules: list[RuleKind] = []
    positions: list[bytes] = []  # an ordinal is 0 or 1, and bytes are not GC-tracked
    parents: list[Term] = []  # nodes on the path from the root to the focus
    ordinals = bytearray()  # ordinals[d]: the child of parents[d] on the path
    focus: object = _of_sort(term, "Term")
    test = True  # does the focus still need a redex test?
    resume = 0  # next child of the focus to visit
    while True:
        if test:
            step = (_contract(focus.body, focus.sub) if focus.__class__ is Closure else
                    _beta(focus.fun, focus.arg) if beta and focus.__class__ is App else None)
            kind = None  # set by a step; a later one fires at the stale parent
            while step is not None:
                if max_steps is not None and len(rules) >= max_steps:
                    whole = _rebuild(parents, ordinals, focus)
                    raise BudgetExceeded(whole, _compact_trace(start, rules, positions))
                if kind is not None:
                    del parents[-1], ordinals[-1]
                kind, focus = step
                rules.append(kind)
                positions.append(bytes(ordinals))
                # Outside the new subtree only the parent's redex status can
                # change, and only if the new subtree is its first child.
                parent = parents[-1] if parents and not ordinals[-1] else None
                step = (_contract(focus, parent.sub) if parent.__class__ is Closure else
                        _beta(focus, parent.arg) if beta and parent.__class__ is App else None)
            if kind is not None:
                resume = 0
                continue
        kids = focus._children()
        if resume < len(kids):
            parents.append(focus)
            ordinals.append(resume)
            focus, resume, test = kids[resume], 0, True
            continue
        if not parents:
            return focus, _compact_trace(start, rules, positions)
        node, ordinal = parents.pop(), ordinals.pop()
        if node._children()[ordinal] is not focus:
            node = _with_child(node, ordinal, focus)
        focus, resume, test = node, ordinal + 1, False


def _trace_items(trace: Trace):
    """The wire-format items of ``trace``, rendered one step at a time, so a
    trace from ``normalize`` holds one result term at a time."""
    for rule, position, result in _rows(trace):
        if result is None:
            raise ValueError("trace was recorded without result terms")
        yield {
            "rule": rule.value,
            "position": list(position),
            "term": render_term(result),
        }


def trace_to_json(trace: Trace) -> list[dict]:
    """Wire format: ``[{"rule": ..., "position": [...], "term": ...}]``."""
    return list(_trace_items(_member(Trace, trace)))


def has_nested_substitution(term: Term) -> bool:
    """True iff some slash payload in ``term`` is impure.

    Non-Beta steps never create a slash node, so every slash payload of a
    strict substitution form (reached from ``a[b/]`` with pure ``a, b``)
    stays pure: a nested substitution certifies lazy form.  Checking every
    slash, including those wrapped in lifts, is exactly the complement of
    the restricted grammar behind ``solve_restricted_series``.
    """
    nodes = _nodes(_of_sort(term, "Term"))
    return any(node.__class__ is Slash and not is_pure(node.term) for node in nodes)


def unsuspended_constructors(term: Term) -> int:
    """Constructors reachable without entering any closure's substitution."""
    total = 0
    stack = [_of_sort(term, "Term")]
    while stack:
        node = stack.pop()
        if node.__class__ is Index:
            total += node.n
        elif node.__class__ is Closure:  # its substitution is suspended
            stack.append(node.body)
        else:  # an abstraction or an application
            stack += node._children()
        total += 1
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
    steps, one source at a time.  It never answers ``"no"``: exhausting
    the bounded search only yields ``"unknown"``.  A bound that is not an
    ``int`` raises TypeError, a negative one ValueError.
    """
    n = size(_of_sort(term, "Term"))
    max_source_size = _bound("max_source_size", max_source_size, n + 4)
    max_steps = _bound("max_steps", max_steps, 4 * n + 16)
    if _is_source(term):
        return "yes"
    for body_size in range(1, max_source_size - 2):
        for slash_size in range(1, max_source_size - 1 - body_size):
            for a in _pure_terms(body_size):
                for b in _pure_terms(slash_size):
                    levels = _upsilon_levels([Closure(a, Slash(b))], max_steps)
                    if any(term in level for level in levels):
                        return "yes"
    return "unknown"


def _upsilon_levels(sources: Iterable[Term], max_steps: Optional[int] = None):
    """Breadth-first walk of the non-Beta reduction graph from ``sources``,
    all redex orders: yields level k, the terms first reached after k steps,
    so each term once, through level ``max_steps`` (None: until none is left).
    Each successor is hashed once, by the growth of ``seen``."""
    seen = set(sources)
    level = list(seen)
    steps = 0
    while level:
        yield level
        if steps == max_steps:
            return
        steps += 1
        reached = []
        for cur in level:
            for redex in find_redexes(cur, UPSILON_RULES):
                succ = apply_at(cur, redex)
                before = len(seen)
                seen.add(succ)
                if len(seen) > before:
                    reached.append(succ)
        level = reached
