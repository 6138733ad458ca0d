import math
import sys

import pytest
from hypothesis import strategies as st

from lamupsilon import (
    SHIFT,
    Abs,
    App,
    Closure,
    Index,
    Lift,
    Shift,
    Slash,
    apply_at,
    find_redexes,
)
from lamupsilon.rewrite import ALL_RULES, UPSILON_RULES
from lamupsilon.terms import children

# Mutually recursive strategies for random terms and substitutions.
terms = st.deferred(
    lambda: st.one_of(
        st.integers(0, 5).map(Index),
        st.builds(Abs, terms),
        st.builds(App, terms, terms),
        st.builds(Closure, terms, substs),
    )
)
substs = st.deferred(
    lambda: st.one_of(
        st.just(SHIFT),
        st.builds(Slash, terms),
        st.builds(Lift, substs),
    )
)


def naive_normalize(term, strategy, max_steps):
    """Reference engine: rescan from the root, fire the pre-order-first
    enabled redex.  Returns (term, steps, finished)."""
    kinds = ALL_RULES if strategy == "full" else UPSILON_RULES
    steps = []
    while len(steps) < max_steps:
        redexes = find_redexes(term, kinds)
        if not redexes:
            return term, steps, True
        first = redexes[0]
        term = apply_at(term, first)
        steps.append((first.kind, first.position))
    return term, steps, not find_redexes(term, kinds)


def bigstep_normal_form(term):
    """Upsilon normal form by meta-level de Bruijn substitution, with no
    rewriting step: NF(a[s]) is the meaning of s applied to NF(a), with a
    Lift under each binder and lookup through slash, lift and shift
    (Lescanne, POPL 1994; Benaissa et al., JFP 1996).  An explicit stack
    of tasks feeds a stack of finished pure terms and substitutions."""
    done = []
    todo = [("eval", term, None)]
    while todo:
        task, x, sub = todo.pop()
        if task == "build":  # x is a constructor, sub its arity
            args = done[len(done) - sub :]
            del done[len(done) - sub :]
            done.append(x(*args))
        elif task == "apply":  # pop a substitution (or take sub), then a term
            sub = done.pop() if sub is None else sub
            todo.append(("subst", done.pop(), sub))
        elif task == "eval":
            if isinstance(x, (Index, Shift)):
                done.append(x)
            elif isinstance(x, Closure):
                todo += [("apply", None, None), ("eval", x.sub, None), ("eval", x.body, None)]
            else:
                kids = children(x)
                todo.append(("build", type(x), len(kids)))
                todo += [("eval", kid, None) for kid in reversed(kids)]
        elif isinstance(x, Abs):  # task == "subst": apply the pure sub to pure x
            todo += [("build", Abs, 1), ("subst", x.body, Lift(sub))]
        elif isinstance(x, App):
            todo += [("build", App, 2), ("subst", x.arg, sub), ("subst", x.fun, sub)]
        else:
            n, lifts = x.n, 0
            while isinstance(sub, Lift) and n > 0:  # (n+1)[lift(s)] = n[s][shift]
                sub, n, lifts = sub.sub, n - 1, lifts + 1
            if isinstance(sub, Slash):
                done.append(sub.term if n == 0 else Index(n - 1))
            else:
                done.append(Index(0) if isinstance(sub, Lift) else Index(n + 1))
            todo += [("apply", None, SHIFT)] * lifts
    (normal,) = done
    return normal


def chi_square_quantile(df: int, p: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile."""
    z = {0.999: 3.090232306167813, 0.99: 2.3263478740408408}[p]
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.fixture
def default_recursion_limit():
    """Run a test under Python's default recursion limit of 1000."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)
