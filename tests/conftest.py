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
    Slash,
    apply_at,
    find_redexes,
)
from lamupsilon.rewrite import ALL_RULES, UPSILON_RULES

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
