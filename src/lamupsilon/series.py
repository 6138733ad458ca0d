"""Exact enumeration and truncated power-series solutions.

Counting sequences and parameter totals are computed two independent
ways: degree-by-degree fixpoint solutions of the defining
generating-function systems (every right-hand side carries a factor z,
so degree k depends only on degrees below k), and brute-force term
enumeration.  All arithmetic is exact: big integers for counts, and
``fractions.Fraction`` only at the final expectation/ratio step.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional

from .rewrite import RuleKind, count_all_redexes, unsuspended_constructors
from .terms import SHIFT, Abs, App, Closure, Index, Lift, Slash, Subst, Term


class BoundExceeded(ValueError):
    """Requested size is beyond the configured enumeration bound."""


class Series:
    """Truncated formal power series with exact coefficients.

    ``coeffs[k]`` is the coefficient of z**k; the truncation order is
    ``len(coeffs) - 1``.  Coefficients are ints or Fractions and all
    operations are exact.  Binary operations truncate to the smaller
    order of their operands.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @classmethod
    def z(cls, order: int) -> "Series":
        return cls([0, 1] + [0] * (order - 1)) if order >= 1 else cls([0])

    @classmethod
    def geometric(cls, order: int) -> "Series":
        """1/(1-z): all-ones coefficients."""
        return cls([1] * (order + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{head}{tail}]; order={self.order})"

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other: "Series") -> "Series":
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, factor) -> "Series":
        return Series([factor * c for c in self.coeffs])

    def shift(self, k: int) -> "Series":
        """Multiply by z**k, truncating at the original order."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Series(((0,) * k + self.coeffs)[: self.order + 1])

    def __mul__(self, other: "Series") -> "Series":
        a, b = self.coeffs, other.coeffs
        order = min(len(a), len(b)) - 1
        return Series(
            [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(order + 1)]
        )

    def __truediv__(self, other: "Series") -> "Series":
        """Exact quotient; the divisor needs an invertible constant term."""
        g = other.coeffs
        g0 = g[0]
        if g0 == 0:
            raise ZeroDivisionError("divisor has no constant term")
        order = min(self.order, other.order)
        f = self.coeffs
        q: list = []
        for k in range(order + 1):
            acc = f[k] - sum(map(mul, q, g[k:0:-1])) if k else f[0]
            if g0 == 1:
                q.append(acc)
            elif g0 == -1:
                q.append(-acc)
            else:
                q.append(Fraction(acc, g0) if isinstance(acc, int) else acc / g0)
        return Series(q)

    def prefix_sums(self) -> "Series":
        """Multiply by 1/(1-z): running sums of the coefficients."""
        out = []
        acc = 0
        for c in self.coeffs:
            acc += c
            out.append(acc)
        return Series(out)


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("catalan is defined for non-negative n")
    return math.comb(2 * n, n) // (n + 1)


def count_terms(n: int) -> int:
    """Number of terms of size n: Catalan(n) for n >= 1, zero at n = 0."""
    return 0 if n == 0 else catalan(n)


def count_substs(n: int) -> int:
    """Number of substitutions of size n: the partial Catalan sum below n."""
    return sum(catalan(k) for k in range(n))


@lru_cache(maxsize=None)
def solve_core_series(order: int) -> tuple[Series, Series, Series]:
    """Fixpoint solution of the term/substitution/index counting system.

    T = N + z T + z T^2 + z T S;  S = z T + z S + z;  N = z + z N.
    Returns (T, S, N); T's coefficients are the Catalan numbers.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    t = [0] * (order + 1)
    s = [0] * (order + 1)
    n = [0] + [1] * order
    for k in range(1, order + 1):
        tt = sum(map(mul, t[:k], t[k - 1 :: -1]))
        ts = sum(map(mul, t[:k], s[k - 1 :: -1]))
        t[k] = n[k] + t[k - 1] + tt + ts
        s[k] = t[k - 1] + s[k - 1] + (1 if k == 1 else 0)
    return Series(t), Series(s), Series(n)


@lru_cache(maxsize=None)
def solve_restricted_series(order: int) -> tuple[Series, Series, Series]:
    """Nested-substitution-free system: only pure terms under a slash.

    P = N + z P + z P^2;  S~ = z P + z S~ + z;  T~ = N + z T~ + z T~^2 + z T~ S~.
    Returns (P, S~, T~); T~ counts terms with no nested substitution.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    p = [0] * (order + 1)
    sbar = [0] * (order + 1)
    tbar = [0] * (order + 1)
    for k in range(1, order + 1):
        nk = 1  # N = z/(1-z)
        p[k] = nk + p[k - 1] + sum(map(mul, p[:k], p[k - 1 :: -1]))
        sbar[k] = p[k - 1] + sbar[k - 1] + (1 if k == 1 else 0)
        tbar[k] = (
            nk
            + tbar[k - 1]
            + sum(map(mul, tbar[:k], tbar[k - 1 :: -1]))
            + sum(map(mul, tbar[:k], sbar[k - 1 :: -1]))
        )
    return Series(p), Series(sbar), Series(tbar)


def nested_free_fraction(n: int) -> Fraction:
    """Exact share of size-n terms without any nested substitution."""
    if n < 1:
        raise ValueError("n must be positive")
    order = _order_bucket(n)
    _, _, tbar = solve_restricted_series(order)
    return Fraction(tbar.coefficient(n), count_terms(n))


#: Default cap for exhaustive enumeration (level 10 is about 16.8k terms).
ENUMERATION_BOUND = 10


@lru_cache(maxsize=None)
def _terms_of_size(n: int) -> tuple[Term, ...]:
    if n <= 0:
        return ()
    out: list[Term] = [Index(n - 1)]
    out.extend(Abs(a) for a in _terms_of_size(n - 1))
    for i in range(1, n - 1):
        right = _terms_of_size(n - 1 - i)
        for a in _terms_of_size(i):
            out.extend(App(a, b) for b in right)
    for i in range(1, n - 1):
        subs = _substs_of_size(n - 1 - i)
        for a in _terms_of_size(i):
            out.extend(Closure(a, s) for s in subs)
    return tuple(out)


@lru_cache(maxsize=None)
def _substs_of_size(n: int) -> tuple[Subst, ...]:
    if n <= 0:
        return ()
    out: list[Subst] = [SHIFT] if n == 1 else []
    out.extend(Slash(t) for t in _terms_of_size(n - 1))
    out.extend(Lift(s) for s in _substs_of_size(n - 1))
    return tuple(out)


def enumerate_terms(n: int, max_size: int = ENUMERATION_BOUND) -> tuple[Term, ...]:
    """All distinct terms of size exactly n, each exactly once."""
    if n > max_size:
        raise BoundExceeded(f"size {n} exceeds the enumeration bound {max_size}")
    return _terms_of_size(n)


def enumerate_substs(n: int, max_size: int = ENUMERATION_BOUND) -> tuple[Subst, ...]:
    """All distinct substitutions of size exactly n."""
    if n > max_size:
        raise BoundExceeded(f"size {n} exceeds the enumeration bound {max_size}")
    return _substs_of_size(n)


class ParamKind(Enum):
    """Parameters of a random term: the eight redex counts, or the
    number of constructors not suspended under a closure."""

    BETA = "beta"
    APP = "app"
    LAMBDA = "lambda"
    FVAR = "fvar"
    RVAR = "rvar"
    FVARLIFT = "fvarlift"
    RVARLIFT = "rvarlift"
    VARSHIFT = "varshift"
    UNSUSPENDED = "unsuspended"

    @property
    def rule_kind(self) -> Optional[RuleKind]:
        return None if self is ParamKind.UNSUSPENDED else RuleKind[self.name]


REDEX_PARAMS = tuple(p for p in ParamKind if p is not ParamKind.UNSUSPENDED)


def param_value(term: Term, param: ParamKind) -> int:
    """Value of the parameter on one term."""
    if param is ParamKind.UNSUSPENDED:
        return unsuspended_constructors(term)
    return count_all_redexes(term)[param.rule_kind]


def _order_bucket(n: int) -> int:
    """Power-of-two order >= n, so repeated queries share one solution."""
    order = 64
    while order < n:
        order *= 2
    return order


@lru_cache(maxsize=4)
def _expectation_totals(order: int) -> dict[ParamKind, Series]:
    """Series whose n-th coefficient is the parameter total over all
    size-n terms (the u-derivative at u=1 of each marked system)."""
    t, s, _ = solve_core_series(order)
    t2 = t * t
    ts = t * s
    z = Series.z(order)
    one = Series.one(order)
    pref_t = t.prefix_sums()  # T/(1-z)
    pref_s = s.prefix_sums()
    # Shared denominator for the redex-marked systems:
    # 1 - z - zS - 2zT - z^2 T/(1-z).
    den = one - z - s.shift(1) - t.shift(1).scale(2) - pref_t.shift(2)
    inv_den = one / den
    totals = {
        ParamKind.BETA: t2.shift(2) * inv_den,
        ParamKind.APP: (t2 * s).shift(2) * inv_den,
        ParamKind.LAMBDA: ts.shift(2) * inv_den,
        ParamKind.FVAR: t.shift(3) * inv_den,
        ParamKind.RVAR: pref_t.shift(4) * inv_den,
        ParamKind.FVARLIFT: s.shift(3) * inv_den,
        ParamKind.RVARLIFT: pref_s.shift(4) * inv_den,
        ParamKind.VARSHIFT: Series.geometric(order).shift(3) * inv_den,
    }
    # Unsuspended constructors: marking does not recurse into S, so the
    # denominator lacks the z^2 T/(1-z) piece.
    ramp = Series(range(order + 1))  # z/(1-z)^2
    numerator = ramp + t.shift(1) + t2.shift(1) + ts.shift(1)
    den_u = one - z - t.shift(1).scale(2) - s.shift(1)
    totals[ParamKind.UNSUSPENDED] = numerator / den_u
    return totals


def expected_param_exact(param: ParamKind, n: int) -> Fraction:
    """Exact expectation of the parameter over uniform size-n terms."""
    if n < 1:
        raise ValueError("n must be positive")
    totals = _expectation_totals(_order_bucket(n))
    return Fraction(totals[param].coefficient(n), count_terms(n))


def total_param_bruteforce(
    param: ParamKind, n: int, max_size: int = ENUMERATION_BOUND
) -> int:
    """Parameter total over all size-n terms, by exhaustive enumeration."""
    return sum(param_value(t, param) for t in enumerate_terms(n, max_size))
