"""Exact enumeration, truncated power-series solutions and P-recurrences.

``expected_param_exact`` serves each parameter total from an exact-integer
P-recurrence (``_RECURRENCES``), and ``nested_free_fraction`` serves the
count of nested-free terms from one more (``_NESTED_FREE_RECURRENCE``);
both run forward in O(n) big-integer steps through one loop.  Two oracles
stand behind them: brute-force term enumeration, and O(n**2) truncated
power series.  T, S and T~ are degree-by-degree fixpoint solutions of
their systems (every right-hand side carries a factor z, so degree k
depends only on degrees below k), and the totals evaluate the marked
grammar ``_marked_totals`` over T and S.  All arithmetic is exact: big
integers for counts and totals, and ``fractions.Fraction`` only at the
final expectation/ratio step.

Every generating function behind these tables is algebraic: the nine
parameter totals lie in Q(z)(sqrt(1 - 4z)), and T~ is a root of a
quadratic over Q(z)(P), where P is itself quadratic over Q(z).
``tools/derive_recurrences.py`` derives each table from that algebraic
equation (the ``algeqtodiffeq`` and ``diffeqtorec`` steps of Salvy and
Zimmermann's GFUN), evaluating the same ``_marked_totals`` in that field:
the Q(z)-linear relation among 1, the function and its derivatives is an
inhomogeneous ODE, proved by construction, and the recurrence is read off
it.  The tool checks every table against the series oracles to order 2048
(enumeration checks the shared grammar); the derivation takes about a
second and a half.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from operator import mul
from typing import Iterator, Optional

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
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @classmethod
    def z(cls, order: int) -> "Series":
        return cls([0, 1] + [0] * (order - 1)) if order >= 1 else cls([0])

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

    def __mul__(self, other: "Series") -> "Series":
        """Cauchy product, skipping the trailing zeros of the sparser factor."""
        order = min(self.order, other.order)
        a, b = sorted((self.coeffs[: order + 1], other.coeffs[: order + 1]), key=_support)
        a = a[: _support(a)]
        return Series([sum(map(mul, a, b[k::-1])) for k in range(order + 1)])

    def __truediv__(self, other: "Series") -> "Series":
        """Exact quotient; the divisor needs an invertible constant term, and
        its trailing zeros are skipped."""
        order = min(self.order, other.order)
        g0, *g_tail = other.coeffs[: _support(other.coeffs[: order + 1])]
        if g0 == 0:
            raise ZeroDivisionError("divisor has no constant term")
        f = self.coeffs
        q: list = []
        for k in range(order + 1):
            acc = f[k] - sum(map(mul, g_tail, reversed(q)))
            if g0 == 1:
                q.append(acc)
            elif g0 == -1:
                q.append(-acc)
            else:
                q.append(Fraction(acc, g0) if isinstance(acc, int) else acc / g0)
        return Series(q)


def _support(coeffs: tuple) -> int:
    """Length of coeffs without its trailing zeros, at least 1: a product
    with a polynomial such as z**3 or 1 - z then costs O(order)."""
    return max((i + 1 for i, c in enumerate(coeffs) if c), default=1)


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("catalan is defined for non-negative n")
    return math.comb(2 * n, n) // (n + 1)


def count_terms(n: int) -> int:
    """Number of terms of size n: Catalan(n) for n >= 1, zero at n = 0."""
    return 0 if n == 0 else catalan(n)


def _catalans() -> Iterator[int]:
    """Catalan(0), Catalan(1), ... by the step C(k+1) = C(k) 2(2k+1)/(k+2)."""
    catalan_k = 1
    for k in count():
        yield catalan_k
        catalan_k = catalan_k * 2 * (2 * k + 1) // (k + 2)


def count_substs(n: int) -> int:
    """Number of substitutions of size n: the partial Catalan sum below n."""
    return sum(islice(_catalans(), max(n, 0)))


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
    both = [0] * (order + 1)  # T~ + S~, so z T~ (T~ + S~) is one convolution
    for k in range(1, order + 1):
        nk = 1  # N = z/(1-z)
        p[k] = nk + p[k - 1] + sum(map(mul, p[:k], p[k - 1 :: -1]))
        sbar[k] = p[k - 1] + sbar[k - 1] + (1 if k == 1 else 0)
        tbar[k] = nk + tbar[k - 1] + sum(map(mul, tbar[:k], both[k - 1 :: -1]))
        both[k] = tbar[k] + sbar[k]
    return Series(p), Series(sbar), Series(tbar)


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


def _param_kind(param: ParamKind) -> ParamKind:
    if param.__class__ is not ParamKind:
        raise TypeError(f"not a ParamKind: {param!r}")
    return param


def param_value(term: Term, param: ParamKind) -> int:
    """Value of the parameter on one term."""
    if _param_kind(param) is ParamKind.UNSUSPENDED:
        return unsuspended_constructors(term)
    return count_all_redexes(term)[param.rule_kind]


def _marked_totals(one, z, t, s) -> dict:
    """Every parameter's total generating function, over any ring with
    + - * / holding one, z and the counting series T, S: ``Series`` here,
    the field of ``tools/derive_recurrences.py`` there.

    Marking one redex kind with u adds (u - 1) M(z, T, S) to the system
    T = z/(1-z) + zT + zT^2 + zTS, S = zT + zS + z; the u-derivative at
    u = 1 is M / den, one den for all eight kinds.  Unsuspended constructors
    are the special case: no mark enters S, so den has no z^2 T/(1-z)."""
    zt = z * t
    tt, ts = t * t, t * s
    t_geo, s_geo = t / (one - z), s / (one - z)  # T/(1-z), S/(1-z)
    z2 = z * z
    z3 = z2 * z
    den = one - z - z * s - zt - zt - z2 * t_geo
    marks = {
        ParamKind.BETA: z2 * tt,
        ParamKind.APP: z2 * tt * s,
        ParamKind.LAMBDA: z2 * ts,
        ParamKind.FVAR: z3 * t,
        ParamKind.RVAR: z3 * z * t_geo,
        ParamKind.FVARLIFT: z3 * s,
        ParamKind.RVARLIFT: z3 * z * s_geo,
        ParamKind.VARSHIFT: z3 / (one - z),
    }
    totals = {param: mark / den for param, mark in marks.items()}
    unsuspended = z / ((one - z) * (one - z)) + zt + z * tt + z * ts
    totals[ParamKind.UNSUSPENDED] = unsuspended / (one - z - zt - zt - z * s)
    return totals


def _expectation_totals(order: int) -> dict[ParamKind, Series]:
    """Series whose n-th coefficient is the parameter total over all size-n
    terms, from ``_marked_totals`` over the solved counting series.  The
    O(order**2) oracle for ``_RECURRENCES``; nothing serves from it."""
    t, s, _ = solve_core_series(order)
    return _marked_totals(Series.one(order), Series.z(order), t, s)


#: P-recurrences for the parameter totals f(n) of ``_expectation_totals``:
#: sum_i P_i(n) f(n - i) = 0 for every n >= start, where P_i(n) is
#: sum_j polys[i][j] * n**j and P_0 has no root from start on.  Each entry
#: is (initial, polys) with initial = (f(0), ..., f(start - 1)).
#: ``tools/derive_recurrences.py`` derives each one from the algebraic
#: equation of its generating function (proved by construction) and checks
#: it against the series to order 2048.
_RECURRENCES: dict[ParamKind, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {
    ParamKind.BETA: (
        (0, 0, 0, 0, 1, 5, 22),
        ((0, 1), (12, -9), (-74, 26), (120, -26), (-52, 8)),
    ),
    ParamKind.APP: ((0, 0, 0, 0, 0, 1), ((0, 1), (12, -9), (-70, 25), (90, -20))),
    ParamKind.LAMBDA: ((0, 0, 0, 0, 1), ((-1, 1), (15, -7), (-42, 12))),
    ParamKind.FVAR: (
        (0, 0, 0, 0, 1, 3, 11),
        ((-2, 1), (22, -7), (-66, 14), (52, -8)),
    ),
    ParamKind.RVAR: ((0, 0, 0, 0, 0, 1), ((-3, 1), (24, -6), (-44, 8))),
    ParamKind.FVARLIFT: ((0, 0, 0, 0, 1), ((-3, 1), (14, -4))),
    ParamKind.RVARLIFT: ((0, 0, 0, 0, 0, 1), ((-4, 1), (22, -5), (-18, 4))),
    ParamKind.VARSHIFT: ((0, 0, 0, 1), ((-3, 1), (14, -4))),
    ParamKind.UNSUSPENDED: (
        (0, 1, 4, 14, 49, 175, 636, 2341, 8697, 32538),
        (
            (1, 1), (0, -14), (-82, 78), (470, -222), (-1053, 339), (949, -245),
            (-32, 18), (-479, 81), (219, -35), (41, -5), (-34, 4),
        ),
    ),
}


#: The same format, derived the same way, for the counts of nested-free
#: terms, the coefficients of T~ in ``solve_restricted_series``: an order-37
#: recurrence, from an ODE of order 3 and degree 39.
_NESTED_FREE_RECURRENCE: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] = (
    (
        0, 1, 2, 5, 14, 42, 131, 420, 1375, 4577, 15444, 52705, 181593, 630824, 2207020,
        7769814, 27504721, 97844219, 349602929, 1254124532, 4515151675, 16309180798,
        59088088306, 214669521159, 781898822706, 2854683707273, 10445257635613,
        38297298411106, 140684300533775, 517723718264463, 1908432596149266,
        7045920181428490, 26051959558401171, 96460149091802540, 357623817728712774,
        1327531221974716627, 4933715663122545310,
    ),
    (
        (0, -6, -3, 3),
        (0, -327, 444, -117),
        (-15288, 27130, -13977, 2117),
        (628422, -664502, 222519, -23617),
        (-11518476, 8892269, -2231436, 182095),
        (126193146, -77305360, 15567678, -1031000),
        (-930909102, 474120591, -79830573, 4445202),
        (4925391444, -2149602432, 311098050, -14932986),
        (-19400202096, 7412060939, -940588962, 39647623),
        (58187948922, -19774428931, 2233705734, -83861837),
        (-134730416844, 41225350414, -4193316492, 141756530),
        (243075928812, -67573590927, 6241702755, -191485950),
        (-345893599140, 87822795425, -7401046275, 206870992),
        (400407056880, -92808053703, 7126459302, -181069311),
        (-407436025602, 85499560247, -5924759076, 135256927),
        (412563132090, -77704292595, 4807179750, -97226637),
        (-441956840904, 75288587319, -4189110465, 75560508),
        (463710883572, -72692978436, 3708285846, -60983382),
        (-428833945632, 62509491894, -2954705229, 44773929),
        (324575932878, -43938988404, 1915013376, -26421102),
        (-183596196600, 22357629496, -851604291, 9653861),
        (58494742854, -4891314071, 64500408, 1691477),
        (20409135564, -5054056052, 334672176, -6679504),
        (-59350464270, 9135943572, -458923275, 7557315),
        (70301430516, -9588867393, 433576212, -6502179),
        (-58963262064, 7530546651, -319790916, 4515681),
        (39461182386, -4796043303, 194022114, -2612517),
        (-24707736264, 2857814496, -110136018, 1414110),
        (14578446612, -1609560991, 59241546, -726839),
        (-7122173124, 755352438, -26708910, 314856),
        (3139265100, -320216410, 10890543, -123491),
        (-1469333868, 144442093, -4733829, 51722),
        (563390676, -53597187, 1699476, -17961),
        (-157425438, 14522093, -446412, 4573),
        (53383074, -4814523, 144690, -1449),
        (-14848656, 1309783, -38496, 377),
        (1034892, -87283, 2454, -23),
        (-194472, 15986, -438, 4),
    ),
)


def _poly_at(coeffs: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _recurrence_values(initial, polys) -> Iterator[int]:
    """f(0), f(1), ... of one recurrence table entry, run forward with divmod;
    a non-zero remainder raises, so a wrong table never yields a value."""
    yield from initial
    lead, *rest = polys
    window = list(initial[len(initial) - len(rest) :])  # f(k - r), ..., f(k - 1)
    for k in count(len(initial)):
        acc = sum(_poly_at(poly, k) * f for poly, f in zip(rest, reversed(window)))
        value, remainder = divmod(-acc, _poly_at(lead, k))
        if remainder:
            raise ArithmeticError(f"a recurrence gives a non-integer total at n = {k}")
        yield value
        window.append(value)
        del window[0]


def _nth_value(entry, n: int) -> int:
    """f(n) of one recurrence table entry, from its forward run."""
    return next(islice(_recurrence_values(*entry), n, None))


def expected_param_exact(param: ParamKind, n: int) -> Fraction:
    """Exact expectation of the parameter over uniform size-n terms,
    from its recurrence in O(n) big-integer steps."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(_nth_value(_RECURRENCES[_param_kind(param)], n), count_terms(n))


def nested_free_fraction(n: int) -> Fraction:
    """Exact share of size-n terms without any nested substitution,
    from the T~ recurrence in O(n) big-integer steps."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(_nth_value(_NESTED_FREE_RECURRENCE, n), count_terms(n))


def total_param_bruteforce(
    param: ParamKind, n: int, max_size: int = ENUMERATION_BOUND
) -> int:
    """Parameter total over all size-n terms, by exhaustive enumeration."""
    _param_kind(param)  # also where n leaves no term to evaluate it on
    return sum(param_value(t, param) for t in enumerate_terms(n, max_size))
