"""Derive, prove and check the P-recurrences behind ``lamupsilon.series``.

    python3 tools/derive_recurrences.py

For every ``ParamKind`` the parameter total f(n) over all size-n terms is
the n-th coefficient of an algebraic generating function F(z), because T
is the Catalan series minus 1 and S = zC/(1 - z).  Its coefficients satisfy
a linear recurrence with polynomial coefficients,

    P_0(n) f(n) + P_1(n) f(n - 1) + ... + P_r(n) f(n - r) = 0,

which ``lamupsilon.series`` stores as ``(initial, polys)``: ``initial`` is
f(0), ..., f(start - 1) and ``polys[i][j]`` is the coefficient of n**j in
P_i.  Every table is derived the same way, by the ``algeqtodiffeq`` and
``diffeqtorec`` steps of Salvy and Zimmermann's GFUN (ACM TOMS 1994), and
the script exits with status 1 if a step fails or a table differs from the
one in ``src/``:

1. Write the generating function as an element y of a tower of quadratic
   extensions of Q(z) (``Quadratic`` is the arithmetic of one level), after
   checking that the counting series it is built from solve their system.
   The nine totals F lie in Q(z)(sqrt(1 - 4z)), of degree 2 over Q(z), as
   the oracle's own marked grammar ``series._marked_totals``.  The nested-free
   counts (T~ of ``solve_restricted_series``) are a root of a quadratic
   over Q(z)(P), and P of one over Q(z), so T~ lies in
   Q(z)(sqrt(d_P))(sqrt(d_T~)), of degree 4.
2. Derive.  Differentiate in the tower, with sqrt(e)' = e' sqrt(e) / (2e).
   In a field of degree D over Q(z), the D + 1 vectors 1, y, y', ...,
   y^(D-1) in D coordinates satisfy the linear relation given by their
   signed D x D minors: an inhomogeneous ODE, proved by construction, of
   order 1 for the nine totals and of order 3 and degree 39 for T~.  Read
   the recurrence off the ODE coefficient by coefficient; it holds for
   every n past the degree of the inhomogeneous part.  ``start_of`` fixes
   the start on the order-256 series, and ``natural_roots`` checks that
   P_0 has no integer root from there on.  The nine totals get
   recurrences of degree 1 and order 1 to 10, T~ one of degree 3 and
   order 37.
3. Check.  Run each table forward with ``series._recurrence_values`` (the
   loop behind ``expected_param_exact`` and ``nested_free_fraction``) and
   compare it with the coefficients of the order-``CHECK_ORDER`` series
   oracles, ``_expectation_totals`` and ``solve_restricted_series``.
4. Compare the tables with ``series._RECURRENCES`` and
   ``series._NESTED_FREE_RECURRENCE``; if they differ, print the derived
   ones as literals to paste into ``src/``.

Standard library only.  The test suite runs steps 1 and 2 through
``derive_tables`` (about 1.5 s) and compares the result with ``src/``; only
this script runs the check.  On one core of a 2-core x86-64 machine with
Python 3.11 the whole run takes about 95 s, nearly all of it the
order-2048 oracle series; steps 1 and 2 take about 1.5 s.
"""

from __future__ import annotations

import math
import os
import sys
import time
from fractions import Fraction
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lamupsilon import series  # noqa: E402
from lamupsilon.series import (  # noqa: E402
    ParamKind,
    _expectation_totals,
    _poly_at,
    solve_restricted_series,
)

WINDOW = 256
CHECK_ORDER = 2048


# --- differential fields: Q(z) and towers of quadratic extensions -------
#
# Polynomials are tuples of Fractions, lowest degree first, without trailing
# zeros; rational functions are (numerator, monic denominator) in lowest
# terms.  ``Quadratic(base, d)`` is the field base(sqrt(d)), whose elements
# are pairs (a, b) = a + b sqrt(d).  The nine totals live in
# Q(z)(sqrt(1 - 4z)); T~ lives one level up (``nested_free_tower``).


def p_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def p_add(p, q):
    n = max(len(p), len(q))
    return p_trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def p_neg(p):
    return tuple(-c for c in p)


def p_sub(p, q):
    return p_add(p, p_neg(q))


def p_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return p_trim(out)


def p_divmod(p, q):
    p = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q) and p:
        factor = Fraction(p[-1]) / q[-1]
        shift = len(p) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p = list(p_trim(p))
    return p_trim(quot), tuple(p)


def p_monic(p):
    return tuple(Fraction(c) / p[-1] for c in p)


def p_primitive(p):
    """The integer multiple of p whose coefficients have no common factor."""
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * scale) for c in p]
    common = math.gcd(*ints)
    return [c // common for c in ints]


def p_gcd(p, q):
    """Monic gcd by a primitive pseudo-remainder sequence over the integers
    (Euclid over Q lets the Fraction coefficients explode on T~'s tower)."""
    if not p or not q:
        return p_monic(p or q)
    a, b = p_primitive(p), p_primitive(q)
    while b:
        while len(a) >= len(b):  # a <- lc(b) a - lc(a) z^shift b
            factor, shift = a[-1], len(a) - len(b)
            a = [b[-1] * c for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = list(p_trim(a))
        a, b = b, (p_primitive(a) if a else [])
    return p_monic(a)


def p_deriv(p):
    return p_trim(i * c for i, c in enumerate(p) if i)


def p_det(matrix):
    """Determinant of a square matrix of polynomials (Laplace, first row)."""
    if len(matrix) == 1:
        return matrix[0][0]
    out = ()
    for j, entry in enumerate(matrix[0]):
        if entry:
            term = p_mul(entry, p_det([row[:j] + row[j + 1 :] for row in matrix[1:]]))
            out = p_add(out, term if j % 2 == 0 else p_neg(term))
    return out


def poly(*coeffs):
    return p_trim(Fraction(c) for c in coeffs)


def rf(num, den=(Fraction(1),)):
    if not num:
        return ((), (Fraction(1),))
    g = p_gcd(num, den)
    num, den = p_divmod(num, g)[0], p_divmod(den, g)[0]
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


def rf_add(x, y):
    return rf(p_add(p_mul(x[0], y[1]), p_mul(y[0], x[1])), p_mul(x[1], y[1]))


def rf_mul(x, y):
    return rf(p_mul(x[0], y[0]), p_mul(x[1], y[1]))


def rf_inv(x):
    if not x[0]:
        raise ZeroDivisionError("inverse of zero")
    return rf(x[1], x[0])


class RationalFunctions:
    """Q(z) as a differential field under d/dz: the base of every tower."""

    zero = rf(())
    one = rf(poly(1))
    add = staticmethod(rf_add)
    mul = staticmethod(rf_mul)
    inv = staticmethod(rf_inv)

    def rational(self, num, den=(1,)):
        """The element num(z) / den(z), from coefficient tuples."""
        return rf(poly(*num), poly(*den))

    def neg(self, x):
        return p_neg(x[0]), x[1]

    def sub(self, x, y):
        return rf_add(x, self.neg(y))

    def deriv(self, x):
        num, den = x
        return rf(p_sub(p_mul(p_deriv(num), den), p_mul(num, p_deriv(den))), p_mul(den, den))

    def coordinates(self, x):
        return [x]


class Quadratic:
    """base(r) with r = sqrt(d) for a non-square d of the differential field
    base; a + b r is the pair (a, b), and r' = d' r / (2 d)."""

    def __init__(self, base, disc):
        self.base, self.disc = base, disc
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)
        self.root = (base.zero, base.one)
        self._log_deriv = base.mul(base.deriv(disc), base.inv(base.add(disc, disc)))

    def embed(self, x):
        """x of the base field as an element of this one."""
        return x, self.base.zero

    def rational(self, num, den=(1,)):
        return self.embed(self.base.rational(num, den))

    def add(self, x, y):
        return self.base.add(x[0], y[0]), self.base.add(x[1], y[1])

    def neg(self, x):
        return self.base.neg(x[0]), self.base.neg(x[1])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        base = self.base
        a = base.add(base.mul(x[0], y[0]), base.mul(self.disc, base.mul(x[1], y[1])))
        return a, base.add(base.mul(x[0], y[1]), base.mul(x[1], y[0]))

    def inv(self, x):
        """1 / (a + b r) = (a - b r) / (a^2 - b^2 d)."""
        base = self.base
        a, b = x
        norm = base.inv(base.sub(base.mul(a, a), base.mul(self.disc, base.mul(b, b))))
        return base.mul(a, norm), base.neg(base.mul(b, norm))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def deriv(self, x):
        base = self.base
        return base.deriv(x[0]), base.add(base.deriv(x[1]), base.mul(x[1], self._log_deriv))

    def coordinates(self, x):
        """Coordinates over Q(z), in the basis of products of the roots."""
        return self.base.coordinates(x[0]) + self.base.coordinates(x[1])


QZ = RationalFunctions()
K = Quadratic(QZ, QZ.rational((1, -4)))  # Q(z)(R), R = sqrt(1 - 4z)


# --- the generating functions as elements of towers ------------------------


class InK:
    """An element x of K under the + - * / of ``series._marked_totals``."""

    def __init__(self, x):
        self.x = x

    def __add__(self, other):
        return InK(K.add(self.x, other.x))

    def __sub__(self, other):
        return InK(K.sub(self.x, other.x))

    def __mul__(self, other):
        return InK(K.mul(self.x, other.x))

    def __truediv__(self, other):
        return InK(K.div(self.x, other.x))


def generating_functions() -> dict[ParamKind, tuple]:
    """F for every parameter: ``series._marked_totals`` evaluated in K, after
    checking that the algebraic T, S solve the counting system."""
    one, z = InK(K.one), InK(K.rational((0, 1)))
    # C = (1 - R)/(2z), T = C - 1, S = zC/(1-z), N = z/(1-z)
    c = (one - InK(K.root)) / InK(K.rational((0, 2)))
    t = c - one
    s = z * c / (one - z)
    n = z / (one - z)
    # the system the series solver runs: T = N + zT + zT^2 + zTS, S = zT + zS + z
    if (n + z * t + z * t * t + z * t * s).x != t.x or (z * t + z * s + z).x != s.x:
        raise SystemExit("the algebraic T, S do not solve the counting system")
    return {param: f.x for param, f in series._marked_totals(one, z, t, s).items()}


def nested_free_tower():
    """(field, y): T~ as an element y of Q(z)(sqrt(d_P))(sqrt(d_T~)), after
    checking that it solves the system of ``series.solve_restricted_series``.

    P = N + zP + zP^2 with N = z/(1-z) gives P = ((1-z)^2 - sqrt(d_P)) /
    (2z(1-z)); then S~ = z(P + 1)/(1-z) is rational in P, and T~ = N + zT~ +
    zT~^2 + zT~S~ is a quadratic over Q(z)(sqrt(d_P)) with b = z + zS~ - 1.
    Which square root the series takes does not matter: a conjugate of y
    satisfies every Q(z)-linear differential relation that y does."""
    k1 = Quadratic(QZ, QZ.rational((1, -4, 2, 0, 1)))  # (1-z)^4 - 4z^2(1-z)
    add, sub, mul = k1.add, k1.sub, k1.mul
    one, z, n = k1.one, k1.rational((0, 1)), k1.rational((0, 1), (1, -1))
    p = k1.div(sub(k1.rational((1, -2, 1)), k1.root), k1.rational((0, 2, -2)))
    sbar = k1.div(mul(z, add(p, one)), k1.rational((1, -1)))
    if add(n, mul(z, add(p, mul(p, p)))) != p or add(mul(z, add(p, sbar)), z) != sbar:
        raise SystemExit("the algebraic P, S~ do not solve the restricted system")
    b = sub(add(z, mul(z, sbar)), one)
    k2 = Quadratic(k1, sub(mul(b, b), mul(k1.rational((0, 4)), n)))
    y = k2.div(k2.sub(k2.neg(k2.embed(b)), k2.root), k2.rational((0, 2)))
    zy = k2.mul(k2.rational((0, 1)), y)
    rhs = k2.add(k2.add(k2.embed(n), zy), k2.mul(zy, k2.add(y, k2.embed(sbar))))
    if rhs != y:
        raise SystemExit("the algebraic T~ does not solve the restricted system")
    return k2, y


# --- from an algebraic element to an ODE to a recurrence ------------------


def linear_ode(field, y) -> list[tuple[int, ...]]:
    """Coprime integer polynomials q_0, ..., q_(d+1), lowest degree first, with
    q_0 + q_1 y + q_2 y' + ... + q_(d+1) y^(d) = 0 for d = [field : Q(z)] - 1.

    1, y, ..., y^(d) are d + 2 vectors in the d + 1 coordinates of the field
    over Q(z).  Once each coordinate row is scaled to polynomials, the signed
    maximal minors of that matrix annihilate every row (each sum is the
    determinant of a matrix with a repeated row), so the relation is proved
    by construction."""
    columns = [field.one, y]
    while len(columns) < len(field.coordinates(y)) + 1:
        columns.append(field.deriv(columns[-1]))
    matrix = []
    for row in zip(*map(field.coordinates, columns)):
        lcm = poly(1)
        for _, den in row:
            lcm = p_divmod(p_mul(lcm, den), p_gcd(lcm, den))[0]
        matrix.append([p_mul(num, p_divmod(lcm, den)[0]) for num, den in row])
    relation = []
    for j in range(len(columns)):
        minor = p_det([row[:j] + row[j + 1 :] for row in matrix])
        relation.append(minor if j % 2 == 0 else p_neg(minor))
    if not any(relation):
        raise SystemExit("y has a differential equation of lower order")
    common = ()
    for q in relation:
        common = p_gcd(common, q) if common else p_monic(q)
    relation = [p_divmod(q, common)[0] for q in relation]
    scale = math.lcm(*(c.denominator for q in relation for c in q))
    relation = [[int(c * scale) for c in q] for q in relation]
    scale = math.gcd(*(c for q in relation for c in q))
    return [tuple(c // scale for c in q) for q in relation]


def ode_to_recurrence(relation) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(polys, exact_from): the recurrence that the coefficients f(n) of y obey
    for every n >= exact_from, given the relation of ``linear_ode``.

    [z^m] z^i y^(k) = (m - i + k)! / (m - i)! f(m - i + k).  With s0 the least
    shift i - k over the terms and n = m - s0, the term c z^i y^(k) adds
    c (n - j)(n - j - 1) ... (n - j - k + 1) to P_j for j = i - k - s0.  The
    polynomial q_0 enters only the equations with m <= deg q_0."""
    inhomogeneous, *derivatives = relation
    terms = [(k, i, c) for k, q in enumerate(derivatives) for i, c in enumerate(q) if c]
    low = min(i - k for k, i, _ in terms)
    polys = [[0] * len(derivatives) for _ in range(max(i - k for k, i, _ in terms) - low + 1)]
    for k, i, c in terms:
        j = i - k - low
        falling = [1]  # (n - j)(n - j - 1) ... (n - j - k + 1), lowest degree first
        for root in range(j, j + k):
            falling = [a - root * b for a, b in zip([0] + falling, falling + [0])]
        for e, a in enumerate(falling):
            polys[j][e] += c * a
    if p_trim(polys[0])[-1] < 0:  # sign convention: P_0 has a positive leading coefficient
        polys = [[-c for c in poly_j] for poly_j in polys]
    scale = math.gcd(*(c for poly_j in polys for c in poly_j))
    exact_from = len(inhomogeneous) - low if inhomogeneous else 0
    return tuple(tuple(c // scale for c in poly_j) for poly_j in polys), exact_from


def natural_roots(lead) -> list[int]:
    """Roots n >= 0 of P_0, searched up to the Cauchy bound 1 + max |a_i / a_d|."""
    bound = 1 + math.ceil(max((abs(Fraction(c, lead[-1])) for c in lead[:-1]), default=0))
    return [n for n in range(bound + 1) if _poly_at(lead, n) == 0]


def start_of(polys, f) -> int:
    """Least start such that the recurrence holds and P_0 has no root from there
    on, judged on the window f (the ODE covers every larger n)."""
    start = max([len(polys) - 1] + [n + 1 for n in natural_roots(polys[0])])
    bad = [
        n for n in range(start, len(f))
        if sum(_poly_at(poly, n) * f[n - i] for i, poly in enumerate(polys))
    ]
    if bad:
        start = bad[-1] + 1
    return start


def derive(name: str, field, y, f, began: float):
    """The (initial, polys) table entry for the coefficients f of y, an element
    of the differential field ``field``, derived and proved: the ODE of
    ``linear_ode``, its recurrence, and the start fixed on the window f."""
    relation = linear_ode(field, y)
    polys, exact_from = ode_to_recurrence(relation)
    start = start_of(polys, f)
    # the ODE covers n >= exact_from; start_of has checked start <= n < len(f)
    if start > max(exact_from, len(polys) - 1, *(n + 1 for n in natural_roots(polys[0]))):
        raise SystemExit(f"{name}: the recurrence fails on the series at n = {start - 1}")
    if exact_from >= len(f):
        raise SystemExit(f"{name}: the recurrence is proved only from n = {exact_from}")
    print(
        f"{name:12s} ODE order {len(relation) - 2}  degree "
        f"{max(len(q) for q in relation) - 1}  ->  order {len(polys) - 1}  degree "
        f"{len(polys[0]) - 1}  start {start}  proved  ({time.perf_counter() - began:.1f} s)"
    )
    return tuple(f[:start]), polys


def derive_tables(began: float):
    """(``_RECURRENCES``, ``_NESTED_FREE_RECURRENCE``) as ``derive`` builds them,
    with the windows cut from the order-``WINDOW`` series."""
    totals = _expectation_totals(WINDOW)
    table = {
        param: derive(param.value, K, y, totals[param].coeffs, began)
        for param, y in generating_functions().items()
    }
    field, y = nested_free_tower()
    nested = derive("nested_free", field, y, solve_restricted_series(WINDOW)[2].coeffs, began)
    return table, nested


# --- forward check against the series oracles -----------------------------


def main() -> int:
    began = time.perf_counter()
    table, nested = derive_tables(began)

    check = _expectation_totals(CHECK_ORDER)
    runs = {param.value: (entry, check[param].coeffs) for param, entry in table.items()}
    runs["nested_free"] = (nested, solve_restricted_series(CHECK_ORDER)[2].coeffs)
    for name, (entry, oracle) in runs.items():
        if list(islice(series._recurrence_values(*entry), CHECK_ORDER + 1)) != list(oracle):
            print(f"{name}: differs from the order-{CHECK_ORDER} series")
            return 1
    print(f"all tables match the series for n <= {CHECK_ORDER}"
          f"  ({time.perf_counter() - began:.1f} s)")

    stale = False
    if table != series._RECURRENCES:
        print("the derived tables differ from lamupsilon.series._RECURRENCES:")
        print("_RECURRENCES = {")
        for param, (initial, polys) in table.items():
            print(f"    ParamKind.{param.name}: ({initial}, {polys}),")
        print("}")
        stale = True
    if nested != series._NESTED_FREE_RECURRENCE:
        print("the derived T~ table differs from lamupsilon.series._NESTED_FREE_RECURRENCE:")
        print(f"_NESTED_FREE_RECURRENCE = {nested}")
        stale = True
    if stale:
        return 1
    print("lamupsilon.series._RECURRENCES and _NESTED_FREE_RECURRENCE are up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
