"""Derive, prove and check the P-recurrences behind ``lamupsilon.series``.

    python3 tools/derive_recurrences.py

For every ``ParamKind`` the parameter total f(n) over all size-n terms is
the n-th coefficient of an algebraic generating function F(z), because T
is the Catalan series minus 1 and S = zC/(1 - z).  Its coefficients satisfy
a linear recurrence with polynomial coefficients,

    P_0(n) f(n) + P_1(n) f(n - 1) + ... + P_r(n) f(n - r) = 0,

which ``lamupsilon.series`` stores as ``(initial, polys)``: ``initial`` is
f(0), ..., f(start - 1) and ``polys[i][j]`` is the coefficient of n**j in
P_i.  This script rebuilds that table in four steps and exits with status 1
if any step fails or the table differs from the one in ``src/``:

1. Guess.  For each order r = 1, 2, ... and degree d = 0, 1, ..., solve the
   exact linear system for the (r + 1)(d + 1) coefficients on the order-256
   oracle series (equations from n = 40 on), keep the first (r, d) with a
   solution, and confirm it on the whole fit window n <= 256.
2. Prove.  Write F = a(z) + b(z) sqrt(1 - 4z) with a, b rational, from
   the same formulas as ``series._expectation_totals``.  The recurrence holds
   for every n >= start exactly when G = sum_i P_i(theta) (z**i F), with
   theta = z d/dz, is a polynomial of degree below start: its sqrt part
   must vanish and its rational part must be such a polynomial.  The
   forward loop also needs P_0(n) != 0 for n >= start, which is checked up
   to the Cauchy bound on the integer roots of P_0.
3. Check.  Run the table forward with ``series._recurrence_values`` (the
   loop behind ``expected_param_exact``) and compare it with the
   coefficients of ``_expectation_totals(CHECK_ORDER)`` for every
   n <= CHECK_ORDER.
4. Compare the derived table with ``series._RECURRENCES``; if they differ,
   print the derived table as a literal to paste into ``src/``.

The nested-free counts (T~ of ``solve_restricted_series``, served from
``series._NESTED_FREE_RECURRENCE``) need a recurrence of order 37, far
beyond what the guess above can reach, so they are derived instead, by the
``algeqtodiffeq`` and ``diffeqtorec`` steps of Salvy and Zimmermann's GFUN
(ACM TOMS 1994):

a. T~ is a root of a quadratic over Q(z)(P), and P of one over Q(z), so T~
   is an element y of the tower Q(z)(sqrt(d_P))(sqrt(d_T~)), of degree 4
   over Q(z).  ``Quadratic`` is the arithmetic of one level of the tower;
   the script checks that y solves the restricted system.
b. Differentiate in the tower, with sqrt(d)' = d' sqrt(d) / (2d).  The five
   vectors 1, y and its first three derivatives, in four coordinates over
   Q(z), satisfy the linear relation given by their signed 4 x 4 minors:
   an inhomogeneous ODE of order 3 whose polynomial coefficients have
   degree up to 39, proved by construction.
c. Read the recurrence off the ODE coefficient by coefficient; it holds for
   every n past the degree of the inhomogeneous part.  ``start_of`` and
   ``natural_roots`` then fix the start (37) and check the integer roots
   of P_0.
d. Check the table against ``solve_restricted_series(CHECK_ORDER)`` and
   compare it with ``series._NESTED_FREE_RECURRENCE``, as in steps 3 and 4.

Standard library only; not part of the test suite.  On one core of a
2-core x86-64 machine with Python 3.11 the whole run takes about 110 s:
the order-2048 oracle series about 80 s, the guess for ``unsuspended``
about 25 s, and steps a-c about one second.
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

FIT_ORDER = 256
CHECK_ORDER = 2048
FIT_FROM = 40
MAX_ORDER = 8
MAX_DEGREE = 8
MAX_UNKNOWNS = 80


# --- step 1: guessing by exact linear algebra -----------------------------


def nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the rational nullspace, by Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vector = [Fraction(0)] * ncols
        vector[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vector[col] = -rows[i][free]
        basis.append(vector)
    return basis


def residual(polys, f, n: int) -> int:
    return sum(_poly_at(poly, n) * f[n - i] for i, poly in enumerate(polys))


def guess(f) -> tuple[tuple[int, ...], ...]:
    """Lowest-order, then lowest-degree recurrence that f satisfies on the window."""
    for order in range(1, MAX_ORDER + 1):
        for degree in range(MAX_DEGREE + 1):
            unknowns = (order + 1) * (degree + 1)
            if unknowns > MAX_UNKNOWNS:
                break
            rows = [
                [n**j * f[n - i] for i in range(order + 1) for j in range(degree + 1)]
                for n in range(FIT_FROM, FIT_FROM + unknowns + 8)
            ]
            basis = nullspace(rows, unknowns)
            if not basis:
                continue
            if len(basis) > 1:
                raise SystemExit(f"order {order}, degree {degree}: {len(basis)} solutions")
            scale = math.lcm(*(x.denominator for x in basis[0]))
            ints = [int(x * scale) for x in basis[0]]
            ints = [x // math.gcd(*ints) for x in ints]
            polys = [ints[i * (degree + 1) : (i + 1) * (degree + 1)] for i in range(order + 1)]
            if polys[0][-1] < 0:  # sign convention: P_0 has a positive leading coefficient
                polys = [[-c for c in poly] for poly in polys]
            return tuple(tuple(poly) for poly in polys)
    raise SystemExit("no recurrence within the search bounds")


def natural_roots(lead) -> list[int]:
    """Roots n >= 0 of P_0, searched up to the Cauchy bound 1 + max |a_i / a_d|."""
    bound = 1 + math.ceil(max((abs(Fraction(c, lead[-1])) for c in lead[:-1]), default=0))
    return [n for n in range(bound + 1) if _poly_at(lead, n) == 0]


def start_of(polys, f) -> int:
    """Least start such that the recurrence holds and P_0 has no root from there
    on, judged on the window f (the proofs cover every larger n)."""
    start = max([len(polys) - 1] + [n + 1 for n in natural_roots(polys[0])])
    bad = [n for n in range(start, len(f)) if residual(polys, f, n)]
    if bad:
        start = bad[-1] + 1
    return start


# --- step 2: proof on the algebraic generating functions -----------------
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


def p_pow(p, k):
    out = poly(1)
    for _ in range(k):
        out = p_mul(out, p)
    return out


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


def generating_functions() -> dict[ParamKind, tuple]:
    """F for every parameter, transcribed from ``series._expectation_totals``."""
    add, sub, mul = K.add, K.sub, K.mul
    one, z, two = K.one, K.rational((0, 1)), K.rational((2,))
    geometric = K.rational((1,), (1, -1))  # 1/(1-z)
    # C = (1 - R)/(2z), T = C - 1, S = zC/(1-z), N = z/(1-z)
    c = K.div(sub(one, K.root), K.rational((0, 2)))
    t = sub(c, one)
    s = mul(mul(z, c), geometric)
    n = mul(z, geometric)
    # the system the series solver runs: T = N + zT + zT^2 + zTS, S = zT + zS + z
    zt = mul(z, t)
    rhs_t = add(add(n, zt), add(mul(zt, t), mul(zt, s)))
    rhs_s = add(add(zt, mul(z, s)), z)
    if rhs_t != t or rhs_s != s:
        raise SystemExit("the algebraic T, S do not solve the counting system")
    z2 = mul(z, z)
    z3, z4 = mul(z2, z), mul(z2, z2)
    t2 = mul(t, t)
    ts = mul(t, s)
    pref_t = mul(t, geometric)
    pref_s = mul(s, geometric)
    den = sub(sub(one, z), add(add(mul(z, s), mul(two, zt)), mul(z2, pref_t)))
    numerators = {
        ParamKind.BETA: mul(z2, t2),
        ParamKind.APP: mul(z2, mul(t2, s)),
        ParamKind.LAMBDA: mul(z2, ts),
        ParamKind.FVAR: mul(z3, t),
        ParamKind.RVAR: mul(z4, pref_t),
        ParamKind.FVARLIFT: mul(z3, s),
        ParamKind.RVARLIFT: mul(z4, pref_s),
        ParamKind.VARSHIFT: mul(z3, geometric),
    }
    out = {param: K.div(num, den) for param, num in numerators.items()}
    ramp = K.rational((0, 1), (1, -2, 1))  # z/(1-z)^2
    numerator = add(add(ramp, zt), add(mul(zt, t), mul(zt, s)))
    den_u = sub(sub(one, z), add(mul(two, zt), mul(z, s)))
    out[ParamKind.UNSUSPENDED] = K.div(numerator, den_u)
    return out


def prove(f_alg, polys, start: int) -> None:
    """Raise SystemExit unless the recurrence holds for every n >= start."""
    # sum_i P_i(theta) z^i F = sum_i z^i P_i(theta + i) F = sum_j c_j(z) theta^j F
    degree = len(polys[0]) - 1
    c = [[Fraction(0)] * len(polys) for _ in range(degree + 1)]
    for i, poly_i in enumerate(polys):
        for k, coeff in enumerate(poly_i):  # coeff (x + i)^k, binomially expanded
            for j in range(k + 1):
                c[j][i] += coeff * math.comb(k, j) * i ** (k - j)
    # F = (A + B R)/D.  With E = 1 - 4z (so R' = -2R/E) and theta = z d/dz,
    # theta^j F = A_j / D^(j+1) + B_j R / (D^(j+1) E^j), where
    #   A_(j+1) = z (A_j' D - (j+1) A_j D'),
    #   B_(j+1) = z (E (B_j' D - (j+1) B_j D') + (4j - 2) B_j D),
    # so the check needs no polynomial gcd.
    (a_num, a_den), (b_num, b_den) = f_alg
    den = p_mul(a_den, b_den)
    a, b = p_mul(a_num, b_den), p_mul(b_num, a_den)
    e, z = poly(1, -4), poly(0, 1)
    d_den = p_deriv(den)
    rational, radical = (), ()
    for j, c_j in enumerate(c):
        c_j = p_trim(c_j)
        rest = p_pow(den, degree - j)
        rational = p_add(rational, p_mul(c_j, p_mul(a, rest)))
        radical = p_add(radical, p_mul(c_j, p_mul(b, p_mul(rest, p_pow(e, degree - j)))))
        a = p_mul(z, p_sub(p_mul(p_deriv(a), den), p_mul(poly(j + 1), p_mul(a, d_den))))
        b = p_mul(z, p_add(
            p_mul(e, p_sub(p_mul(p_deriv(b), den), p_mul(poly(j + 1), p_mul(b, d_den)))),
            p_mul(poly(4 * j - 2), p_mul(b, den)),
        ))
    quotient, remainder = p_divmod(rational, p_pow(den, degree + 1))
    if radical or remainder or len(quotient) > start:
        raise SystemExit("the recurrence does not annihilate F past its start")
    if any(n >= start for n in natural_roots(polys[0])):
        raise SystemExit("P_0 vanishes at or after the start")


# --- T~: from its algebraic equation to an ODE to a recurrence ----------


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


def derive_nested_free(began: float):
    """The ``series._NESTED_FREE_RECURRENCE`` entry, derived and proved."""
    field, y = nested_free_tower()
    relation = linear_ode(field, y)
    polys, exact_from = ode_to_recurrence(relation)
    f = solve_restricted_series(FIT_ORDER)[2].coeffs
    start = start_of(polys, f)
    # the ODE covers n >= exact_from; start_of has checked start <= n <= FIT_ORDER
    if start > max(exact_from, len(polys) - 1, *(n + 1 for n in natural_roots(polys[0]))):
        raise SystemExit(f"the T~ recurrence fails on the series at n = {start - 1}")
    if exact_from > FIT_ORDER:
        raise SystemExit(f"the T~ recurrence is proved only from n = {exact_from}")
    print(
        f"{'nested_free':12s} ODE order {len(relation) - 2}  degree "
        f"{max(len(q) for q in relation) - 1}  ->  order {len(polys) - 1}  degree "
        f"{len(polys[0]) - 1}  start {start}  proved  ({time.perf_counter() - began:.1f} s)"
    )
    return tuple(f[:start]), polys


# --- step 3: forward check against the series oracle ----------------------


def main() -> int:
    began = time.perf_counter()
    fit = _expectation_totals(FIT_ORDER)
    algebraic = generating_functions()
    table = {}
    for param in ParamKind:
        f = fit[param].coeffs
        polys = guess(f)
        start = start_of(polys, f)
        if start >= FIT_FROM:
            raise SystemExit(f"{param.value}: recurrence starts at {start}, inside the fit rows")
        prove(algebraic[param], polys, start)
        table[param] = (tuple(f[:start]), polys)
        print(
            f"{param.value:12s} order {len(polys) - 1}  degree {len(polys[0]) - 1}"
            f"  start {start}  proved  ({time.perf_counter() - began:.1f} s)"
        )
    nested = derive_nested_free(began)

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
