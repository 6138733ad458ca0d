"""Derive, prove and check the P-recurrences behind ``expected_param_exact``.

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

Standard library only; not part of the test suite (the order-2048 series
takes about 90 s).
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
from lamupsilon.series import ParamKind, _expectation_totals, _poly_at  # noqa: E402

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
    on, judged on the fit window (the proof in step 2 covers every n)."""
    start = max([len(polys) - 1] + [n + 1 for n in natural_roots(polys[0])])
    bad = [n for n in range(start, len(f)) if residual(polys, f, n)]
    if bad:
        start = bad[-1] + 1
    if start >= FIT_FROM:
        raise SystemExit(f"recurrence starts at {start}, inside the fit rows")
    return start


# --- step 2: proof on the algebraic generating functions -----------------
#
# Polynomials are tuples of Fractions, lowest degree first, without trailing
# zeros; rational functions are (numerator, monic denominator) in lowest
# terms; an element of Q(z)(R), R = sqrt(1 - 4z), is a pair (a, b) = a + b R.


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


def p_gcd(p, q):
    while q:
        p, q = q, p_divmod(p, q)[1]
    return p_monic(p)


def p_deriv(p):
    return p_trim(i * c for i, c in enumerate(p) if i)


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


DISC = rf(poly(1, -4))  # R**2
ZERO_RF = rf(())
MINUS_ONE = rf(poly(-1))


def k_add(x, y):
    return rf_add(x[0], y[0]), rf_add(x[1], y[1])


def k_neg(x):
    return rf_mul(MINUS_ONE, x[0]), rf_mul(MINUS_ONE, x[1])


def k_mul(x, y):
    a = rf_add(rf_mul(x[0], y[0]), rf_mul(DISC, rf_mul(x[1], y[1])))
    return a, rf_add(rf_mul(x[0], y[1]), rf_mul(x[1], y[0]))


def k_div(x, y):
    """x / y = x (a - b R) / (a^2 - b^2 R^2) for y = a + b R."""
    a, b = y
    norm = rf_add(rf_mul(a, a), rf_mul(MINUS_ONE, rf_mul(DISC, rf_mul(b, b))))
    return k_mul(k_mul(x, (a, rf_mul(MINUS_ONE, b))), (rf_inv(norm), ZERO_RF))


def k_const(num, den=(1,)):
    return rf(poly(*num), poly(*den)), ZERO_RF


def generating_functions() -> dict[ParamKind, tuple]:
    """F for every parameter, transcribed from ``series._expectation_totals``."""
    one = k_const((1,))
    z = k_const((0, 1))
    geometric = k_const((1,), (1, -1))  # 1/(1-z)
    # C = (1 - R)/(2z), T = C - 1, S = zC/(1-z), N = z/(1-z)
    c = (rf(poly(1), poly(0, 2)), rf(poly(-1), poly(0, 2)))
    t = k_add(c, k_neg(one))
    s = k_mul(k_mul(z, c), geometric)
    n = k_mul(z, geometric)
    # the system the series solver runs: T = N + zT + zT^2 + zTS, S = zT + zS + z
    zt = k_mul(z, t)
    rhs_t = k_add(k_add(n, zt), k_add(k_mul(zt, t), k_mul(zt, s)))
    rhs_s = k_add(k_add(zt, k_mul(z, s)), z)
    zero = (ZERO_RF, ZERO_RF)
    if k_add(rhs_t, k_neg(t)) != zero or k_add(rhs_s, k_neg(s)) != zero:
        raise SystemExit("the algebraic T, S do not solve the counting system")
    z2, z3, z4 = k_mul(z, z), k_mul(k_mul(z, z), z), k_mul(k_mul(z, z), k_mul(z, z))
    t2 = k_mul(t, t)
    ts = k_mul(t, s)
    pref_t = k_mul(t, geometric)
    pref_s = k_mul(s, geometric)
    den = k_add(
        k_add(one, k_neg(z)),
        k_neg(k_add(k_add(k_mul(z, s), k_mul(k_const((0, 2)), t)), k_mul(z2, pref_t))),
    )
    numerators = {
        ParamKind.BETA: k_mul(z2, t2),
        ParamKind.APP: k_mul(z2, k_mul(t2, s)),
        ParamKind.LAMBDA: k_mul(z2, ts),
        ParamKind.FVAR: k_mul(z3, t),
        ParamKind.RVAR: k_mul(z4, pref_t),
        ParamKind.FVARLIFT: k_mul(z3, s),
        ParamKind.RVARLIFT: k_mul(z4, pref_s),
        ParamKind.VARSHIFT: k_mul(z3, geometric),
    }
    out = {param: k_div(num, den) for param, num in numerators.items()}
    ramp = k_const((0, 1), (1, -2, 1))  # z/(1-z)^2
    numerator = k_add(k_add(ramp, zt), k_add(k_mul(zt, t), k_mul(zt, s)))
    den_u = k_add(
        k_add(one, k_neg(z)), k_neg(k_add(k_mul(k_const((0, 2)), t), k_mul(z, s)))
    )
    out[ParamKind.UNSUSPENDED] = k_div(numerator, den_u)
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
        prove(algebraic[param], polys, start)
        table[param] = (tuple(f[:start]), polys)
        print(
            f"{param.value:12s} order {len(polys) - 1}  degree {len(polys[0]) - 1}"
            f"  start {start}  proved  ({time.perf_counter() - began:.1f} s)"
        )

    check = _expectation_totals(CHECK_ORDER)
    for param, entry in table.items():
        run = series._recurrence_values(*entry)
        if list(islice(run, CHECK_ORDER + 1)) != list(check[param].coeffs):
            print(f"{param.value}: differs from the order-{CHECK_ORDER} series")
            return 1
    print(f"all tables match the series for n <= {CHECK_ORDER}"
          f"  ({time.perf_counter() - began:.1f} s)")

    if table != series._RECURRENCES:
        print("the derived tables differ from lamupsilon.series._RECURRENCES:")
        print("_RECURRENCES = {")
        for param, (initial, polys) in table.items():
            print(f"    ParamKind.{param.name}: ({initial}, {polys}),")
        print("}")
        return 1
    print("lamupsilon.series._RECURRENCES is up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
