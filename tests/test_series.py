import importlib.util
import math
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from lamupsilon import series
from lamupsilon.series import _expectation_totals
from lamupsilon import (
    SHIFT,
    Abs,
    App,
    BoundExceeded,
    Closure,
    Index,
    Lift,
    ParamKind,
    Series,
    Slash,
    catalan,
    count_substs,
    count_terms,
    enumerate_substs,
    enumerate_terms,
    enumerate_trees,
    expected_param_exact,
    has_nested_substitution,
    is_pure,
    nested_free_fraction,
    param_value,
    size,
    size_sub,
    solve_core_series,
    solve_restricted_series,
    total_param_bruteforce,
)


# --- series arithmetic -------------------------------------------------


def test_series_basics():
    one, z = Series.one(6), Series.z(6)
    geom = one / (one - z)
    assert geom.coeffs == (1, 1, 1, 1, 1, 1, 1)
    assert (z * geom).coeffs == (geom * z).coeffs == (0, 1, 1, 1, 1, 1, 1)
    assert (geom * geom).coeffs == (1, 2, 3, 4, 5, 6, 7)
    assert Series(range(7)) == z / ((one - z) * (one - z))
    assert (one / geom).coeffs == (1, -1, 0, 0, 0, 0, 0)
    assert (z * z * geom).coeffs == (0, 0, 1, 1, 1, 1, 1)
    assert Series.one(0).coeffs == Series.z(1).coeffs[1:] == (1,)
    assert Series.z(0).coeffs == (0,)
    for make in (Series.one, Series.z):  # -3 made an order-0 series
        with pytest.raises(ValueError, match="order must be non-negative"):
            make(-3)
    with pytest.raises(IndexError):
        one.coefficient(7)


def test_sparse_factors_and_divisors_give_the_full_convolution():
    dense = Series([3, -1, 4, 1, -5, 9, 2, -6])
    polys = ([0] * 8, [2] + [0] * 7, [0, 1, -2] + [0] * 5, [1, -1, 0, 3] + [0] * 6)
    for coeffs in polys:
        poly = Series(coeffs)
        full = tuple(
            sum(a * b for a, b in zip(coeffs[: k + 1], dense.coeffs[k::-1])) for k in range(8)
        )
        assert (poly * dense).coeffs == (dense * poly).coeffs == full
        if coeffs[0]:
            assert (poly * dense) / poly == dense


def test_series_division_is_exact_inverse():
    t, s, _ = solve_core_series(20)
    den = Series.one(20) - Series.z(20) - Series.z(20) * s
    assert (t * den) / den == t
    assert all(isinstance(c, int) for c in (Series.one(20) / den).coeffs)


def test_series_division_by_non_unit_constant_gives_fractions():
    two = Series([2, 1, 0, 0])
    q = Series.one(3) / two
    assert q.coefficient(0) == Fraction(1, 2)
    assert (q * two).coeffs == (1, 0, 0, 0)


def test_series_division_needs_constant_term():
    with pytest.raises(ZeroDivisionError):
        Series.one(3) / Series.z(3)


def test_series_truncation_to_smaller_order():
    a = Series([1] * 11)
    b = Series([1] * 5)
    assert (a * b).order == 4
    assert (a + b).order == 4


# --- counting ----------------------------------------------------------


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(5) == 42
    assert catalan(12) == 208012


def test_catalan_recurrence_matches_binomial_formula():
    values = [1]
    for n in range(30):
        values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
    for n, want in enumerate(values):
        assert catalan(n) == want


def test_negative_sizes_count_nothing():
    # every count and enumeration answers "none" below zero; catalan keeps its domain
    for n in (-1, -5):
        assert count_terms(n) == count_substs(n) == 0
        assert enumerate_terms(n) == enumerate_substs(n) == enumerate_trees(n) == ()
    with pytest.raises(ValueError, match="non-negative"):
        catalan(-1)


def test_count_examples():
    assert count_terms(0) == 0
    assert count_terms(3) == 5
    assert count_terms(10) == 16796
    assert count_substs(0) == 0
    assert count_substs(2) == 2


def test_count_substs_is_partial_catalan_sum():
    for n in range(20):
        assert count_substs(n) == sum(catalan(k) for k in range(n))


def test_count_substs_is_partial_catalan_sum_at_large_n():
    partial_sum = sum(catalan(k) for k in range(2000))
    assert count_substs(2000) == partial_sum
    assert count_substs(2001) == partial_sum + catalan(2000)


def test_solved_series_match_closed_forms():
    t, s, n = solve_core_series(64)
    assert t.coeffs[:6] == (0, 1, 2, 5, 14, 42)
    assert (s.coefficient(0), s.coefficient(1), s.coefficient(2), s.coefficient(3)) == (
        0,
        1,
        2,
        4,
    )
    assert n.coeffs == (0,) + (1,) * 64
    for k in range(65):
        assert t.coefficient(k) == (math.comb(2 * k, k) // (k + 1) if k else 0)
        assert s.coefficient(k) == count_substs(k)


# --- enumeration -------------------------------------------------------


def test_enumerate_smallest_sizes():
    assert enumerate_terms(1) == (Index(0),)
    assert set(enumerate_terms(2)) == {Abs(Index(0)), Index(1)}
    assert set(enumerate_terms(3)) == {
        Index(2),
        Abs(Index(1)),
        Abs(Abs(Index(0))),
        App(Index(0), Index(0)),
        Closure(Index(0), SHIFT),
    }


def test_enumerate_substs_smallest_sizes():
    assert enumerate_substs(1) == (SHIFT,)
    assert set(enumerate_substs(2)) == {Slash(Index(0)), Lift(SHIFT)}


def test_enumeration_matches_counting_sequence():
    for n in range(11):
        terms = enumerate_terms(n)
        assert len(terms) == count_terms(n)
        assert len(set(terms)) == len(terms)
        assert all(size(t) == n for t in terms)
    for n in range(9):
        subs = enumerate_substs(n)
        assert len(subs) == count_substs(n)
        assert all(size_sub(s) == n for s in subs)


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        enumerate_terms(11)
    with pytest.raises(BoundExceeded):
        enumerate_substs(12)
    assert len(enumerate_terms(11, max_size=11)) == count_terms(11)


# --- the restricted system ---------------------------------------------


def test_restricted_series_small_coefficients():
    p, sbar, tbar = solve_restricted_series(12)
    # pure-term counts, cross-checked against filtered enumeration below
    assert p.coeffs[:5] == (0, 1, 2, 4, 9)
    assert tbar.coeffs[:8] == (0, 1, 2, 5, 14, 42, 131, 420)


def test_restricted_series_against_enumeration():
    p, _, tbar = solve_restricted_series(9)
    for n in range(1, 9):
        assert p.coefficient(n) == sum(1 for t in enumerate_terms(n) if is_pure(t))
    for n in range(1, 10):
        free = sum(1 for t in enumerate_terms(n) if not has_nested_substitution(t))
        assert tbar.coefficient(n) == free


def test_nested_free_terms_match_all_terms_up_to_size_five():
    t, _, _ = solve_core_series(12)
    _, _, tbar = solve_restricted_series(12)
    for n in range(1, 6):
        assert tbar.coefficient(n) == t.coefficient(n)
    for n in range(6, 13):
        assert tbar.coefficient(n) < t.coefficient(n)


def test_nested_free_fraction_values():
    assert nested_free_fraction(3) == 1
    assert nested_free_fraction(6) == Fraction(131, 132)
    with pytest.raises(ValueError):
        nested_free_fraction(0)


def test_nested_free_recurrence_equals_the_series_oracle():
    # nested_free_fraction(n) is the n-th value of this same run over Catalan(n)
    _, _, tbar = solve_restricted_series(512)
    run = series._recurrence_values(*series._NESTED_FREE_RECURRENCE)
    assert list(islice(run, 513)) == list(tbar.coeffs)
    _, _, tbar = solve_restricted_series(1025)
    for n in (1, 7, 512, 1025):
        assert nested_free_fraction(n) * count_terms(n) == tbar.coefficient(n), n


def test_a_wrong_nested_free_recurrence_raises_instead_of_returning(monkeypatch):
    initial, (lead, (c0, *rest), *polys) = series._NESTED_FREE_RECURRENCE
    wrong = (initial, (lead, (c0 + 1, *rest), *polys))
    monkeypatch.setattr(series, "_NESTED_FREE_RECURRENCE", wrong)
    with pytest.raises(ArithmeticError, match="non-integer"):
        nested_free_fraction(100)


def test_nested_free_fraction_monotone_from_five():
    values = [nested_free_fraction(n) for n in range(5, 201)]
    assert all(b <= a for a, b in zip(values, values[1:]))


# --- expectations ------------------------------------------------------


def test_expected_param_examples():
    assert expected_param_exact(ParamKind.BETA, 3) == 0
    assert expected_param_exact(ParamKind.BETA, 4) == Fraction(1, 14)
    assert expected_param_exact(ParamKind.UNSUSPENDED, 1) == 1
    with pytest.raises(ValueError):
        expected_param_exact(ParamKind.BETA, 0)


def test_total_param_examples():
    assert total_param_bruteforce(ParamKind.BETA, 4) == 1
    assert total_param_bruteforce(ParamKind.VARSHIFT, 3) == 1
    assert total_param_bruteforce(ParamKind.BETA, 3) == 0


def test_series_totals_equal_enumeration_totals():
    for param in ParamKind:
        for n in range(1, 8):
            want = total_param_bruteforce(param, n)
            got = expected_param_exact(param, n) * count_terms(n)
            assert got.denominator == 1 and got.numerator == want


def test_recurrences_equal_the_series_oracle():
    # expected_param_exact(p, n) is the n-th value of this same run
    totals = _expectation_totals(512)
    for param in ParamKind:
        run = series._recurrence_values(*series._RECURRENCES[param])
        assert list(islice(run, 513)) == list(totals[param].coeffs), param
        for n in (1, 7, 512):
            got = expected_param_exact(param, n) * count_terms(n)
            assert got == totals[param].coefficient(n), (param, n)


def test_a_wrong_recurrence_raises_instead_of_returning(monkeypatch):
    table = dict(series._RECURRENCES)
    initial, ((c0, *lead), *rest) = table[ParamKind.BETA]
    table[ParamKind.BETA] = (initial, ((c0 + 1, *lead), *rest))
    monkeypatch.setattr(series, "_RECURRENCES", table)
    with pytest.raises(ArithmeticError, match="non-integer"):
        expected_param_exact(ParamKind.BETA, 40)


def test_served_tables_are_the_derived_ones():
    # the derivation of tools/derive_recurrences.py without its order-2048 check
    path = Path(__file__).resolve().parents[1] / "tools" / "derive_recurrences.py"
    spec = importlib.util.spec_from_file_location("derive_recurrences", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    table, nested = tool.derive_tables(time.perf_counter())
    assert table == series._RECURRENCES
    assert nested == series._NESTED_FREE_RECURRENCE


def test_expectation_slope_direction():
    # the per-node mean approaches its limit from below at moderate sizes
    e64 = expected_param_exact(ParamKind.BETA, 64) / 64
    e128 = expected_param_exact(ParamKind.BETA, 128) / 128
    slope = Fraction(3, 64)
    assert abs(e128 - slope) < abs(e64 - slope) < slope


def test_param_kind_maps_to_rules():
    from lamupsilon import RuleKind

    assert ParamKind.BETA.rule_kind is RuleKind.BETA
    assert ParamKind.UNSUSPENDED.rule_kind is None
    assert ParamKind("varshift") is ParamKind.VARSHIFT


def test_names_that_are_not_param_kinds_raise_type_error():
    term = App(Abs(Index(0)), Index(0))
    with pytest.raises(TypeError, match="'beta'"):
        expected_param_exact("beta", 4)
    with pytest.raises(TypeError, match="'beta'"):
        param_value(term, "beta")
    for n in (0, 4):
        with pytest.raises(TypeError, match="'beta'"):
            total_param_bruteforce("beta", n)
    assert param_value(term, ParamKind.BETA) == 1
