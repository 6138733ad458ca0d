"""Built-in verification suites, exposed through the command line.

Each suite returns a list of CheckResult rows; the CLI prints one line
per row and exits non-zero when any check fails.  The pytest acceptance
suite covers the same ground (and more) with finer-grained assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .rewrite import RuleKind, _upsilon_levels, normalize
from .series import (
    ParamKind,
    catalan,
    count_substs,
    count_terms,
    enumerate_terms,
    expected_param_exact,
    solve_core_series,
    total_param_bruteforce,
)
from .syntax import parse_term, render_term
from .terms import Term, is_pure, size
from .trees import enumerate_trees, node_count, phi, phi_inv


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def suite_catalan(max_size: int = 64) -> list[CheckResult]:
    """Counting sequences against the closed binomial forms."""
    results = []
    results.append(_check("count_terms(0) = 0", count_terms(0) == 0))
    bad = [
        n
        for n in range(1, max_size + 1)
        if count_terms(n) != math.comb(2 * n, n) // (n + 1)
    ]
    results.append(
        _check(
            f"count_terms(n) = Catalan(n) for 1..{max_size}",
            not bad,
            f"first mismatch at {bad[0]}" if bad else "",
        )
    )
    partial_sums = list(accumulate((catalan(k) for k in range(max_size)), initial=0))
    results.append(
        _check(
            f"count_substs(n) = partial Catalan sums for 0..{max_size}",
            all(count_substs(n) == want for n, want in enumerate(partial_sums)),
        )
    )
    t, s, _ = solve_core_series(max_size)
    ok = all(t.coefficient(n) == count_terms(n) for n in range(max_size + 1)) and all(
        s.coefficient(n) == partial_sums[n] for n in range(max_size + 1)
    )
    results.append(_check(f"solved series match the counts up to {max_size}", ok))
    return results


def suite_bijection(max_size: int = 8) -> list[CheckResult]:
    """Both round trips and size preservation, exhaustively."""
    bound = min(max_size, 8)
    results = []
    term_cases = sub_ok = 0
    good = True
    for n in range(1, bound + 1):
        for term in enumerate_terms(n):
            tree = phi_inv(term)
            term_cases += 1
            if phi(tree) != term or node_count(tree) != size(term):
                good = False
    results.append(
        _check(f"phi(phi_inv(t)) = t, sizes preserved ({term_cases} terms)", good)
    )
    good = True
    for n in range(1, bound + 1):
        trees = enumerate_trees(n)
        if len(trees) != count_terms(n):
            good = False
        for tree in trees:
            sub_ok += 1
            term = phi(tree)
            if phi_inv(term) != tree or size(term) != n:
                good = False
    results.append(
        _check(f"phi_inv(phi(T)) = T, sizes preserved ({sub_ok} skeletons)", good)
    )
    return results


def upsilon_normal_forms_all_orders(term: Term) -> set[Term]:
    """Normal forms reachable by non-Beta steps under every redex order: the
    pure terms that the reduction graph reaches.  In a well-formed term the
    innermost closure of any chain of closures matches one of the seven
    rules, so a term has no non-Beta redex exactly when it is pure."""
    return {t for level in _upsilon_levels([term]) for t in level if is_pure(t)}


def suite_rewrite(max_size: int = 8) -> list[CheckResult]:
    """The worked five-step reduction, termination/purity, confluence."""
    results = []
    start = parse_term("(\\\\1) 0")
    normal, trace = normalize(start, "full")
    expected = (
        RuleKind.BETA,
        RuleKind.LAMBDA,
        RuleKind.RVARLIFT,
        RuleKind.FVAR,
        RuleKind.VARSHIFT,
    )
    results.append(
        _check(
            "(\\\\1) 0 normalizes to \\1 by Beta, Lambda, RVarLift, FVar, VarShift",
            trace.rules == expected and render_term(normal) == "\\1",
            f"got {[r.value for r in trace.rules]} -> {render_term(normal)}",
        )
    )
    bound = min(max_size, 8)
    good = True
    cases = 0
    for n in range(1, bound + 1):
        for term in enumerate_terms(n):
            normal, _ = normalize(term, "upsilon", keep_terms=False)
            cases += 1
            if not is_pure(normal):
                good = False
    results.append(
        _check(f"upsilon normalization is pure on all {cases} terms of size <= {bound}", good)
    )
    good = True
    conf_bound = min(max_size, 7)
    for n in range(1, conf_bound + 1):
        for term in enumerate_terms(n):
            forms = upsilon_normal_forms_all_orders(term)
            normal, _ = normalize(term, "upsilon", keep_terms=False)
            if forms != {normal}:
                good = False
    results.append(
        _check(
            f"all non-Beta reduction orders agree on sizes <= {conf_bound}",
            good,
        )
    )
    return results


def suite_oracle(max_size: int = 9) -> list[CheckResult]:
    """Exact expectations (the P-recurrences) against brute-force enumeration totals."""
    bound = min(max_size, 9)
    results = []
    good = True
    worst = ""
    for param in ParamKind:
        for n in range(1, bound + 1):
            total = total_param_bruteforce(param, n)
            expected = expected_param_exact(param, n) * count_terms(n)
            if expected.denominator != 1 or total != expected.numerator:
                good = False
                worst = f"{param.value} at n={n}: {total} vs {expected}"
    results.append(
        _check(
            f"recurrence totals equal enumeration totals for every parameter, n <= {bound}",
            good,
            worst,
        )
    )
    results.append(
        _check(
            "expected beta-redex count at size 4 is 1/14",
            expected_param_exact(ParamKind.BETA, 4) == Fraction(1, 14),
        )
    )
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "catalan": suite_catalan,
    "bijection": suite_bijection,
    "rewrite": suite_rewrite,
    "oracle": suite_oracle,
}
