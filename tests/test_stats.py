import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from lamupsilon import (
    Closure,
    ComparisonReport,
    Index,
    InsufficientSamples,
    InvalidSize,
    NESTED,
    ParamKind,
    Rng,
    SampleSummary,
    Tolerance,
    compare_to_reference,
    count_all_redexes,
    count_terms,
    enumerate_terms,
    enumerate_trees,
    expected_param_exact,
    export_report,
    has_nested_substitution,
    import_summaries,
    iter_subterms,
    node_count,
    param_value,
    phi,
    run_experiment,
    sample_term,
    size,
    standard_error,
    standardized_skewness,
    total_param_bruteforce,
    unsuspended_constructors,
)
from lamupsilon.series import _marks
from lamupsilon.stats import (
    LIMIT_MEAN_SLOPE,
    LIMIT_VARIANCE_SLOPE,
    UNSUSPENDED_MEAN_LIMIT,
    _closure_cells,
    _graft_values,
    _region,
    _sample_values,
    round12,
)

ALL_PARAMS = [*ParamKind, NESTED]


def test_size_one_terms_have_no_beta_redexes():
    res = run_experiment(1, 50, 0, [ParamKind.BETA])
    s = res["beta"]
    assert s.mean == 0 and s.variance == 0 and s.min == s.max == 0


def test_experiment_matches_exact_expectation_at_size_four():
    res = run_experiment(4, 4000, 2, [ParamKind.BETA])
    s = res["beta"]
    exact = float(expected_param_exact(ParamKind.BETA, 4))
    assert abs(s.mean - exact) <= 3 * standard_error(s)
    assert s.max <= 1  # a size-4 term has at most one beta redex


def test_experiment_is_reproducible():
    a = run_experiment(12, 100, 31, list(ParamKind) + [NESTED])
    b = run_experiment(12, 100, 31, list(ParamKind) + [NESTED])
    assert a == b


def test_experiment_is_worker_count_independent(monkeypatch):
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    # run_experiment imports the pool class only when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    # two usable cores, so that two workers are not capped on a one-core machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = run_experiment(10, 48, 7, [ParamKind.BETA, NESTED], workers=1)
    assert pools == []
    forked = run_experiment(10, 48, 7, [ParamKind.BETA, NESTED], workers=2)
    assert pools == [{"max_workers": 2}]
    assert serial == forked


def test_experiment_runs_at_most_one_worker_per_usable_core(monkeypatch):
    # The spy pool runs its jobs in this process: no worker process is
    # started, whatever count is asked for.
    import concurrent.futures

    pools = []

    class SpyPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    params = [ParamKind.BETA, NESTED]
    serial = run_experiment(10, 48, 7, params, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert run_experiment(10, 48, 7, params, workers=10**4) == serial
    monkeypatch.setenv("UPSILON_THREADS", "10000")
    assert run_experiment(10, 48, 7, params) == serial
    assert pools == [3, 3]
    # 12 samples are enough for 3 workers (m >= 4 * workers), 11 are not
    assert run_experiment(10, 12, 7, params) == run_experiment(10, 12, 7, params, workers=1)
    assert pools == [3, 3, 3]
    run_experiment(10, 11, 7, params)
    assert pools == [3, 3, 3]
    # where the platform has no affinity mask, the cap is the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert run_experiment(10, 48, 7, params, workers=10**4) == serial
    assert pools == [3, 3, 3, 5]


# SHA-256 of the JSON export of run_experiment(1000, 50, seed, ALL_PARAMS),
# as the term walkers computed it
EXPORT_DIGESTS = {
    0: "6efba591ed4f2db463a562e988db0ccfbd02bb8dcdb1b4babe0175bf1bfedede",
    1: "ddef93c3e8cf87163037f911162632c750bfad0096dd3a9b496fbb0471583423",
    27: "89f03749f57b748d9b081e34cb1a6cfdcca8a8baa2ffbf2b3f2dac86691aee56",
}


@pytest.mark.parametrize("seed", sorted(EXPORT_DIGESTS))
def test_experiment_export_digest_is_pinned(seed):
    buf = io.StringIO()
    export_report(list(run_experiment(1000, 50, seed, ALL_PARAMS).values()), "json", buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == EXPORT_DIGESTS[seed]


def _walked_values(term) -> tuple[int, ...]:
    """The ALL_PARAMS values of ``term`` from the three public term walkers."""
    redexes = count_all_redexes(term)
    return (
        *(redexes[param.rule_kind] for param in ParamKind if param.rule_kind),
        unsuspended_constructors(term),
        int(has_nested_substitution(term)),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
def test_sample_values_match_the_term_walkers(n):
    names = (*(param.value for param in ParamKind), NESTED)
    for seed in (0, 5):
        terms = [sample_term(n, Rng.derived(seed, i)) for i in range(3, 23)]
        assert _sample_values(n, seed, 3, 23, names) == list(map(_walked_values, terms))


def _remy_arrays(tree) -> tuple[int, list[int], list[int]]:
    """``tree`` laid out as ``trees._graft`` lays out a sample: its nodes
    take the odd ids, and each missing child its own even id (Rémy's leaves)."""
    n = node_count(tree)
    left, right = [0] * (2 * n + 1), [0] * (2 * n + 1)
    odd, even = iter(range(2 * n - 1, 0, -2)), iter(range(0, 2 * n + 1, 2))
    root = next(odd)
    stack = [(tree, root)]
    while stack:
        node, i = stack.pop()
        for child, side in ((node.left, left), (node.right, right)):
            side[i] = next(even if child is None else odd)
            if child is not None:
                stack.append((child, side[i]))
    return root, left, right


def test_graft_values_match_the_term_walkers_on_every_small_skeleton():
    redexes = [param.rule_kind for param in ParamKind if param.rule_kind]
    columns = [*redexes, ParamKind.UNSUSPENDED.value, NESTED]
    trees = [tree for n in range(1, 9) for tree in enumerate_trees(n)]
    assert len(trees) == 2055
    for tree in trees:
        values = _graft_values(*_remy_arrays(tree))
        assert list(values) == columns
        assert tuple(values.values()) == _walked_values(phi(tree)), tree


def test_closure_cells_classify_each_closure_through_the_rewriter(monkeypatch):
    # the rule table is stated once, in rewrite._closure_rule: each cell of the
    # walk is the rule of one stand-in closure, and every closure of a term
    # falls in the cell of the stand-in whose body and substitution it shares
    import lamupsilon.stats

    calls = []

    def recorded(body, sub):
        calls.append((body, sub))
        return len(calls)

    monkeypatch.setattr(lamupsilon.stats, "_closure_rule", recorded)
    assert _closure_cells() == tuple(range(1, 16))

    def kind(node):
        return node.__class__, node.n > 0 if isinstance(node, Index) else None

    cell_of = {(kind(body), sub.__class__): cell for cell, (body, sub) in enumerate(calls)}
    assert len(cell_of) == 15
    for tree in enumerate_trees(6):
        want = [0] * 15
        for _, node in iter_subterms(phi(tree)):
            if isinstance(node, Closure):
                want[cell_of[kind(node.body), node.sub.__class__]] += 1
        cells, payloads = [0] * 15, []
        root, left, right = _remy_arrays(tree)
        _region([root], payloads, left, right, cells)
        if payloads:
            _region(payloads, payloads, left, right, cells)
        assert cells == want, tree


def test_import_leaves_the_process_pool_unloaded():
    code = "import sys, lamupsilon; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_worker_count_comes_from_environment(monkeypatch):
    monkeypatch.setenv("UPSILON_THREADS", "2")
    from_env = run_experiment(10, 48, 7, [ParamKind.BETA, NESTED])
    assert from_env == run_experiment(10, 48, 7, [ParamKind.BETA, NESTED], workers=1)
    monkeypatch.setenv("UPSILON_THREADS", "0")
    with pytest.raises(ValueError):
        run_experiment(10, 48, 7, [ParamKind.BETA])


@pytest.mark.parametrize("workers", [0, -7])
def test_non_positive_worker_count_is_rejected(workers):
    with pytest.raises(ValueError, match=f"workers.*{workers}"):
        run_experiment(10, 48, 7, [ParamKind.BETA], workers=workers)


def test_experiment_summary_invariants():
    res = run_experiment(30, 200, 5, list(ParamKind))
    for s in res.values():
        assert s.min <= s.mean <= s.max
        assert s.variance >= 0
        assert s.samples == 200 and s.size == 30 and s.seed == 5


def test_experiment_accepts_nested_indicator():
    res = run_experiment(40, 300, 8, [NESTED])
    s = res[NESTED]
    assert 0 <= s.mean <= 1
    assert s.min in (0, 1) and s.max in (0, 1)


def test_experiment_argument_validation():
    for n in (0, 10**15):  # no term, or no memory for Rémy's arrays
        with pytest.raises(InvalidSize):
            run_experiment(n, 10, 0, [ParamKind.BETA])
    with pytest.raises(InsufficientSamples):
        run_experiment(3, 1, 0, [ParamKind.BETA])
    with pytest.raises(ValueError):
        run_experiment(3, 10, 0, [])
    with pytest.raises(ValueError):
        run_experiment(3, 10, 0, ["bogus"])
    # a bare string was read one letter at a time: "unknown parameter 'b'"
    with pytest.raises(TypeError, match="^params must be a list of parameter names, not 'beta'$"):
        run_experiment(5, 4, 0, "beta")


def test_moments_are_exact_integer_arithmetic():
    # tiny experiment recomputed by hand from the sampled values
    n, m, seed = 6, 25, 123
    values = [
        param_value(sample_term(n, Rng.derived(seed, i)), ParamKind.VARSHIFT)
        for i in range(m)
    ]
    res = run_experiment(n, m, seed, [ParamKind.VARSHIFT])["varshift"]
    mean = Fraction(sum(values), m)
    var = Fraction(sum((v - mean) ** 2 for v in values), m - 1)
    m3 = Fraction(sum((v - mean) ** 3 for v in values), m)
    assert res.mean == round12(float(mean))
    assert res.variance == round12(float(var))
    assert res.third_central_moment == round12(float(m3))
    assert res.min == min(values) and res.max == max(values)


def test_enumeration_mean_equals_exact_expectation():
    # evaluating over the full enumeration instead of sampling gives the
    # series expectation exactly
    for param in ParamKind:
        for n in range(1, 8):
            total = total_param_bruteforce(param, n)
            assert Fraction(total, count_terms(n)) == expected_param_exact(param, n)


def test_sanity_bounds_on_sampled_terms():
    for i in range(100):
        t = sample_term(64, Rng.derived(404, i))
        assert sum(count_all_redexes(t).values()) <= size(t)
        assert unsuspended_constructors(t) <= size(t)


def test_reference_tables_are_exact_rationals():
    assert LIMIT_MEAN_SLOPE[ParamKind.BETA] == Fraction(3, 64)
    assert LIMIT_VARIANCE_SLOPE[ParamKind.BETA] == Fraction(153, 4096)
    assert set(LIMIT_MEAN_SLOPE) == set(LIMIT_VARIANCE_SLOPE) == set(ParamKind) - {
        ParamKind.UNSUSPENDED
    }


# --- the limit constants, derived ----------------------------------------

_TOP = (2, 1, 2)  # the truncation degrees of (e, a, b) in a _Jet


class _Jet:
    """A polynomial in (e, a, b) over the rationals, truncated at e**3 =
    a**2 = b**3 = 0: ``u = 1 + e`` marks a redex kind, and a and b move z
    and T, so a jet of Phi(z + a, T + b) holds Phi's derivatives in z, in
    T and in both, and T's second, as power series in e."""

    def __init__(self, terms):
        self.terms = {key: c for key, c in terms.items() if c}

    @classmethod
    def of(cls, value, key=(0, 0, 0)):
        return cls({key: Fraction(value)})

    def __getitem__(self, key):
        return self.terms.get(key, 0)

    def __add__(self, other):
        return _Jet({k: self[k] + other[k] for k in self.terms.keys() | other.terms.keys()})

    def __sub__(self, other):
        return self + other * _Jet.of(-1)

    def __mul__(self, other):
        out = {}
        for (i, j, k), c in self.terms.items():
            for (p, q, r), d in other.terms.items():
                key = (i + p, j + q, k + r)
                if all(e <= top for e, top in zip(key, _TOP)):
                    out[key] = out.get(key, 0) + c * d
        return _Jet(out)

    def __truediv__(self, other):
        # 1/(c(1 - x)) = (1 + x + x**2 + ...)/c, and x**6 = 0 for x without a constant
        c = other[(0, 0, 0)]
        x = _Jet({k: -v / c for k, v in other.terms.items() if k != (0, 0, 0)})
        inverse = power = _Jet.of(1 / c)
        for _ in range(sum(_TOP)):
            power = power * x
            inverse = inverse + power
        return self * inverse


_ONE, _E, _A, _B = (_Jet.of(1, key) for key in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _in_e(jet, a=0, b=0) -> _Jet:
    """The coefficient of a**a b**b in ``jet``, a power series in e."""
    return _Jet({(i, 0, 0): jet[(i, a, b)] for i in range(_TOP[0] + 1)})


def _singularity(param: ParamKind) -> list[Fraction]:
    """rho(1 + e) = r0 + r1 e + r2 e**2, the dominant singularity of T when
    u = 1 + e marks ``param``: the (z, T) where T = Phi(z, T) and 1 =
    Phi_T(z, T), for Phi = z/(1-z) + zT + zT^2 + zTS + e M with S = z(T +
    1)/(1 - z) and M the mark ``series._marks`` gives.  Newton steps from
    (1/4, 1), with the Jacobian there, fix one more power of e each."""
    z, t = _Jet.of(Fraction(1, 4)), _ONE
    for step in range(_TOP[0] + 2):
        za, tb = z + _A, t + _B
        s = za * (tb + _ONE) / (_ONE - za)
        mark, den = _marks(_ONE, za, tb, s)[param]
        phi = za / (_ONE - za) + za * tb + za * tb * tb + za * tb * s + _E * mark
        g1, g2 = _in_e(phi) - t, _in_e(phi, b=1) - _ONE
        if not step:  # 1 - Phi_T at u = 1 is the den of the marks
            assert den[(0, 0, 0)] == g1[(0, 0, 0)] == g2[(0, 0, 0)] == 0
            j = [[phi[(0, 1, 0)], phi[(0, 0, 1)] - 1], [phi[(0, 1, 1)], 2 * phi[(0, 0, 2)]]]
            det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
        z = z - (g1 * _Jet.of(j[1][1] / det) - g2 * _Jet.of(j[0][1] / det))
        t = t - (g2 * _Jet.of(j[0][0] / det) - g1 * _Jet.of(j[1][0] / det))
    assert not (g1.terms or g2.terms)  # the last step had nothing left to fix
    return [z[(i, 0, 0)] for i in range(_TOP[0] + 1)]


def test_limit_constants_follow_from_the_marks():
    # Quasi-powers: X_n has mean ~ mu n and variance ~ sigma2 n with
    # mu = -rho'(1)/rho(1) and sigma2 = -rho''(1)/rho(1) + mu + mu**2.
    means, variances = {}, {}
    for param in LIMIT_MEAN_SLOPE:
        r0, r1, r2 = _singularity(param)
        means[param] = mu = -r1 / r0
        variances[param] = -2 * r2 / r0 + mu + mu * mu
    assert means == LIMIT_MEAN_SLOPE
    assert variances == LIMIT_VARIANCE_SLOPE
    # The unsuspended total is G(z, T) with G analytic at (1/4, 1), its den
    # being 1/12 there, so its size-n share tends to G_T(1/4, 1).
    z, t = _Jet.of(Fraction(1, 4)), _ONE + _B
    mark, den = _marks(_ONE, z, t, z * (t + _ONE) / (_ONE - z))[ParamKind.UNSUSPENDED]
    assert den[(0, 0, 0)] == Fraction(1, 12)
    assert (mark / den)[(0, 0, 1)] == UNSUSPENDED_MEAN_LIMIT


# --- comparisons --------------------------------------------------------


def _summary(mean, variance, samples=100):
    return SampleSummary(
        param="beta",
        size=10,
        samples=samples,
        seed=0,
        mean=mean,
        variance=variance,
        min=0,
        max=10,
        third_central_moment=0.0,
    )


@pytest.mark.parametrize("reference", ["1", True, None])
def test_compare_rejects_a_reference_that_is_not_a_real_number(reference):
    # a string leaked "unsupported operand type(s) for -: 'float' and 'str'"
    with pytest.raises(TypeError) as raised:
        compare_to_reference(_summary(1.0, 0.25), reference, Tolerance("se", 3))
    assert str(raised.value) == f"reference must be a real number, not {reference!r}"
    report = compare_to_reference(_summary(1.0, 0.25), Fraction(1), Tolerance("se", 3))
    assert report.reference == 1.0 and report.verdict


@pytest.mark.parametrize(
    "reference",
    [math.inf, -math.inf, math.nan, 10**400, Fraction(10**400)],
    ids=["inf", "-inf", "nan", "int", "fraction"],
)
def test_compare_rejects_a_reference_that_is_not_finite(reference):
    # inf gave verdict=True with a NaN rel_err; NaN gave a report export_report refused
    with pytest.raises(ValueError) as raised:
        compare_to_reference(_summary(1.0, 0.25), reference, Tolerance("rel", 3))
    assert str(raised.value) == f"reference must be finite, not {reference!r}"


def test_compare_absolute_tolerance():
    report = compare_to_reference(_summary(1.05, 0.25), 1.0, Tolerance("abs", 0.1))
    assert report.verdict and math.isclose(report.abs_err, 0.05)
    assert not compare_to_reference(
        _summary(1.2, 0.25), 1.0, Tolerance("abs", 0.1)
    ).verdict


def test_compare_relative_tolerance():
    report = compare_to_reference(_summary(92.0, 1.0), 100.0, Tolerance("rel", 0.1))
    assert report.verdict and math.isclose(report.rel_err, 0.08)
    assert not compare_to_reference(
        _summary(80.0, 1.0), 100.0, Tolerance("rel", 0.1)
    ).verdict


def test_compare_standard_error_tolerance():
    # variance 4 over 100 samples: standard error 0.2, so 3 SE = 0.6
    report = compare_to_reference(_summary(1.5, 4.0), 1.0, Tolerance("se", 3))
    assert math.isclose(report.standard_error, 0.2)
    assert report.verdict
    assert not compare_to_reference(_summary(1.7, 4.0), 1.0, Tolerance("se", 3)).verdict
    assert compare_to_reference(_summary(1.7, 4.0), 1.0, Tolerance("se", 4)).verdict


def test_tolerance_mode_validation():
    with pytest.raises(ValueError):
        Tolerance("sigma", 3)


@pytest.mark.parametrize("value", ["3", None, True, [1]])
def test_tolerance_rejects_a_value_that_is_not_a_real_number(value):
    # "3" and None leaked an operator's TypeError from compare_to_reference,
    # and True served as 1
    with pytest.raises(TypeError) as raised:
        Tolerance("abs", value)
    assert str(raised.value) == f"tolerance value must be a real number, not {value!r}"


@pytest.mark.parametrize(
    "value, must",
    [(math.nan, "finite"), (math.inf, "finite"), (10**400, "finite"),
     (-1, "non-negative"), (-0.5, "non-negative")],
    ids=["nan", "inf", "int", "minus-one", "minus-half"],
)
def test_tolerance_rejects_a_value_that_is_not_finite_and_non_negative(value, must):
    # NaN and a negative value gave verdict=False, whatever the error
    with pytest.raises(ValueError) as raised:
        Tolerance("se", value)
    assert str(raised.value) == f"tolerance value must be {must}, not {value!r}"
    for fine in (0, 0.0, Fraction(1, 2)):
        assert compare_to_reference(_summary(1.0, 0.25), 1.0, Tolerance("se", fine)).verdict


def test_skewness_helpers():
    s = _summary(0.0, 4.0)
    assert standardized_skewness(s) == 0.0
    bent = SampleSummary("beta", 10, 100, 0, 0.0, 4.0, 0, 10, 16.0)
    assert math.isclose(standardized_skewness(bent), 2.0)
    flat = SampleSummary("beta", 10, 100, 0, 0.0, 0.0, 0, 0, 0.0)
    assert standardized_skewness(flat) == 0.0


# --- exports ------------------------------------------------------------


def test_csv_export_schema(tmp_path):
    res = run_experiment(8, 50, 1, [ParamKind.BETA, NESTED])
    path = tmp_path / "report.csv"
    written = export_report([res["beta"], res[NESTED]], "csv", path)
    text = path.read_text()
    assert written == len(text.encode())
    lines = text.strip().splitlines()
    assert lines[0] == "param,n,m,seed,mean,variance,min,max,m3"
    assert len(lines) == 3
    assert lines[1].startswith("beta,8,50,1,")
    assert lines[2].startswith("nested,8,50,1,")


def test_json_export_round_trips(tmp_path):
    res = run_experiment(9, 60, 4, [ParamKind.APP, ParamKind.UNSUSPENDED])
    summaries = list(res.values())
    buf = io.StringIO()
    written = export_report(summaries, "json", buf)
    assert written == len(buf.getvalue().encode())
    assert import_summaries(buf.getvalue()) == summaries


@pytest.mark.parametrize("text", ["{}", "null", "[1]", "[[]]", "[{}]", '[{"param": "beta"}]'])
def test_import_rejects_anything_but_an_array_of_summaries(text):
    with pytest.raises(ValueError):
        import_summaries(text)


#: A value of the wrong type for each SampleSummary field, as JSON holds it.
_WRONG_FIELDS = [
    ("param", 1), ("param", None), ("size", "x"), ("size", 7.0), ("size", True),
    ("samples", "40"), ("samples", 40.0), ("seed", None), ("seed", False),
    ("mean", True), ("mean", "0.5"), ("variance", None), ("variance", [1]),
    ("min", 0.0), ("min", "0"), ("max", True), ("max", {}),
    ("third_central_moment", False), ("third_central_moment", "0"),
]


def test_import_rejects_field_values_of_the_wrong_type():
    # "size": "x" was accepted and failed later, inside standard_error
    res = run_experiment(7, 40, 2, [ParamKind.BETA])
    buf = io.StringIO()
    export_report(list(res.values()), "json", buf)
    assert import_summaries(buf.getvalue()) == list(res.values())  # the round trip is exact
    (row,) = json.loads(buf.getvalue())
    assert {name for name, _ in _WRONG_FIELDS} == set(SampleSummary.__dataclass_fields__)
    for name, value in _WRONG_FIELDS:
        with pytest.raises(ValueError, match=f"^SampleSummary {name} must be "):
            import_summaries(json.dumps([{**row, name: value}]))
    # a float field takes a whole number, as another JSON writer may write it
    whole = {**row, "mean": 1, "variance": 0, "third_central_moment": 0}
    assert import_summaries(json.dumps([whole]))[0].mean == 1


def _exported_row():
    """The one JSON object that ``export_report`` writes for a small run."""
    res = run_experiment(7, 40, 2, [ParamKind.BETA])
    buf = io.StringIO()
    export_report(list(res.values()), "json", buf)
    assert import_summaries(buf.getvalue()) == list(res.values())  # the round trip is exact
    (row,) = json.loads(buf.getvalue())
    return row


@pytest.mark.parametrize("name", ["mean", "variance", "third_central_moment"])
def test_import_rejects_numbers_that_are_not_finite(name):
    # json.loads parses NaN and Infinity, which export_report never writes
    row = _exported_row()
    for value in (math.nan, math.inf, -math.inf):
        text = json.dumps([{**row, name: value}])
        with pytest.raises(ValueError) as raised:
            import_summaries(text)
        assert str(raised.value) == f"SampleSummary {name} must be finite, not {value!r}"


@pytest.mark.parametrize("name", ["mean", "variance", "third_central_moment"])
def test_import_rejects_an_integer_too_large_for_a_float(name):
    # it was accepted, and standard_error then raised OverflowError
    res = run_experiment(5, 10, 0, [ParamKind.BETA])
    buf = io.StringIO()
    export_report(list(res.values()), "json", buf)
    rows = json.loads(buf.getvalue())
    rows[0][name] = 10**400
    with pytest.raises(ValueError) as raised:
        import_summaries(json.dumps(rows))
    assert str(raised.value) == f"SampleSummary {name} must be finite, not {10**400!r}"
    rows[0][name] = 10**300  # an int that converts to a finite float is still a number
    assert getattr(import_summaries(json.dumps(rows))[0], name) == 10**300


def test_import_rejects_fewer_than_two_samples():
    # standard_error then divided by zero, and a run never has fewer than two
    row = _exported_row()
    for samples in (1, 0, -3):
        with pytest.raises(ValueError) as raised:
            import_summaries(json.dumps([{**row, "samples": samples}]))
        assert str(raised.value) == f"SampleSummary samples must be at least 2, not {samples}"
    assert import_summaries(json.dumps([{**row, "samples": 2}]))[0].samples == 2


def test_import_rejects_a_sample_count_too_large_for_a_float():
    # it was accepted, and standard_error then raised OverflowError
    row = _exported_row()
    with pytest.raises(ValueError) as raised:
        import_summaries(json.dumps([{**row, "samples": 10**400}]))
    assert str(raised.value) == f"SampleSummary samples must be finite, not {10**400!r}"
    summary = import_summaries(json.dumps([{**row, "samples": 10**300}]))[0]
    assert summary.samples == 10**300 and standard_error(summary) < 1e-100


def test_import_rejects_a_negative_variance():
    # standard_error then failed with "math domain error"
    row = _exported_row()
    with pytest.raises(ValueError) as raised:
        import_summaries(json.dumps([{**row, "variance": -0.5}]))
    assert str(raised.value) == "SampleSummary variance must be at least 0, not -0.5"
    assert import_summaries(json.dumps([{**row, "variance": 0}]))[0].variance == 0


def test_import_rejects_an_unknown_parameter():
    row = _exported_row()
    with pytest.raises(ValueError) as raised:
        import_summaries(json.dumps([{**row, "param": "bogus"}]))
    assert str(raised.value) == "unknown parameter 'bogus'"
    for param in (NESTED, "unsuspended"):
        assert import_summaries(json.dumps([{**row, "param": param}]))[0].param == param


def test_json_export_embeds_comparisons():
    res = run_experiment(7, 40, 2, [ParamKind.BETA])
    report = compare_to_reference(
        res["beta"], float(expected_param_exact(ParamKind.BETA, 7)), Tolerance("se", 3)
    )
    buf = io.StringIO()
    export_report(list(res.values()), "json", buf, comparisons={"beta": [report]})
    data = json.loads(buf.getvalue())
    assert data[0]["comparisons"][0]["verdict"] == report.verdict
    assert set(data[0]["comparisons"][0]) == set(ComparisonReport.__dataclass_fields__)
    assert set(data[0]) == set(SampleSummary.__dataclass_fields__) | {"comparisons"}
    assert import_summaries(buf.getvalue()) == list(res.values())  # comparisons ignored


def test_export_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        export_report([], "csv", io.StringIO())
    res = run_experiment(5, 10, 0, [ParamKind.BETA])
    with pytest.raises(ValueError):
        export_report(list(res.values()), "xml", io.StringIO())


@pytest.mark.parametrize(
    "comparisons, message",
    [([1], "comparisons must be a dict of lists, not [1]"),
     ({"beta": [1]}, "not a ComparisonReport: 1"),
     ({"beta": 1}, "comparisons['beta'] must be a list, not 1")],
    ids=["list", "item", "value"],
)
def test_export_rejects_comparisons_that_are_not_lists_of_reports(comparisons, message, tmp_path):
    # {"beta": [1]} leaked asdict's TypeError, and [1] was ignored
    for format in ("json", "csv"):
        path = tmp_path / f"report.{format}"
        with pytest.raises(TypeError) as raised:
            export_report([_summary(1.0, 0.25)], format, path, comparisons)
        assert str(raised.value) == message and not path.exists()


def test_export_io_errors_surface(tmp_path):
    res = run_experiment(5, 10, 0, [ParamKind.BETA])
    with pytest.raises(OSError):
        export_report(list(res.values()), "csv", tmp_path / "missing" / "report.csv")


@pytest.mark.parametrize("destination", [True, 1, 2.0, ["report.csv"]])
def test_export_rejects_a_destination_that_is_no_path_or_file(destination, capfd):
    # an int was taken as a file descriptor: written to, then closed
    res = run_experiment(5, 10, 0, [ParamKind.BETA])
    with pytest.raises(TypeError) as raised:
        export_report(list(res.values()), "csv", destination)
    what = "a path or a writable text file object"
    assert str(raised.value) == f"destination must be {what}, not {destination!r}"
    assert capfd.readouterr().out == ""


def test_decimals_use_twelve_significant_digits():
    res = run_experiment(20, 30, 6, [ParamKind.LAMBDA])
    s = res["lambda"]
    assert s.mean == float(f"{s.mean:.12g}")
    assert s.variance == float(f"{s.variance:.12g}")


def test_records_refuse_at_construction_what_leaked_later():
    # standard_error leaked "unsupported operand type(s) for /: 'float' and 'str'"
    with pytest.raises(TypeError) as raised:
        standard_error(SampleSummary("beta", True, "2", 0, 0.5, 0.25, 0, 1, 0.0))
    assert str(raised.value) == "SampleSummary size must be an integer, not True"
    with pytest.raises(TypeError) as raised:
        ComparisonReport(1.0, 1.0, 0.0, "x", 0.1, "se", 3, True)
    assert str(raised.value) == "ComparisonReport rel_err must be a real number, not 'x'"
    for changes, message in [
        ({"samples": 1}, "SampleSummary samples must be at least 2, not 1"),
        ({"samples": 10**400}, f"SampleSummary samples must be finite, not {10**400!r}"),
        ({"variance": -0.5}, "SampleSummary variance must be at least 0, not -0.5"),
        ({"param": "bogus"}, "unknown parameter 'bogus'"),
    ]:
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(_summary(1.0, 0.25), **changes)
        assert str(raised.value) == message
    report = compare_to_reference(_summary(1.0, 0.25), 1.0, Tolerance("se", 3))
    for changes, message in [
        ({"tolerance_mode": "sigma"}, "unknown tolerance mode 'sigma'"),
        ({"tolerance_value": -1}, "tolerance value must be non-negative, not -1"),
    ]:
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(report, **changes)
        assert str(raised.value) == message


def test_only_rel_err_may_be_infinite(tmp_path):
    # a zero reference gives an infinite rel_err, which export_report writes as null
    report = ComparisonReport(1.0, 0.0, 1.0, math.inf, 0.1, "se", 3, True)
    path = tmp_path / "report.json"
    export_report([_summary(1.0, 0.25)], "json", path, {"beta": [report]})
    assert json.loads(path.read_text())[0]["comparisons"][0]["rel_err"] is None
    for changes in ({"rel_err": -math.inf}, {"rel_err": math.nan}, {"abs_err": math.inf}):
        ((name, value),) = changes.items()
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(report, **changes)
        assert str(raised.value) == f"ComparisonReport {name} must be finite, not {value!r}"


def test_a_real_field_that_is_no_int_or_float_is_stored_as_a_float():
    # Tolerance("se", Fraction(1, 2)) and a Fraction mean made export_report
    # leak "Object of type Fraction is not JSON serializable"
    tolerance = Tolerance("se", Fraction(1, 2))
    assert tolerance == Tolerance("se", 0.5) and tolerance.value.__class__ is float
    summary = dataclasses.replace(_summary(1.0, 0.25), mean=Fraction(1, 2))
    assert summary == _summary(0.5, 0.25) and summary.mean.__class__ is float
    report = compare_to_reference(summary, 0.5, tolerance)
    buf = io.StringIO()
    export_report([summary], "json", buf, comparisons={"beta": [report]})
    (row,) = json.loads(buf.getvalue())
    assert row["mean"] == 0.5 and row["comparisons"][0]["tolerance_value"] == 0.5
    # an int is kept, so the export-import round trip stays exact
    assert Tolerance("se", 3).value.__class__ is int
    assert _summary(10**300, 0.25).mean == 10**300


@pytest.mark.parametrize("text", [5, None, ["[]"]])
def test_import_takes_text(text):
    # import_summaries(5) leaked json's "the JSON object must be str, bytes or
    # bytearray, not int", which names no parameter
    with pytest.raises(TypeError) as raised:
        import_summaries(text)
    assert str(raised.value) == f"text must be a str or bytes, not {text!r}"
    buf = io.StringIO()
    export_report([_summary(1.0, 0.25)], "json", buf)
    assert import_summaries(buf.getvalue().encode()) == [_summary(1.0, 0.25)]
