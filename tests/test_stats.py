import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from lamupsilon import (
    ComparisonReport,
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
    expected_param_exact,
    export_report,
    import_summaries,
    param_value,
    run_experiment,
    sample_term,
    size,
    standard_error,
    standardized_skewness,
    total_param_bruteforce,
    unsuspended_constructors,
)
from lamupsilon.stats import LIMIT_MEAN_SLOPE, LIMIT_VARIANCE_SLOPE, round12


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
    serial = run_experiment(10, 48, 7, [ParamKind.BETA, NESTED], workers=1)
    assert pools == []
    forked = run_experiment(10, 48, 7, [ParamKind.BETA, NESTED], workers=2)
    assert pools == [{"max_workers": 2}]
    assert serial == forked


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
    with pytest.raises(InvalidSize):
        run_experiment(0, 10, 0, [ParamKind.BETA])
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


def test_import_rejects_fewer_than_two_samples():
    # standard_error then divided by zero, and a run never has fewer than two
    row = _exported_row()
    for samples in (1, 0, -3):
        with pytest.raises(ValueError) as raised:
            import_summaries(json.dumps([{**row, "samples": samples}]))
        assert str(raised.value) == f"SampleSummary samples must be at least 2, not {samples}"
    assert import_summaries(json.dumps([{**row, "samples": 2}]))[0].samples == 2


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


def test_export_io_errors_surface(tmp_path):
    res = run_experiment(5, 10, 0, [ParamKind.BETA])
    with pytest.raises(OSError):
        export_report(list(res.values()), "csv", tmp_path / "missing" / "report.csv")


def test_decimals_use_twelve_significant_digits():
    res = run_experiment(20, 30, 6, [ParamKind.LAMBDA])
    s = res["lambda"]
    assert s.mean == float(f"{s.mean:.12g}")
    assert s.variance == float(f"{s.variance:.12g}")
