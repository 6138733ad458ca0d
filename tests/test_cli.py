import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lamupsilon import (
    BudgetExceeded,
    ParamKind,
    count_substs,
    count_terms,
    enumerate_terms,
    expected_param_exact,
    normalize,
    parse_term,
    render_term,
    size,
    trace_to_json,
)
from lamupsilon import NESTED, cli, rewrite
from lamupsilon.cli import main
from lamupsilon.verify import SUITES

from conftest import terms


def run_cli(capsys, *argv, stdin=None):
    import sys

    previous = sys.stdin
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    try:
        code = main(list(argv))
    finally:
        sys.stdin = previous
    out, err = capsys.readouterr()
    return code, out, err


def test_count_terms_golden(capsys):
    code, out, _ = run_cli(capsys, "count", "--max-size", "3", "--kind", "term")
    assert code == 0
    assert out == "0,0\n1,1\n2,2\n3,5\n"


def test_count_substs_golden(capsys):
    code, out, _ = run_cli(capsys, "count", "--max-size", "2", "--kind", "subst")
    assert code == 0
    assert out == "0,0\n1,1\n2,2\n"


def test_count_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "count", "--max-size", "0")
    assert code == 2 and "max-size" in err


@pytest.mark.parametrize("kind, counter", [("term", count_terms), ("subst", count_substs)])
def test_count_rows_equal_the_library_counts(capsys, kind, counter):
    code, out, _ = run_cli(capsys, "count", "--max-size", "500", "--kind", kind)
    assert code == 0
    assert out.endswith("\n")
    assert out.splitlines() == [f"{n},{counter(n)}" for n in range(501)]


def test_count_prints_past_the_int_digit_limit(capsys):
    # Catalan(7153) is the first count with more than 4300 digits, where str(int) stops
    code, out, _ = run_cli(capsys, "count", "--max-size", "7160")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 7161
    n, digits = rows[7153].split(",")
    assert n == "7153" and len(digits) > 4300
    assert Decimal(digits) == count_terms(7153)
    assert Decimal(rows[-1].split(",")[1]) == count_terms(7160)


def test_sample_size_one(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--size", "1", "--count", "3", "--seed", "7"
    )
    assert code == 0 and out == "0\n0\n0\n"


def test_sample_is_deterministic(capsys):
    args = ("sample", "--size", "5", "--count", "1", "--seed", "42")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second and first[0] == 0


def test_sampled_terms_have_requested_size(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--size", "5", "--count", "200", "--seed", "1"
    )
    assert code == 0
    for line in out.strip().splitlines():
        assert size(parse_term(line)) == 5


def test_sample_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--size", "4", "--count", "5", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    rendered = json.loads(out)
    assert len(rendered) == 5
    assert all(size(parse_term(r)) == 4 for r in rendered)
    # written one term at a time, byte for byte as json.dumps of the list
    assert out == json.dumps(rendered) + "\n"
    argv = ("sample", "--size", "4", "--count", "1", "--seed", "3", "--format", "json")
    assert run_cli(capsys, *argv) == (0, json.dumps(rendered[:1]) + "\n", "")


def test_sample_rejects_zero_size(capsys):
    assert run_cli(capsys, "sample", "--size", "0")[0] == 2


def test_normalize_worked_reduction(capsys):
    code, out, _ = run_cli(
        capsys, "normalize", "--term", "(\\\\1) 0", "--strategy", "full", "--trace"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "\\1"
    trace = json.loads(lines[1])
    assert [s["rule"] for s in trace] == [
        "Beta", "Lambda", "RVarLift", "FVar", "VarShift",
    ]
    assert set(trace[0]) == {"rule", "position", "term"}
    assert trace[-1]["term"] == "\\1"


def test_normalize_upsilon(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--term", "0[0/]", "--strategy", "upsilon")
    assert code == 0 and out == "0\n"


def test_normalize_reads_stdin(capsys):
    code, out, _ = run_cli(capsys, "normalize", stdin="0[shift]\n")
    assert code == 0 and out == "1\n"


def test_normalize_flag_wins_over_stdin(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--term", "0", stdin="0[shift]")
    assert code == 0 and out == "0\n"


class _UnreadableStdin(io.StringIO):
    """A piped stdin that nobody closes: reading it would block."""

    def read(self, *args):
        raise AssertionError("stdin was read although --term was given")


def test_normalize_with_term_never_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    assert not sys.stdin.isatty()
    code = main(["normalize", "--term", "0[shift]"])
    out, _ = capsys.readouterr()
    assert code == 0 and out == "1\n"


def test_normalize_with_stdin_closed_reads_the_flag(capsys, monkeypatch):
    # a closed stdin (``<&-``) leaves sys.stdin as None
    monkeypatch.setattr(sys, "stdin", None)
    code = main(["normalize", "--term", "0[shift]"])
    out, _ = capsys.readouterr()
    assert code == 0 and out == "1\n"


def test_normalize_without_input_is_usage_error(capsys):
    assert run_cli(capsys, "normalize")[0] == 2


def test_normalize_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "normalize", "--term", "0[")
    assert code == 2 and "expected" in err


@pytest.mark.parametrize(
    "text, normal",
    [
        ("(" * 30_000 + "0" + ")" * 30_000, "0"),
        ("\\" * 30_000 + "0", "\\" * 30_000 + "0"),
    ],
    ids=["parentheses", "binders"],
)
def test_normalize_deep_input(capsys, default_recursion_limit, text, normal):
    assert run_cli(capsys, "normalize", "--term", text) == (0, normal + "\n", "")
    assert sys.getrecursionlimit() == 1000


_FUZZ_TOKENS = list("\\()[]/0123456789 ²x") + ["shift", "lift", "lift("]


@given(
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=40).map("".join)
    | terms.map(render_term)
)
@example("(\\0 0) (\\0 0)")  # never normal: the budget runs out
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_normalize_fuzz_never_raises(capsys, text):
    limit = sys.getrecursionlimit()
    code, _, err = run_cli(capsys, "normalize", "--term", text, "--max-steps", "50")
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error:")
    assert sys.getrecursionlimit() == limit


def test_normalize_budget_exhaustion(capsys):
    code, out, err = run_cli(
        capsys, "normalize", "--term", "(\\\\1) 0", "--max-steps", "2"
    )
    assert code == 1
    assert out == "\\1[lift(0/)]\n"
    assert "budget" in err
    code, out, err = run_cli(
        capsys, "normalize", "--term", "(\\\\1) 0", "--max-steps", "2", "--trace"
    )
    assert code == 1
    partial, trace = out.splitlines()
    steps = json.loads(trace)
    assert partial == "\\1[lift(0/)]"
    assert [s["rule"] for s in steps] == ["Beta", "Lambda"]
    assert steps[-1]["term"] == partial
    assert "budget" in err


def test_streamed_trace_equals_the_library_json_after_a_budget_stop(capsys):
    text = "(\\\\1 0) (\\0) 2"
    code, out, _ = run_cli(capsys, "normalize", "--term", text, "--max-steps", "6", "--trace")
    with pytest.raises(BudgetExceeded) as stopped:
        normalize(parse_term(text), "full", 6)
    assert code == 1 and len(stopped.value.trace) == 6
    assert out == f"{render_term(stopped.value.term)}\n{json.dumps(trace_to_json(stopped.value.trace))}\n"


def test_normalize_prints_an_index_past_the_int_digit_limit(capsys):
    # the largest index the parser reads becomes one of 4301 digits, where str(int) stops
    text = "9" * 4300 + "[shift]"
    normal = "1" + "0" * 4300
    assert run_cli(capsys, "normalize", "--term", text) == (0, normal + "\n", "")
    code, out, _ = run_cli(capsys, "normalize", "--term", text, "--trace")
    lines = out.splitlines()
    assert code == 0 and lines[0] == normal
    assert json.loads(lines[1]) == [{"rule": "VarShift", "position": [], "term": normal}]


def test_trace_of_a_normal_form_is_an_empty_array(capsys):
    assert run_cli(capsys, "normalize", "--term", "\\0 1", "--trace") == (0, "\\0 1\n[]\n", "")


def test_normalize_never_keeps_terms(capsys, monkeypatch):
    # a trace holds the input, a rule and a bytes position per step, and --trace
    # replays the result terms from the input one at a time without building steps
    traces = []

    def spy(*args, **kwargs):
        normal, trace = normalize(*args, **kwargs)
        traces.append(trace)
        return normal, trace

    monkeypatch.setattr(rewrite, "normalize", spy)  # the command imports it when run
    assert run_cli(capsys, "normalize", "--term", "(\\\\1) 0")[:2] == (0, "\\1\n")
    code, out, _ = run_cli(capsys, "normalize", "--term", "(\\\\1) 0", "--trace")
    plain, traced = traces
    for trace in (plain, traced):
        assert "steps" not in vars(trace)
        start, rules, positions = vars(trace)["_record"]
        assert start == parse_term("(\\\\1) 0") and len(rules) == 5
        assert all(position.__class__ is bytes for position in positions)
    kept = normalize(parse_term("(\\\\1) 0"))[1]
    assert (code, out) == (0, f"\\1\n{json.dumps(trace_to_json(kept))}\n")


def test_the_parser_choices_equal_their_sources():
    # the parser lists them itself, so that building it loads no submodule
    assert cli._PARAMS == tuple(kind.value for kind in ParamKind)
    assert cli._PARAM_NAMES == (*cli._PARAMS, NESTED)
    assert cli._SUITES == tuple(sorted(SUITES))


def test_a_trace_that_does_not_replay_is_an_internal_error(capsys, monkeypatch):
    # never exit code 1, which means a spent budget
    def refuse(term, redex):
        raise rewrite.InvalidRedex("refused")

    monkeypatch.setattr(rewrite, "apply_at", refuse)
    with pytest.raises(RuntimeError, match="^step 0 of the trace does not replay: refused$"):
        main(["normalize", "--term", "0[shift]", "--trace"])
    assert capsys.readouterr().out == "1\n["


def test_expect_golden(capsys):
    code, out, _ = run_cli(capsys, "expect", "--param", "beta", "--size", "4")
    assert code == 0
    assert out.splitlines() == ["1/14", "0.0714285714286"]


def test_expect_unsuspended_size_one(capsys):
    code, out, _ = run_cli(capsys, "expect", "--param", "unsuspended", "--size", "1")
    assert code == 0
    assert out.splitlines() == ["1", "1"]


def test_expect_scales_to_size_20000(capsys):
    code, out, _ = run_cli(capsys, "expect", "--param", "beta", "--size", "20000")
    assert code == 0
    slope = Fraction(3, 64)
    per_node = Fraction(out.splitlines()[0]) / 20000
    at_2000 = expected_param_exact(ParamKind.BETA, 2000) / 2000
    assert abs(per_node - slope) < abs(at_2000 - slope)


def test_expect_prints_rationals_beyond_the_int_digit_limit(capsys):
    # the size-8000 mean has a denominator of over 4300 digits, where str(int) stops
    value = expected_param_exact(ParamKind.UNSUSPENDED, 8000)
    code, out, _ = run_cli(capsys, "expect", "--param", "unsuspended", "--size", "8000")
    assert code == 0
    num, den = out.splitlines()[0].split("/")
    assert len(den) > 4300
    assert (Decimal(num), Decimal(den)) == (value.numerator, value.denominator)
    assert out.splitlines()[1] == f"{float(value):.12g}"


def test_expect_rejects_bad_size(capsys):
    assert run_cli(capsys, "expect", "--param", "beta", "--size", "0")[0] == 2


def test_stats_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--size", "20", "--samples", "50", "--seed", "3",
        "--params", "beta,nested",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["param"] for r in rows] == ["beta", "nested"]
    for row in rows:
        assert row["size"] == 20 and row["samples"] == 50 and row["seed"] == 3
        assert row["comparisons"]
        for comparison in row["comparisons"]:
            assert set(comparison) == {
                "observed", "reference", "abs_err", "rel_err", "standard_error",
                "tolerance_mode", "tolerance_value", "verdict",
            }


def test_stats_json_is_strict_where_the_exact_reference_is_zero(capsys):
    # no beta redex fits in size 3, so the exact reference is 0 and rel_err is null
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out, _ = run_cli(capsys, "stats", "--size", "3", "--samples", "4", "--params", "beta")
    assert code == 0
    (row,) = json.loads(out, parse_constant=reject)
    exact, limit = row["comparisons"]
    assert exact["reference"] == 0.0 and exact["rel_err"] is None
    assert limit["rel_err"] == 1.0


def test_stats_reports_a_repeated_param_once(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--size", "12", "--samples", "20", "--params", "beta,nested,beta"
    )
    assert code == 0
    assert [row["param"] for row in json.loads(out)] == ["beta", "nested"]


def test_stats_is_deterministic(capsys):
    args = ("stats", "--size", "15", "--samples", "40", "--seed", "9")
    assert run_cli(capsys, *args) == run_cli(capsys, *args)


def test_stats_rejects_unknown_param(capsys):
    # the library's messages, byte for byte what the command printed itself before
    for params, message in [
        ("zeta", "unknown parameter 'zeta'"),
        ("beta, zeta,nested", "unknown parameter 'zeta'"),
        (",", "no parameters requested"),
        (" , ", "no parameters requested"),
    ]:
        run = run_cli(capsys, "stats", "--size", "5", "--samples", "10", "--params", params)
        assert run == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("threads", ["x", "0"])
def test_stats_rejects_bad_thread_count(capsys, monkeypatch, threads):
    monkeypatch.setenv("UPSILON_THREADS", threads)
    code, out, err = run_cli(capsys, "stats", "--size", "5", "--samples", "10")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UPSILON_THREADS" in err


def test_verify_catalan(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "catalan", "--max-size", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_without_max_size_uses_the_suite_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "catalan")
    assert code == 0 and "Catalan(n) for 1..64" in out


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--max-size", "6")
    assert code == 0


def test_verify_bijection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijection", "--max-size", "6")
    assert code == 0


def test_verify_rewrite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "rewrite", "--max-size", "6")
    assert code == 0


# Every integer flag of every subcommand, next to small values for the rest.
_INT_FLAGS = [
    (["count", "--kind", "subst"], "--max-size"),
    (["sample", "--count", "2"], "--size"),
    (["sample", "--size", "3"], "--count"),
    (["sample", "--size", "3"], "--seed"),
    (["normalize", "--term", "(\\0 0) (\\0 0)"], "--max-steps"),
    (["stats", "--samples", "2", "--params", "beta,nested"], "--size"),
    (["stats", "--size", "3", "--params", "beta,nested"], "--samples"),
    (["stats", "--size", "3", "--samples", "2", "--params", "beta"], "--seed"),
    (["expect", "--param", "beta"], "--size"),
    (["verify", "--suite", "catalan"], "--max-size"),
]
# sizes large enough to overflow an array index, where rejection is immediate
_HUGE = {("sample", "--size"), ("stats", "--size")}


@pytest.mark.parametrize(
    "argv",
    [
        base + [flag, value]
        for base, flag in _INT_FLAGS
        for value in ("0", "-1", "x") + ((str(10**20),) if (base[0], flag) in _HUGE else ())
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}={argv[-1]}",
)
def test_integer_flags_fail_cleanly(capsys, argv):
    try:
        code, _, err = run_cli(capsys, *argv)
    except SystemExit as stop:  # argparse rejects non-numeric values
        code, err = stop.code, capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert "error" in err


@pytest.mark.parametrize("command", [["sample"], ["stats", "--samples", "2"]])
def test_a_size_whose_arrays_the_allocator_refuses_exits_two(capsys, command):
    # 2n + 1 is below sys.maxsize; the arrays would take 16 PB
    message = "error: the size is too large: Rémy's arrays do not fit in memory\n"
    assert run_cli(capsys, *command, "--size", str(10**15)) == (2, "", message)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count"])  # missing required flag
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


def test_cli_matches_library_counts(capsys):
    _, out, _ = run_cli(capsys, "count", "--max-size", "8")
    rows = [line.split(",") for line in out.strip().splitlines()]
    for n, text in rows:
        if int(n) >= 1:
            assert int(text) == len(enumerate_terms(int(n)))


def test_cli_sample_matches_library(capsys):
    from lamupsilon import Rng, sample_term

    _, out, _ = run_cli(capsys, "sample", "--size", "9", "--count", "4", "--seed", "11")
    want = [render_term(sample_term(9, Rng.derived(11, i))) for i in range(4)]
    assert out.strip().splitlines() == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--max-size", "0"], "--max-size must be at least 1"),
        (["sample", "--size", "0"], "--size must be at least 1"),
        (["sample", "--size", "3", "--count", "0"], "--count must be at least 1"),
        (["sample", "--size", "0", "--count", "0"], "--size must be at least 1"),
        (["stats", "--size", "0", "--samples", "2"], "--size must be at least 1"),
        (["stats", "--size", "3", "--samples", "1"], "--samples must be at least 2"),
        (["expect", "--param", "beta", "--size", "0"], "--size must be at least 1"),
        (["verify", "--suite", "catalan", "--max-size", "0"], "--max-size must be at least 1"),
        (["normalize", "--term", "0", "--max-steps", "-1"], "--max-steps must be non-negative"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_option_bounds_give_their_message_byte_for_byte(capsys, argv, message):
    # with two bad options, the first one in the command's table is named
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
