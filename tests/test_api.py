import ast
import copy
import dataclasses
import functools
import inspect
import io
import json
import math
import operator
import os
import pickle
import re
import subprocess
import sys
import textwrap
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

import pytest

import lamupsilon
from lamupsilon import (
    SHIFT,
    Abs,
    App,
    BinTree,
    Closure,
    Index,
    Lift,
    ParamKind,
    Redex,
    Rng,
    RuleKind,
    SampleSummary,
    Series,
    Slash,
    Tolerance,
    Trace,
    TraceStep,
    apply_at,
    catalan,
    compare_to_reference,
    count_all_redexes,
    count_redexes,
    count_substs,
    count_terms,
    enumerate_substs,
    enumerate_terms,
    enumerate_trees,
    expected_param_exact,
    export_report,
    find_redexes,
    has_nested_substitution,
    import_summaries,
    is_pure,
    is_strict_form_bounded,
    iter_subterms,
    nested_free_fraction,
    node_count,
    normalize,
    param_value,
    parse_term,
    phi,
    phi_inv,
    remy_tree,
    render_subst,
    render_term,
    replace_at,
    run_experiment,
    sample_term,
    size,
    size_sub,
    solve_core_series,
    solve_restricted_series,
    standard_error,
    standardized_skewness,
    subterm_at,
    total_param_bruteforce,
    trace_to_json,
    tree_from_json,
    tree_to_json,
    unsuspended_constructors,
)

#: The public names; refactors must leave this list exactly as it is.
PUBLIC_NAMES = [
    "ALL_RULES", "Abs", "App", "BinTree", "BoundExceeded", "BudgetExceeded",
    "Closure", "ComparisonReport", "ENUMERATION_BOUND", "Index",
    "InsufficientSamples", "InvalidRedex", "InvalidSize", "LIMIT_MEAN_SLOPE",
    "LIMIT_VARIANCE_SLOPE", "Lift", "NESTED", "ParamKind", "ParseError",
    "Position", "Redex", "Rng", "RuleKind", "SHIFT", "SampleSummary", "Series",
    "Shift", "Slash", "Subst", "Term", "Tolerance", "Trace", "TraceStep",
    "UNSUSPENDED_MEAN_LIMIT", "UPSILON_RULES", "apply_at", "catalan",
    "compare_to_reference", "count_all_redexes", "count_redexes", "count_substs",
    "count_terms", "enumerate_substs", "enumerate_terms", "enumerate_trees",
    "expected_param_exact", "export_report", "find_redexes",
    "has_nested_substitution", "import_summaries", "is_pure",
    "is_strict_form_bounded", "iter_subterms", "match_redex",
    "nested_free_fraction", "node_count", "normalize", "param_value",
    "parse_term", "phi", "phi_inv", "remy_tree", "render_subst", "render_term",
    "replace_at", "rewrite", "run_experiment", "sample_term", "series", "size",
    "size_sub", "solve_core_series", "solve_restricted_series",
    "standard_error", "standardized_skewness", "stats", "subterm_at", "syntax",
    "terms", "total_param_bruteforce", "trace_to_json", "tree_from_json",
    "tree_to_json", "trees", "unsuspended_constructors",
]


def _fresh_interpreter(code: str, stdin: bytes = b"") -> bytes:
    """stdout of ``code`` run in a new interpreter that sees this lamupsilon."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-c", textwrap.dedent(code)]
    run = subprocess.run(argv, input=stdin, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def test_public_names_are_unchanged():
    assert sorted(lamupsilon.__all__) == PUBLIC_NAMES
    # the names load lazily, but a star import binds every one of them
    star: dict = {}
    exec("from lamupsilon import *", star)
    for name in lamupsilon.__all__:
        assert star[name] is getattr(lamupsilon, name), name
    assert set(lamupsilon.__all__) <= set(dir(lamupsilon))
    with pytest.raises(AttributeError, match="^module 'lamupsilon' has no attribute 'no_such_name'$"):
        lamupsilon.no_such_name


def test_import_loads_only_what_is_used():
    # the exact path touches no term: a module-level import of rewrite or
    # terms in series would show up here as a larger module set
    code = """
        import sys
        loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "lamupsilon")
        import lamupsilon
        print(loaded())
        lamupsilon.expected_param_exact(lamupsilon.ParamKind.BETA, 5)
        lamupsilon.nested_free_fraction(5)
        print(loaded(), "dataclasses" in sys.modules)
        lamupsilon.normalize
        print("lamupsilon.rewrite" in loaded())
    """
    assert _fresh_interpreter(code).decode().splitlines() == [
        "['lamupsilon']",
        "['lamupsilon', 'lamupsilon.series'] False",
        "True",
    ]


@pytest.mark.parametrize("argv", [["expect", "--param", "beta", "--size", "5"],
                                  ["count", "--max-size", "3"]])
def test_expect_and_count_load_only_series(argv):
    # the parser names its choices itself and each command imports what it
    # uses, so neither loads the terms, trees, rewriter, statistics or suites
    code = f"""
        import contextlib, io, sys
        from lamupsilon.cli import _build_parser, main
        loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "lamupsilon")
        _build_parser()
        print(loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
        print(loaded(), "dataclasses" in sys.modules)
    """
    assert _fresh_interpreter(code).decode().splitlines() == [
        "['lamupsilon', 'lamupsilon.cli']",
        "['lamupsilon', 'lamupsilon.cli', 'lamupsilon.series'] False",
    ]


def test_public_objects_pickle_across_fresh_interpreters():
    # a child that only ran ``import lamupsilon`` loads this process's
    # pickles and writes its own, which load back here
    objects = [lamupsilon.ParamKind.BETA, lamupsilon.SHIFT, lamupsilon.Index(3)]
    code = """
        import pickle, sys
        import lamupsilon
        objects = [lamupsilon.ParamKind.BETA, lamupsilon.SHIFT, lamupsilon.Index(3)]
        assert pickle.loads(sys.stdin.buffer.read()) == objects
        sys.stdout.buffer.write(pickle.dumps(objects))
    """
    assert pickle.loads(_fresh_interpreter(code, pickle.dumps(objects))) == objects


def test_public_classes_and_functions_have_docstrings():
    # a dataclass without one gets its own signature as its docstring
    for name in lamupsilon.__all__:
        obj = getattr(lamupsilon, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        generated = None
        if dataclasses.is_dataclass(obj):
            generated = obj.__name__ + str(inspect.signature(obj)).replace(" -> None", "")
        assert obj.__doc__ and obj.__doc__ != generated, name


def test_modules_import_only_the_standard_library():
    # the package and its tools are stdlib-only: every absolute import is
    # lamupsilon itself or a standard-library module
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "lamupsilon").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    allowed = sys.stdlib_module_names | {"lamupsilon"}
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, f"{source.name} imports {name}"


def test_index_is_the_only_node_class_with_its_own_post_init():
    # every other term, substitution and skeleton class checks its children
    # in _Node.__post_init__, which reads each sort from the one table
    # terms._SORTS; a check of its own would state a sort a second time
    from lamupsilon.terms import _Node

    objects = [getattr(lamupsilon, name) for name in lamupsilon.__all__]
    classes = [obj for obj in objects if inspect.isclass(obj) and issubclass(obj, _Node)]
    assert {cls.__name__ for cls in classes} == {
        "Abs", "App", "BinTree", "Closure", "Index", "Lift", "Shift", "Slash"}
    assert [cls.__name__ for cls in classes if "__post_init__" in vars(cls)] == ["Index"]


_TERM = App(Abs(Index(0)), Index(0))
_STEP = TraceStep(RuleKind.BETA, (), _TERM)
_SUMMARY = SampleSummary("beta", 5, 10, 0, 0.5, 0.25, 0, 1, 0.0)
_SE3, _BETA = Tolerance("se", 3), [ParamKind.BETA]


def _cached(function, name: str):
    """A call of the cached ``function`` by keyword, after 1 and 2 are cached:
    a positional call keys a lone int apart from other classes, a keyword call
    does not, so a cached 1 or 2 must not answer for True or 2.0."""
    def call(x):
        function(**{name: 1}), function(**{name: 2})
        return function(**{name: x})
    return call


def _fields(*records, label=None):
    """A row per field of each record, a node or a stats record, that rebuilds
    it with ``x`` in the field; its key is read off the field's annotation,
    and its messages name the field after ``label`` (default: the class)."""
    return {
        (record.__class__.__name__, field.name): (
            "real" if field.type == "float" else f"{field.type} field",
            lambda x, record=record, name=field.name: dataclasses.replace(record, **{name: x}),
            f"{label or record.__class__.__name__} {field.name}",
        )
        for record in records for field in dataclasses.fields(record)
    }


#: Every public parameter and field, keyed by (entry point, parameter): the
#: key of its wrong values in ``WRONG``, a call that puts ``x`` in that
#: parameter and valid values elsewhere, and what its messages call it when
#: that is not the parameter's name.  A class's own key is its name; a call of
#: ``export_report`` also takes its destination, ``to``.
CONTRACT = {
    **_fields(Abs(Index(0)), App(Index(0), Index(1)), Closure(Index(0), SHIFT), Slash(Index(2)),
              Lift(SHIFT), BinTree()),
    ("Index", "n"): ("int", Index, "de Bruijn index n"),
    ("size", "term"): ("Node", size),
    ("size_sub", "sub"): ("Subst", size_sub),
    ("is_pure", "term"): ("Term", is_pure),
    ("iter_subterms", "term"): ("Term", iter_subterms),  # checked at the call
    ("subterm_at", "term"): ("Term", lambda x: subterm_at(x, ())),
    ("subterm_at", "position"): ("position", lambda x: subterm_at(_TERM, x)),
    ("replace_at", "term"): ("Term", lambda x: replace_at(x, (), Index(1))),
    ("replace_at", "position"): ("position", lambda x: replace_at(_TERM, x, Index(1))),
    ("replace_at", "replacement"): ("Term", lambda x: replace_at(_TERM, (), x)),
    ("parse_term", "text"): ("str text", parse_term),
    ("render_term", "term"): ("Term", render_term),
    ("render_subst", "sub"): ("Subst", render_subst),
    ("RuleKind", "value"): ("RuleKind value", RuleKind),
    ("Redex", "position"): (
        "position", lambda x: apply_at(App(_TERM, _TERM), Redex(x, RuleKind.BETA))
    ),
    ("Redex", "kind"): ("RuleKind", lambda x: apply_at(_TERM, Redex((), x))),
    ("TraceStep", "rule"): ("RuleKind", lambda x: Trace((_STEP._replace(rule=x),))),
    ("TraceStep", "position"): ("position", lambda x: Trace((_STEP._replace(position=x),))),
    ("TraceStep", "result"): ("Optional[Term]", lambda x: Trace((_STEP._replace(result=x),))),
    ("Trace", "steps"): ("steps", Trace),
    ("trace_to_json", "trace"): ("Trace", trace_to_json),
    ("apply_at", "term"): ("Term", lambda x: apply_at(x, Redex((), RuleKind.BETA))),
    ("apply_at", "redex"): ("Redex", lambda x: apply_at(_TERM, x)),
    ("find_redexes", "term"): ("Term", find_redexes),
    ("find_redexes", "kinds"): ("kinds", lambda x: find_redexes(_TERM, x)),
    ("count_redexes", "term"): ("Term", lambda x: count_redexes(x, RuleKind.BETA)),
    ("count_redexes", "kind"): ("RuleKind", lambda x: count_redexes(_TERM, x)),
    ("count_all_redexes", "term"): ("Term", count_all_redexes),
    ("has_nested_substitution", "term"): ("Term", has_nested_substitution),
    ("unsuspended_constructors", "term"): ("Term", unsuspended_constructors),
    ("is_strict_form_bounded", "term"): ("Term", is_strict_form_bounded),
    ("is_strict_form_bounded", "max_source_size"): (
        "int", lambda x: is_strict_form_bounded(Index(0), max_source_size=x)
    ),
    ("is_strict_form_bounded", "max_steps"): (
        "int", lambda x: is_strict_form_bounded(Index(0), max_steps=x)
    ),
    ("normalize", "term"): ("Term", normalize),
    ("normalize", "strategy"): ("choice", lambda x: normalize(_TERM, x)),
    ("normalize", "max_steps"): ("int", lambda x: normalize(_TERM, "full", x)),
    ("normalize", "keep_terms"): ("bool", lambda x: normalize(_TERM, keep_terms=x)),
    ("phi", "tree"): ("BinTree", phi),
    ("phi_inv", "term"): ("Term", phi_inv),
    ("node_count", "tree"): ("BinTree", node_count),
    ("tree_to_json", "tree"): ("Optional[BinTree]", tree_to_json),
    # its message speaks of the data as its nodes
    ("tree_from_json", "data"): ("JSON tree", tree_from_json, "node"),
    ("enumerate_trees", "n"): ("int", _cached(enumerate_trees, "n")),
    ("Rng", "seed"): ("int", Rng),
    ("Rng.derived", "seed"): ("int", lambda x: Rng.derived(x, 0)),
    ("Rng.derived", "index"): ("int", lambda x: Rng.derived(0, x)),
    ("Rng.below", "bound"): ("int", lambda x: Rng(0).below(x)),
    ("remy_tree", "n"): ("int", lambda x: remy_tree(x, Rng(0))),
    ("remy_tree", "rng"): ("Rng", lambda x: remy_tree(5, x)),
    ("sample_term", "n"): ("int", lambda x: sample_term(x, Rng(0))),
    ("sample_term", "rng"): ("Rng", lambda x: sample_term(5, x)),
    ("Series", "coeffs"): ("coeffs", Series),
    ("Series.one", "order"): ("int", Series.one),
    ("Series.z", "order"): ("int", Series.z),
    ("Series.coefficient", "n"): ("int", lambda x: Series.one(3).coefficient(x)),
    **{(f"Series.{name}", "other"): ("operand", lambda x, op=op: op(Series.one(2), x), symbol)
       for name, op, symbol in [("__add__", operator.add, "+"), ("__sub__", operator.sub, "-"),
                                ("__mul__", operator.mul, "*"),
                                ("__truediv__", operator.truediv, "/")]},
    ("ParamKind", "value"): ("ParamKind value", ParamKind),
    ("catalan", "n"): ("int", catalan),
    ("count_terms", "n"): ("int", count_terms),
    ("count_substs", "n"): ("int", count_substs),
    ("solve_core_series", "order"): ("int", _cached(solve_core_series, "order")),
    ("solve_restricted_series", "order"): ("int", _cached(solve_restricted_series, "order")),
    ("enumerate_terms", "n"): ("int", enumerate_terms),
    ("enumerate_terms", "max_size"): ("int", lambda x: enumerate_terms(2, x)),
    ("enumerate_substs", "n"): ("int", enumerate_substs),
    ("enumerate_substs", "max_size"): ("int", lambda x: enumerate_substs(2, x)),
    ("expected_param_exact", "param"): ("ParamKind", lambda x: expected_param_exact(x, 4)),
    ("expected_param_exact", "n"): ("int", lambda x: expected_param_exact(ParamKind.BETA, x)),
    ("nested_free_fraction", "n"): ("int", nested_free_fraction),
    ("param_value", "term"): ("Term", lambda x: param_value(x, ParamKind.BETA)),
    ("param_value", "param"): ("ParamKind", lambda x: param_value(_TERM, x)),
    # at n = 0 there is no term to check the kind on
    ("total_param_bruteforce", "param"): ("ParamKind", lambda x: total_param_bruteforce(x, 0)),
    ("total_param_bruteforce", "n"): ("int", lambda x: total_param_bruteforce(ParamKind.BETA, x)),
    ("total_param_bruteforce", "max_size"): (
        "int", lambda x: total_param_bruteforce(ParamKind.BETA, 3, x)
    ),
    **_fields(_SUMMARY, compare_to_reference(_SUMMARY, 0.5, _SE3)),
    **_fields(_SE3, label="tolerance"),
    ("run_experiment", "n"): ("int", lambda x: run_experiment(x, 4, 0, _BETA)),
    ("run_experiment", "m"): ("int", lambda x: run_experiment(3, x, 0, _BETA)),
    # no params either: the seed is checked first, before any sample or worker
    ("run_experiment", "seed"): ("int", lambda x: run_experiment(3, 4, x, ())),
    ("run_experiment", "params"): ("params", lambda x: run_experiment(5, 4, 0, x)),
    ("run_experiment", "workers"): ("int", lambda x: run_experiment(3, 4, 0, _BETA, workers=x)),
    ("standard_error", "summary"): ("SampleSummary", standard_error),
    ("standardized_skewness", "summary"): ("SampleSummary", standardized_skewness),
    ("compare_to_reference", "summary"): (
        "SampleSummary", lambda x: compare_to_reference(x, 0.5, _SE3)
    ),
    ("compare_to_reference", "reference"): (
        "real", lambda x: compare_to_reference(_SUMMARY, x, _SE3)
    ),
    ("compare_to_reference", "tolerance"): (
        "Tolerance", lambda x: compare_to_reference(_SUMMARY, 0.5, x)
    ),
    ("export_report", "results"): ("results", lambda x, to: export_report(x, "json", to)),
    ("export_report", "format"): ("choice", lambda x, to: export_report([_SUMMARY], x, to)),
    ("export_report", "destination"): (
        "destination", lambda x, to: export_report([_SUMMARY], "csv", x)
    ),
    ("export_report", "comparisons"): (
        "comparisons", lambda x, to: export_report([_SUMMARY], "json", to, x)
    ),
    ("import_summaries", "text"): ("JSON text", import_summaries),
}


def _each(error, message: str, *values) -> list:
    """A (value, error, message) triple per value."""
    return [(x, error, message) for x in values]


_NOT_A_NODE = _each(TypeError, "not a lambda-upsilon node: {x!r}", object(), None, BinTree())
_NOT_A_TERM = _each(TypeError, "not a term: {x!r}", SHIFT, Slash(Index(0)))
_NOT_A_BINTREE = _each(TypeError, "not a BinTree: {x!r}", Index(0), SHIFT, object())
_NODE = "each {} must be an object with 'l' and 'r': "

#: The wrong values of each key: (value, error, message), where the message is
#: formatted with what the row calls the parameter and with ``x``, the value.
#: An error of None marks a valid value, with in place of the message a value
#: that gives the same result.
WRONG = {
    "int": _each(TypeError, "{} must be an int, not {x!r}", True, 2.0, "3", 0.5),
    "bool": _each(TypeError, "not a bool: {x!r}", "no", 2, None),
    "real": _each(TypeError, "{} must be a real number, not {x!r}", "0.5", False, None)
    + _each(ValueError, "{} must be finite, not {x!r}", math.nan, 10**400)
    + [(Fraction(1, 2), None, 0.5)],
    "choice": _each(ValueError, "unknown {} {x!r}", None, 1, "", b"csv", "xml"),
    "ParamKind": _each(TypeError, "not a ParamKind: {x!r}", True, 2.0, "3", "beta"),
    "RuleKind": _each(TypeError, "not a RuleKind: {x!r}", True, 2.0, "3", "Beta", 1),
    "ParamKind value": _each(ValueError, "{x!r} is not a valid ParamKind", "x", 5, None),
    "RuleKind value": _each(ValueError, "{x!r} is not a valid RuleKind", "beta", 5, None),
    "Term": _NOT_A_TERM + _NOT_A_NODE,
    "Optional[Term]": _NOT_A_TERM + [w for w in _NOT_A_NODE if w[0] is not None],
    "Subst": _each(TypeError, "not a substitution: {x!r}", Index(0), Abs(Index(0))) + _NOT_A_NODE,
    "Node": _NOT_A_NODE,
    "BinTree": _NOT_A_BINTREE + _each(TypeError, "not a BinTree: {x!r}", None),
    "Optional[BinTree]": _NOT_A_BINTREE,
    **{cls.__name__: _each(TypeError, f"not a {cls.__name__}: {{x!r}}",
                           ((), RuleKind.BETA), 3, None, object())
       for cls in (Rng, Redex, Trace, SampleSummary, Tolerance)},
    "position": _each(TypeError, "{} must be a tuple of ints, not {x!r}", 5, None, object(), "0")
    + _each(TypeError, "{} ordinal must be an int, not {x[0]!r}", (True,), (2.0,), ("3",), ("a",))
    + _each(TypeError, "{} ordinal must be an int, not {x[1]!r}", (0, True), (0, 2.0), (0, "3"))
    + [([0], None, (0,)), (iter([0]), None, (0,))],
    "kinds": _each(TypeError, "{} must be a list of RuleKind members, not {x!r}",
                   5, object(), "0", RuleKind.BETA)
    + _each(TypeError, "not a RuleKind: {x[0]!r}", [True], [2.0], ["3"])
    + [(None, None, tuple(RuleKind)), (iter([RuleKind.BETA]), None, (RuleKind.BETA,))],
    "params": _each(TypeError, "{} must be a list of parameter names, not {x!r}",
                    5, None, object(), "0")
    + [(["bogus"], ValueError, "unknown parameter {x[0]!r}"), (iter(["beta"]), None, ("beta",))],
    "results": _each(TypeError, "{} must be a list of SampleSummary records, not {x!r}",
                     5, None, object(), "0")
    + _each(TypeError, "not a SampleSummary: {x[1]!r}",
            *([_SUMMARY, x] for x in (((), RuleKind.BETA), 3, None, object())))
    + [(iter([_SUMMARY]), None, (_SUMMARY,))],
    "steps": [(5, TypeError, "{} must be a tuple of TraceStep records, not {x!r}"),
              ([1], TypeError, "not a TraceStep: {x[0]!r}"),
              ((_STEP, None), TypeError, "not a TraceStep: {x[1]!r}"),
              ([_STEP], None, (_STEP,)), (iter([_STEP]), None, (_STEP,))],
    "coeffs": _each(TypeError, "{} must be an iterable of coefficients, not {x!r}", 5, None, "12")
    + [([1, 2], None, (1, 2)), (iter([1, 2]), None, (1, 2))],
    "comparisons": [([1], TypeError, "{} must be a dict of lists, not {x!r}"),
                    ({"beta": [1]}, TypeError, "not a ComparisonReport: {x[beta][0]!r}"),
                    ({"beta": 1}, TypeError, "{}['beta'] must be a list, not {x[beta]!r}"),
                    (None, None, {})],
    "destination": _each(TypeError, "{} must be a path or a writable text file object, not {x!r}",
                         True, 1, 2.0, ["report.csv"])
    + [(None, ValueError, "a {} is required")],
    "operand": _each(TypeError, "unsupported operand type(s) for {}: "
                     "'Series' and {x.__class__.__name__!r}", 5, 2.0, None, Fraction(1, 2)),
    "str text": _each(TypeError, "{} must be a str, not {x!r}", {"a": 1}, b"0", ["0"], None, 0),
    "JSON text": _each(TypeError, "{} must be a str or bytes, not {x!r}", 5, None, ["[]"])
    + [(json.dumps([dataclasses.asdict(_SUMMARY)]).encode(), None,
        json.dumps([dataclasses.asdict(_SUMMARY)]))],
    "JSON tree": _each(ValueError, _NODE + "{x!r}", 5, [None, None], {"l": None}, "ab")
    + [({"l": None, "r": {"r": None}}, ValueError, _NODE + "{x[r]!r}"),
       ({"l": [], "r": None}, ValueError, _NODE + "{x[l]!r}")],
    "str field": _each(TypeError, "{} must be a string, not {x!r}", 1, None),
    "int field": _each(TypeError, "{} must be an integer, not {x!r}", "x", True, 7.0),
    "bool field": _each(TypeError, "{} must be a bool, not {x!r}", 1, None),
    "Term field": _each(TypeError, "{} must be a term, not {x!r}",
                        SHIFT, Lift(SHIFT), Slash(Index(0)), 0, None, BinTree()),
    "Subst field": _each(TypeError, "{} must be a substitution, not {x!r}",
                         Index(0), Abs(Index(0)), Closure(Index(0), SHIFT), 0, None),
    "Optional['BinTree'] field": _each(TypeError, "{} must be a BinTree or None, not {x!r}",
                                       5, Index(0), {"l": None, "r": None}, object()),
}


#: Rows whose texts name neither the parameter nor the value: an operator's
#: is Python's own, which names the operand's class.
UNNAMED = {e for e in CONTRACT if e[0].startswith("Series.__")}


@pytest.mark.parametrize("entry", sorted(CONTRACT), ids="-".join)
def test_every_wrong_value_raises_its_documented_error(entry, tmp_path, capfd):
    # each text names the parameter, or shows the value or an item of it; nothing
    # else leaks (an AttributeError or an operator's TypeError once did), and a
    # refused call writes nothing: export_report gets a fresh StringIO and path
    key, call, subject = (*CONTRACT[entry], entry[1])[:3]
    for k, (value, error, message) in enumerate(WRONG[key]):
        sinks = (io.StringIO(), tmp_path / f"report{k}") if entry[0] == "export_report" else (None,)
        for to in sinks:
            run = call if to is None else functools.partial(call, to=to)
            # a one-shot iterator is copied, so that each call gets all of it
            x = copy.copy(value) if isinstance(value, Iterator) else value
            if error is None:
                assert run(x) == run(message), (entry, value)
                continue
            assert error in (TypeError, ValueError)
            text = message.format(subject, x=x)
            named = re.search(rf"\b{entry[1]}\b", text) or re.search(r"{x(\[\w+\])*!r}", message)
            assert named or entry in UNNAMED, (entry, text)
            with pytest.raises(error) as raised:
                run(x)
            assert raised.type is error and str(raised.value) == text, entry
            assert not (to.getvalue() if isinstance(to, io.StringIO) else to and to.exists())
            if entry[0] == "SampleSummary":  # the same text, as import_summaries's ValueError
                row = json.dumps([{**dataclasses.asdict(_SUMMARY), entry[1]: x}])
                with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                    import_summaries(row)
    assert capfd.readouterr() == ("", "")


#: Public parameters without a row, each with its reason.
EXEMPT = {
    ("match_redex", "term"): "a predicate: None off the redexes, whatever the value",
    **{("ParseError", name): "the parser raises it, nobody passes it in"
       for name in ("offset", "expected", "found")},
    **{("BudgetExceeded", name): "normalize raises it, nobody passes it in"
       for name in ("term", "trace")},
    **{(enum, name): "Enum's functional API, which makes a new enum"
       for enum in ("ParamKind", "RuleKind")
       for name in ("names", "module", "qualname", "type", "start", "boundary")},
}


def test_every_public_parameter_has_a_row_or_an_exemption():
    # a class counts by its signature, so dataclass and named-tuple fields
    # count, and by its public methods written in Python and its operators with
    # rows.  A new parameter cannot skip its check.
    found, rowed = set(), {entry for entry, _ in CONTRACT}
    for name in lamupsilon.__all__:
        obj = getattr(lamupsilon, name)
        if inspect.isclass(obj):
            entries = [(name, obj)] + [
                (f"{name}.{method}", function)
                for method, function in inspect.getmembers(
                    obj, lambda value: inspect.isfunction(value) or inspect.ismethod(value)
                )
                if not method.startswith("_") or f"{name}.{method}" in rowed
            ]
        elif inspect.isroutine(obj):
            entries = [(name, obj)]
        else:
            continue
        for entry, function in entries:
            try:
                parameters = inspect.signature(function).parameters
            except ValueError:  # an exception class that keeps BaseException's constructor
                assert issubclass(function, Exception), entry
                continue
            found |= {(entry, parameter) for parameter in parameters if parameter != "self"}
    assert {("TraceStep", "position"), ("SampleSummary", "mean"), ("Rng.derived", "index"),
            ("Series", "coeffs"), ("export_report", "destination")} <= found
    assert not CONTRACT.keys() & EXEMPT.keys() and UNNAMED <= CONTRACT.keys()
    listed = CONTRACT.keys() | EXEMPT.keys()
    assert found == listed, sorted(found ^ listed)
