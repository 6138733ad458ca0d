import ast
import dataclasses
import inspect
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lamupsilon
from lamupsilon import (
    SHIFT,
    Abs,
    App,
    BinTree,
    Index,
    ParamKind,
    Redex,
    Rng,
    RuleKind,
    Series,
    Slash,
    apply_at,
    catalan,
    count_all_redexes,
    count_redexes,
    count_substs,
    count_terms,
    enumerate_substs,
    enumerate_terms,
    enumerate_trees,
    expected_param_exact,
    find_redexes,
    has_nested_substitution,
    is_pure,
    is_strict_form_bounded,
    iter_subterms,
    nested_free_fraction,
    node_count,
    normalize,
    param_value,
    phi,
    phi_inv,
    remy_tree,
    render_subst,
    render_term,
    replace_at,
    run_experiment,
    sample_term,
    size_sub,
    solve_core_series,
    solve_restricted_series,
    subterm_at,
    total_param_bruteforce,
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


_TERM = App(Abs(Index(0)), Index(0))

#: Every public parameter that takes an int or an enum member, keyed by
#: (entry point, parameter), with a call that puts ``x`` in that parameter
#: and valid values elsewhere.  A class's own key is its name.
ARGUMENTS = {
    ("Index", "n"): Index,
    ("Rng", "seed"): Rng,
    ("Rng.derived", "seed"): lambda x: Rng.derived(x, 0),
    ("Rng.derived", "index"): lambda x: Rng.derived(0, x),
    ("Rng.below", "bound"): lambda x: Rng(0).below(x),
    ("sample_term", "n"): lambda x: sample_term(x, Rng(0)),
    ("remy_tree", "n"): lambda x: remy_tree(x, Rng(0)),
    ("enumerate_trees", "n"): lambda x: enumerate_trees(n=x),
    ("catalan", "n"): catalan,
    ("count_terms", "n"): count_terms,
    ("count_substs", "n"): count_substs,
    ("solve_core_series", "order"): lambda x: solve_core_series(order=x),
    ("solve_restricted_series", "order"): lambda x: solve_restricted_series(order=x),
    ("enumerate_terms", "n"): enumerate_terms,
    ("enumerate_terms", "max_size"): lambda x: enumerate_terms(2, x),
    ("enumerate_substs", "n"): enumerate_substs,
    ("enumerate_substs", "max_size"): lambda x: enumerate_substs(2, x),
    ("expected_param_exact", "param"): lambda x: expected_param_exact(x, 4),
    ("expected_param_exact", "n"): lambda x: expected_param_exact(ParamKind.BETA, x),
    ("nested_free_fraction", "n"): nested_free_fraction,
    ("param_value", "param"): lambda x: param_value(_TERM, x),
    ("total_param_bruteforce", "param"): lambda x: total_param_bruteforce(x, 3),
    ("total_param_bruteforce", "n"): lambda x: total_param_bruteforce(ParamKind.BETA, x),
    ("total_param_bruteforce", "max_size"): (
        lambda x: total_param_bruteforce(ParamKind.BETA, 3, x)
    ),
    ("run_experiment", "n"): lambda x: run_experiment(x, 4, 0, [ParamKind.BETA]),
    ("run_experiment", "m"): lambda x: run_experiment(3, x, 0, [ParamKind.BETA]),
    ("run_experiment", "seed"): lambda x: run_experiment(3, 4, x, [ParamKind.BETA]),
    ("run_experiment", "workers"): (
        lambda x: run_experiment(3, 4, 0, [ParamKind.BETA], workers=x)
    ),
    ("count_redexes", "kind"): lambda x: count_redexes(_TERM, x),
    ("find_redexes", "kinds"): lambda x: find_redexes(_TERM, [x]),
    ("apply_at", "redex"): lambda x: apply_at(_TERM, Redex((), x)),
    ("normalize", "max_steps"): lambda x: normalize(_TERM, "full", x),
    ("is_strict_form_bounded", "max_source_size"): (
        lambda x: is_strict_form_bounded(Index(0), max_source_size=x)
    ),
    ("is_strict_form_bounded", "max_steps"): (
        lambda x: is_strict_form_bounded(Index(0), max_steps=x)
    ),
    ("subterm_at", "position"): lambda x: subterm_at(_TERM, (0, x)),
    ("replace_at", "position"): lambda x: replace_at(_TERM, (x,), Index(1)),
    ("Series.one", "order"): Series.one,
    ("Series.z", "order"): Series.z,
    ("Series.coefficient", "n"): lambda x: Series.one(3).coefficient(x),
}

#: The enum that the TypeError names for a kind parameter.
_KINDS = {"param": ParamKind, "kind": RuleKind, "kinds": RuleKind, "redex": RuleKind}


def test_int_and_kind_arguments_raise_type_error():
    # True would otherwise serve n = 1, and a float leaked an internal error
    # (islice's, or "can't multiply sequence by non-int") or built an index 1.5.
    # A cached 1 or 2 must not answer for True or 2.0.  A positional call keys
    # a lone int apart from other classes, a keyword call does not, so the
    # table calls the cached entry points by keyword, and fills them first.
    enumerate_trees(n=1), enumerate_trees(n=2)
    for solve in (solve_core_series, solve_restricted_series):
        solve(order=1), solve(order=2)
    for (entry, parameter), call in ARGUMENTS.items():
        kind = _KINDS.get(parameter)
        named = f"not a {kind.__name__}: " if kind else rf"\b{parameter}\b.* must be an int, not "
        for x in (True, 2.0, "3"):
            with pytest.raises(TypeError) as raised:
                call(x)
            message = str(raised.value)
            assert re.search(named + re.escape(repr(x)) + "$", message), (entry, message)
    # the class check comes before the range check
    with pytest.raises(TypeError, match="n must be an int"):
        sample_term(0.5, Rng(0))
    with pytest.raises(ValueError):
        expected_param_exact(ParamKind.BETA, 0)
    assert count_substs(-1) == count_terms(0) == 0


def test_the_argument_table_lists_every_int_and_kind_parameter():
    # a new public parameter annotated with int, ParamKind or RuleKind has to
    # join ARGUMENTS, so it cannot skip the class check unnoticed; a class is
    # read through its __init__ and every public method written in Python
    mentions = re.compile(r"\b(int|ParamKind|RuleKind)\b")
    found = set()
    for name in lamupsilon.__all__:
        obj = getattr(lamupsilon, name)
        if name in ("SampleSummary", "ParseError", "Redex"):  # records
            continue
        if inspect.isclass(obj):
            entries = [(name, obj.__init__)] + [
                (f"{name}.{method}", function)
                for method, function in inspect.getmembers(
                    obj, lambda value: inspect.isfunction(value) or inspect.ismethod(value)
                )
                if not method.startswith("_")
            ]
        elif inspect.isroutine(obj):
            entries = [(name, obj)]
        else:
            continue
        for entry, function in entries:
            for parameter in inspect.signature(function).parameters.values():
                if mentions.search(str(parameter.annotation)):
                    found.add((entry, parameter.name))
    assert {("enumerate_trees", "n"), ("Rng.derived", "index"), ("Index", "n"),
            ("Series.coefficient", "n")} <= found
    assert found <= ARGUMENTS.keys(), sorted(found - ARGUMENTS.keys())


#: Every public parameter that takes the root of a term, a substitution or a
#: skeleton, keyed by (entry point, parameter), with its sort and a call that
#: puts ``x`` in that parameter and valid values elsewhere.
ROOTS = {
    ("normalize", "term"): ("Term", normalize),
    ("find_redexes", "term"): ("Term", find_redexes),
    ("count_redexes", "term"): ("Term", lambda x: count_redexes(x, RuleKind.BETA)),
    ("count_all_redexes", "term"): ("Term", count_all_redexes),
    ("has_nested_substitution", "term"): ("Term", has_nested_substitution),
    ("unsuspended_constructors", "term"): ("Term", unsuspended_constructors),
    ("is_strict_form_bounded", "term"): ("Term", is_strict_form_bounded),
    ("param_value", "term"): ("Term", lambda x: param_value(x, ParamKind.BETA)),
    ("apply_at", "term"): ("Term", lambda x: apply_at(x, Redex((), RuleKind.BETA))),
    ("is_pure", "term"): ("Term", is_pure),
    ("iter_subterms", "term"): ("Term", lambda x: list(iter_subterms(x))),
    ("subterm_at", "term"): ("Term", lambda x: subterm_at(x, ())),
    ("replace_at", "term"): ("Term", lambda x: replace_at(x, (), Index(1))),
    ("replace_at", "replacement"): ("Term", lambda x: replace_at(_TERM, (), x)),
    ("render_term", "term"): ("Term", render_term),
    ("phi_inv", "term"): ("Term", phi_inv),
    ("size_sub", "sub"): ("Subst", size_sub),
    ("render_subst", "sub"): ("Subst", render_subst),
    ("phi", "tree"): ("BinTree", phi),
    ("node_count", "tree"): ("BinTree", node_count),
    ("tree_to_json", "tree"): ("BinTree", tree_to_json),
}

#: Roots that no entry of a sort takes, each with the start of its error: a
#: node of the other sort, then values that are no node at all.
_NO_NODE = [(x, "not a lambda-upsilon node: ") for x in (object(), None, BinTree())]
_WRONG_ROOTS = {
    "Term": [(SHIFT, "not a term: "), (Slash(Index(0)), "not a term: "), *_NO_NODE],
    "Subst": [(Index(0), "not a substitution: "), (Abs(Index(0)), "not a substitution: "),
              *_NO_NODE],
    "BinTree": [(x, "not a BinTree: ") for x in (Index(0), SHIFT, object(), None)],
}


@pytest.mark.parametrize("entry", sorted(ROOTS), ids="-".join)
def test_roots_of_the_wrong_sort_raise_type_error(entry):
    # the constructors check every child, so a root is the one node that
    # can be of the wrong sort; each entry checks it before its walk
    sort, call = ROOTS[entry]
    for x, message in _WRONG_ROOTS[sort]:
        if x is None and entry == ("tree_to_json", "tree"):
            assert call(x) is None  # its parameter is Optional
            continue
        with pytest.raises(TypeError) as raised:
            call(x)
        assert str(raised.value) == message + repr(x), (entry, x)


def test_the_root_table_lists_every_term_subst_and_skeleton_parameter():
    # a new public parameter annotated with a sort or a skeleton has to join
    # ROOTS or name its reason here, so it cannot skip the root check
    # unnoticed.  A class counts by its public methods: a constructor takes
    # children, which test_ill_sorted_children_raise_type_error and
    # test_skeleton_children_must_be_skeletons cover.
    exempt = {
        ("match_redex", "term"): "a predicate: None off the redexes, whatever the value",
        ("size", "term"): "takes either sort, as size_sub is its alias",
    }
    mentions = re.compile(r"\b(Term|Subst|Node|BinTree)\b")
    found = set()
    for name in lamupsilon.__all__:
        obj = getattr(lamupsilon, name)
        if inspect.isclass(obj):
            entries = [
                (f"{name}.{method}", function)
                for method, function in inspect.getmembers(
                    obj, lambda value: inspect.isfunction(value) or inspect.ismethod(value)
                )
                if not method.startswith("_")
            ]
        elif inspect.isroutine(obj):
            entries = [(name, obj)]
        else:
            continue
        for entry, function in entries:
            for parameter in inspect.signature(function).parameters.values():
                if mentions.search(str(parameter.annotation)):
                    found.add((entry, parameter.name))
    assert {("replace_at", "replacement"), ("render_subst", "sub"), ("phi", "tree")} <= found
    assert found == ROOTS.keys() | exempt.keys(), sorted(found ^ (ROOTS.keys() | exempt.keys()))
