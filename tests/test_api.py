import ast
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lamupsilon

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
