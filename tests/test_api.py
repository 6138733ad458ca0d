import ast
import dataclasses
import inspect
import sys
from pathlib import Path

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


def test_public_names_are_unchanged():
    assert sorted(lamupsilon.__all__) == PUBLIC_NAMES


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
