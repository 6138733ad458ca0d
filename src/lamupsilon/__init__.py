"""Toolkit for the lambda-upsilon calculus of explicit substitutions.

Terms, the eight-rule rewriting system, exact Catalan enumeration and
generating-function expectations, a size-preserving bijection with plane
binary tree skeletons driving an exact-size uniform sampler, and a seeded
statistics harness.

Submodules load on first use (PEP 562): ``import lamupsilon`` loads none of
them, and the exact expectations load ``series`` alone.  The argument checks
of every public entry point, ``_int`` and ``_member``, live here, at the
bottom of the import graph; the root check of a term or substitution,
``terms._of_sort``, lives beside the sorts it reads.
"""

import importlib

#: Each submodule and the public names it exports; ``__all__`` is read off it.
_EXPORTS = {
    "rewrite": (
        "ALL_RULES", "BudgetExceeded", "InvalidRedex", "Redex", "RuleKind", "Trace",
        "TraceStep", "UPSILON_RULES", "apply_at", "count_all_redexes", "count_redexes",
        "find_redexes", "has_nested_substitution", "is_strict_form_bounded",
        "match_redex", "normalize", "trace_to_json", "unsuspended_constructors",
    ),
    "series": (
        "BoundExceeded", "ENUMERATION_BOUND", "ParamKind", "Series", "catalan",
        "count_substs", "count_terms", "enumerate_substs", "enumerate_terms",
        "expected_param_exact", "nested_free_fraction", "param_value",
        "solve_core_series", "solve_restricted_series", "total_param_bruteforce",
    ),
    "stats": (
        "ComparisonReport", "InsufficientSamples", "LIMIT_MEAN_SLOPE",
        "LIMIT_VARIANCE_SLOPE", "NESTED", "SampleSummary", "Tolerance",
        "UNSUSPENDED_MEAN_LIMIT", "compare_to_reference", "export_report",
        "import_summaries", "run_experiment", "standard_error", "standardized_skewness",
    ),
    "syntax": ("ParseError", "parse_term", "render_subst", "render_term"),
    "terms": (
        "SHIFT", "Abs", "App", "Closure", "Index", "Lift", "Position", "Shift", "Slash",
        "Subst", "Term", "is_pure", "iter_subterms", "replace_at", "size", "size_sub",
        "subterm_at",
    ),
    "trees": (
        "BinTree", "InvalidSize", "Rng", "enumerate_trees", "node_count", "phi",
        "phi_inv", "remy_tree", "sample_term", "tree_from_json", "tree_to_json",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind a public name on first use, and bind the
    name here so that later lookups never come back."""
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _int(name: str, value):
    """``value``; TypeError unless its class is ``int`` (not ``bool`` or ``float``)."""
    if value.__class__ is not int:
        raise TypeError(f"{name} must be an int, not {value!r}")
    return value


def _member(kind, value):
    """``value``; TypeError unless its class is ``kind``: a member of an
    enum ``kind``, or a skeleton for ``kind`` ``BinTree``."""
    if value.__class__ is not kind:
        raise TypeError(f"not a {kind.__name__}: {value!r}")
    return value
