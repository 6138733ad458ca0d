"""Command-line front end.

Subcommands are thin adapters over the library: ``count``, ``sample``,
``normalize``, ``stats``, ``expect`` and ``verify``.  Exit codes: 0 on
success, 1 when a verification fails or a step budget runs out, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .rewrite import BudgetExceeded, _trace_items, normalize
from .series import ParamKind, _catalans, expected_param_exact
from .stats import NESTED, default_comparisons, export_report, run_experiment
from .syntax import ParseError, _int_text, parse_term, render_term
from .trees import InvalidSize, Rng, sample_term
from .verify import SUITES

_PARAM_NAMES = [p.value for p in ParamKind] + [NESTED]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamupsilon",
        description="Explicit-substitution calculus toolkit: counting, "
        "sampling, normalization and redex statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counting sequence as CSV rows n,count")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--kind", choices=["term", "subst"], default="term")

    p = sub.add_parser("sample", help="uniform random terms of an exact size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("normalize", help="rewrite to normal form")
    p.add_argument("--term", help="input term (piped stdin takes precedence)")
    p.add_argument("--strategy", choices=["full", "upsilon"], default="full")
    p.add_argument("--max-steps", type=int, default=None, help="step budget; without "
                   "one, --strategy full may not return and --trace keeps every step")
    p.add_argument("--trace", action="store_true", help="also print the JSON trace")

    p = sub.add_parser("stats", help="seeded sampling experiment with comparisons")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--params",
        default=",".join(_PARAM_NAMES),
        help=f"comma-separated subset of: {','.join(_PARAM_NAMES)}",
    )

    p = sub.add_parser("expect", help="exact expectation of a parameter")
    p.add_argument("--param", choices=[p.value for p in ParamKind], required=True)
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-size", type=int, default=None)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_term_text(args) -> str | None:
    if sys.stdin is not None and not sys.stdin.isatty():  # None: stdin closed
        piped = sys.stdin.read()
        if piped.strip():
            return piped.strip()
    return args.term


def _cmd_count(args) -> int:
    if args.max_size < 1:
        return _usage_error("--max-size must be at least 1")
    # one forward pass: the substitutions of size n number C(0) + ... + C(n-1);
    # terms of size n number C(n), n >= 1
    partial_sum = 0
    for n, catalan_n in zip(range(args.max_size + 1), _catalans()):
        value = (catalan_n if n else 0) if args.kind == "term" else partial_sum
        print(f"{n},{_int_text(value)}")
        partial_sum += catalan_n
    return 0


def _cmd_sample(args) -> int:
    if args.size < 1:
        return _usage_error("--size must be at least 1")
    if args.count < 1:
        return _usage_error("--count must be at least 1")
    try:
        rendered = [
            render_term(sample_term(args.size, Rng.derived(args.seed, i)))
            for i in range(args.count)
        ]
    except InvalidSize as err:  # too large to sample
        return _usage_error(str(err))
    if args.format == "json":
        print(json.dumps(rendered))
    else:
        for line in rendered:
            print(line)
    return 0


def _cmd_normalize(args) -> int:
    text = _read_term_text(args)
    if text is None:
        return _usage_error("provide a term via --term or stdin")
    try:
        term = parse_term(text)
    except ParseError as err:
        return _usage_error(str(err))
    if args.max_steps is not None and args.max_steps < 0:
        return _usage_error("--max-steps must be non-negative")
    try:
        normal, trace = normalize(
            term, args.strategy, args.max_steps, keep_terms=args.trace
        )
        code = 0
    except BudgetExceeded as stopped:
        normal, trace, code = stopped.term, stopped.trace, 1
    print(render_term(normal))
    if args.trace:
        # one step at a time, byte-identical to json.dumps(trace_to_json(trace))
        sys.stdout.write("[")
        for i, item in enumerate(_trace_items(trace)):
            sys.stdout.write((", " if i else "") + json.dumps(item))
        sys.stdout.write("]\n")
    if code:
        print(
            f"step budget of {args.max_steps} exhausted; result is not normal",
            file=sys.stderr,
        )
    return code


def _cmd_stats(args) -> int:
    if args.size < 1:
        return _usage_error("--size must be at least 1")
    if args.samples < 2:
        return _usage_error("--samples must be at least 2")
    params = []
    for name in args.params.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _PARAM_NAMES:
            return _usage_error(f"unknown parameter {name!r}")
        params.append(name)
    if not params:
        return _usage_error("no parameters requested")
    try:
        summaries = run_experiment(args.size, args.samples, args.seed, params)
    except ValueError as err:  # a size too large to sample, or bad UPSILON_THREADS
        return _usage_error(str(err))
    comparisons = {name: default_comparisons(s) for name, s in summaries.items()}
    export_report(
        list(summaries.values()),
        format="json",
        destination=sys.stdout,
        comparisons=comparisons,
    )
    return 0


def _cmd_expect(args) -> int:
    if args.size < 1:
        return _usage_error("--size must be at least 1")
    value = expected_param_exact(ParamKind(args.param), args.size)
    num, den = _int_text(value.numerator), _int_text(value.denominator)
    print(num if den == "1" else f"{num}/{den}")
    print(f"{float(value):.12g}")
    return 0


def _cmd_verify(args) -> int:
    if args.max_size is not None and args.max_size < 1:
        return _usage_error("--max-size must be at least 1")
    suite = SUITES[args.suite]
    results = suite() if args.max_size is None else suite(args.max_size)
    failed = 0
    for result in results:
        mark = "ok  " if result.passed else "FAIL"
        detail = f"  ({result.detail})" if result.detail and not result.passed else ""
        print(f"{mark} {result.name}{detail}")
        failed += not result.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if not failed else 1


_COMMANDS = {
    "count": _cmd_count,
    "sample": _cmd_sample,
    "normalize": _cmd_normalize,
    "stats": _cmd_stats,
    "expect": _cmd_expect,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
