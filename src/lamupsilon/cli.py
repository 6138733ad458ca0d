"""Command-line front end.

Subcommands are thin adapters over the library: ``count``, ``sample``,
``normalize``, ``stats``, ``expect`` and ``verify``.  Exit codes: 0 on
success, 1 when a verification fails or a step budget runs out, 2 on
usage or parse errors.  A ``normalize --trace`` step that does not replay
is a fault of the engine: it raises RuntimeError and maps to no exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from decimal import Decimal  # prints an int of any length; str() stops at 4300 digits

# Each command imports what it uses, so that building the parser loads no
# submodule; these copies of the choices are checked against their sources.
_PARAMS = ("beta", "app", "lambda", "fvar", "rvar", "fvarlift", "rvarlift", "varshift",
           "unsuspended")  # the ParamKind values
_PARAM_NAMES = (*_PARAMS, "nested")  # and stats.NESTED
_SUITES = ("bijection", "catalan", "oracle", "rewrite")  # sorted(verify.SUITES)


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
    p.add_argument("--term", help="input term (else read from piped stdin)")
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
    p.add_argument("--param", choices=_PARAMS, required=True)
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--max-size", type=int, default=None)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_json_list(items) -> None:
    """Write ``json.dumps(list(items))`` and a newline, one item at a time."""
    sys.stdout.write("[")
    for i, item in enumerate(items):
        sys.stdout.write((", " if i else "") + json.dumps(item))
    sys.stdout.write("]\n")


def _read_term_text(args) -> str | None:
    if args.term is not None or sys.stdin is None or sys.stdin.isatty():  # None: closed
        return args.term
    return sys.stdin.read().strip() or None


def _cmd_count(args) -> int:
    from .series import _catalans

    # one forward pass: the substitutions of size n number C(0) + ... + C(n-1);
    # terms of size n number C(n), n >= 1
    partial_sum = 0
    for n, catalan_n in zip(range(args.max_size + 1), _catalans()):
        value = (catalan_n if n else 0) if args.kind == "term" else partial_sum
        print(f"{n},{Decimal(value)}")
        partial_sum += catalan_n
    return 0


def _cmd_sample(args) -> int:
    from .syntax import render_term
    from .trees import InvalidSize, Rng, sample_term

    rendered = (
        render_term(sample_term(args.size, Rng.derived(args.seed, i))) for i in range(args.count)
    )
    try:
        first = next(rendered)  # all samples share the size: the first refuses a bad one
    except InvalidSize as err:  # too large to sample
        return _usage_error(str(err))
    lines = itertools.chain((first,), rendered)  # one term at a time
    if args.format == "json":
        _write_json_list(lines)
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_normalize(args) -> int:
    from .rewrite import BudgetExceeded, _trace_items, normalize
    from .syntax import ParseError, parse_term, render_term

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
        normal, trace = normalize(term, args.strategy, args.max_steps)
        code = 0
    except BudgetExceeded as stopped:
        normal, trace, code = stopped.term, stopped.trace, 1
    print(render_term(normal))
    if args.trace:
        # the items of trace_to_json(trace): the trace replays each result term
        # from the input, so one term is held at a time
        _write_json_list(_trace_items(trace))
    if code:
        print(
            f"step budget of {args.max_steps} exhausted; result is not normal",
            file=sys.stderr,
        )
    return code


def _cmd_stats(args) -> int:
    from .stats import default_comparisons, export_report, run_experiment

    params = [name for name in map(str.strip, args.params.split(",")) if name]
    try:
        summaries = run_experiment(args.size, args.samples, args.seed, params)
    except ValueError as err:  # no or unknown params, too large a size, bad UPSILON_THREADS
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
    from .series import ParamKind, expected_param_exact

    value = expected_param_exact(ParamKind(args.param), args.size)
    num, den = str(Decimal(value.numerator)), str(Decimal(value.denominator))
    print(num if den == "1" else f"{num}/{den}")
    print(f"{float(value):.12g}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES

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


#: The least value of each bounded integer option by command, checked in order.
_LEAST = {"count": {"max_size": 1}, "sample": {"size": 1, "count": 1},
          "stats": {"size": 1, "samples": 2}, "expect": {"size": 1}, "verify": {"max_size": 1}}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for option, least in _LEAST.get(args.command, {}).items():
        value = getattr(args, option)
        if value is not None and value < least:
            return _usage_error(f"--{option.replace('_', '-')} must be at least {least}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
