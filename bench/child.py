"""Fresh-interpreter helper for the benchmark, one process per call.

    python3 bench/child.py import       start the interpreter, import lamupsilon
    python3 bench/child.py exact N      also compute the ten exact values at size N

Prints one JSON line.  ``imported`` is the ``time.perf_counter()`` reading
right after ``import lamupsilon``; on Linux that clock is the system-wide
monotonic clock, so the parent can subtract its own reading taken before
the spawn.  For ``exact`` the line also holds each value as ``"p/q"`` and a
``[name, start, end]`` timing per query, in query order (the first query
at a size is the cold one).  Only the standard library is imported besides
lamupsilon, so the start-up time is what a ``lamupsilon`` command pays.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import lamupsilon  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402


def main(argv: list[str]) -> int:
    if not os.path.abspath(lamupsilon.__file__).startswith(SRC + os.sep):
        print(f"lamupsilon was not imported from {SRC}", file=sys.stderr)
        return 2
    out: dict = {"imported": imported}
    if argv[:1] == ["exact"] and len(argv) == 2:
        n = int(argv[1])
        values, timings = {}, []
        for param in lamupsilon.ParamKind:
            start = time.perf_counter()
            value = lamupsilon.expected_param_exact(param, n)
            timings.append([param.value, start, time.perf_counter()])
            values[param.value] = f"{value.numerator}/{value.denominator}"
        start = time.perf_counter()
        value = lamupsilon.nested_free_fraction(n)
        timings.append(["nested_free", start, time.perf_counter()])
        values["nested_free"] = f"{value.numerator}/{value.denominator}"
        out.update(values=values, timings=timings)
    elif argv != ["import"]:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
