"""The benchmark's three workloads and the checks on their outputs.

A workload builds its inputs in set-up passes, then runs ops.  One op is
one user-level computation; ``op`` returns ``(seconds, work, info)`` where
the seconds cover only the calls into lamupsilon, so the checks that run
after them never count as the program's time.  A failed check raises
``CheckFailed``; the harness counts the op as failed.

Spans (see ``run.Tracer``) wrap the calls into each lamupsilon module from
here, outside the package.  With the null tracer they cost one no-op
context manager per call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import lamupsilon  # noqa: E402
from lamupsilon import (  # noqa: E402
    LIMIT_VARIANCE_SLOPE,
    NESTED,
    BudgetExceeded,
    ParamKind,
    Rng,
    RuleKind,
    count_all_redexes,
    export_report,
    has_nested_substitution,
    is_pure,
    normalize,
    parse_term,
    phi,
    remy_tree,
    render_term,
    run_experiment,
    sample_term,
    unsuspended_constructors,
)

if not Path(lamupsilon.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"lamupsilon was imported from {lamupsilon.__file__}, not from {SRC}")

CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"

#: The seed whose outputs are pinned by the golden digests in REFERENCE.
DEFAULT_SEED = 0

#: Input sizes.  "tiny" runs every code path in seconds, for the self-tests.
SIZES = {
    "full": {
        "experiment_n": 1000,
        "experiment_m": 100,
        "normalize_n": 1000,
        "normalize_part": 120,
        "exact_sizes": [250, 500, 1000],
        "max_steps": 20_000,
        "golden_terms": 50,
    },
    "tiny": {
        "experiment_n": 100,
        "experiment_m": 40,
        "normalize_n": 60,
        "normalize_part": 10,
        "exact_sizes": [20, 40, 60],
        "max_steps": 20_000,
        "golden_terms": 5,
    },
}

EXPERIMENT_PARAMS = [*ParamKind, NESTED]
#: Experiment means must lie within this many standard errors of the
#: exact expectation.
SE_LIMIT = 5
#: Seconds one fresh interpreter may take for one exact size.
CHILD_TIMEOUT = 150


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def fresh_import() -> None:
    """Start a fresh interpreter that imports lamupsilon and exits."""
    subprocess.run(
        [sys.executable, str(CHILD), "import"],
        cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT, check=True,
    )


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; None when there are fewer than eleven values."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    return ordered[-11], 100 * (len(ordered) - 10) / len(ordered)


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Experiment:
    """Serial ``run_experiment`` calls at n = 1000 over all ten parameters.

    One op is one call with m samples and its own seed; its work is m
    samples.  Under ``stats``, only ``trees`` (sampling) and the read-only
    ``rewrite`` counters run.
    """

    name = "experiment"
    work_unit = "samples"
    calibrate = True

    def __init__(self, sizes: dict, seed: int, reference: dict, golden: str | None):
        self.n = sizes["experiment_n"]
        self.m = sizes["experiment_m"]
        self.seed = seed
        self.reference = reference
        self.golden = golden
        self.min_ops = 1
        self.expected: dict[str, float] = {}
        self.digest: str | None = None

    def setup(self, part: int) -> None:
        table = {key: Fraction(value) for key, value in self.reference[str(self.n)].items()}
        expected = {param.value: float(table[param.value]) for param in ParamKind}
        expected[NESTED] = float(1 - table["nested_free"])
        self.expected = expected

    def call_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def op(self, i: int, tracer):
        seed = self.call_seed(i)
        with tracer.span("bench.op"):
            with tracer.span("stats.run_experiment") as call:
                start = time.perf_counter()
                summaries = run_experiment(self.n, self.m, seed, EXPERIMENT_PARAMS, workers=1)
                elapsed = time.perf_counter() - start
        if tracer.enabled:
            self.replay(seed, call, tracer)
        self.check(summaries)
        if self.digest is None:
            self.pin(summaries)
        return elapsed, self.m, {}

    def replay(self, seed: int, call: int, tracer) -> None:
        """Time the per-sample layer calls of one ``run_experiment`` call on
        the same derived streams.  The spans hang under the call they
        replay, so its self time is what the ``stats`` layer adds."""
        for k in range(self.m):
            with tracer.span("trees.sample_term", parent=call):
                term = sample_term(self.n, Rng.derived(seed, k))
            rng = Rng.derived(seed, k)
            with tracer.span("trees.remy_tree", detail=True):
                tree = remy_tree(self.n, rng)
            with tracer.span("trees.phi", detail=True):
                again = phi(tree)
            if again != term:
                raise CheckFailed(f"phi(remy_tree(...)) differs from sample_term at sample {k}")
            with tracer.span("rewrite.count_all_redexes", parent=call):
                count_all_redexes(term)
            with tracer.span("rewrite.classify", parent=call):
                unsuspended_constructors(term)
                has_nested_substitution(term)

    def check(self, summaries) -> None:
        problems = []
        if sorted(summaries) != sorted(self.expected):
            problems.append(f"parameters {sorted(summaries)}")
        for name, summary in summaries.items():
            ref = self.expected.get(name, math.nan)
            # A rare count can show a tiny sample variance, so the error
            # uses at least the limiting variance n * lim V(X_n)/n; the
            # 0/1 nested indicator uses its exact Bernoulli variance.
            if name == NESTED:
                variance = ref * (1 - ref)
            else:
                slope = LIMIT_VARIANCE_SLOPE.get(ParamKind(name), 0)
                variance = max(summary.variance, float(slope * self.n))
            se = math.sqrt(variance / summary.samples)
            if not summary.min <= summary.mean <= summary.max:
                problems.append(f"{name}: mean {summary.mean} outside [{summary.min}, {summary.max}]")
            if not abs(summary.mean - ref) <= SE_LIMIT * se:
                problems.append(f"{name}: mean {summary.mean}, exact {ref:.6g}, SE {se:.4g}")
        if problems:
            raise CheckFailed("; ".join(problems))

    def pin(self, summaries) -> None:
        buf = io.StringIO()
        export_report(list(summaries.values()), "json", buf)
        self.digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if self.golden is not None and self.digest != self.golden:
            raise CheckFailed(f"export digest {self.digest} != golden {self.golden}")

    def pool_speedup(self) -> float:
        """``workers=2`` time over ``workers=1`` time for the first call's
        inputs; the two results must be identical."""
        seed = self.call_seed(0)
        times, results = [], []
        for workers in (1, 2):
            start = time.perf_counter()
            results.append(run_experiment(self.n, self.m, seed, EXPERIMENT_PARAMS, workers=workers))
            times.append(time.perf_counter() - start)
        if results[0] != results[1]:
            raise CheckFailed("workers=2 changed the experiment result")
        return times[1] / times[0]

    def summary(self, records: list[dict]) -> dict:
        ok = [r for r in records if r["ok"]]
        per_sample_ms = [1e3 * r["seconds"] / self.m for r in ok]
        return {
            "samples_per_s": sum(r["work"] for r in ok) / sum(r["seconds"] for r in records),
            "calls": len(records),
            "sample_ms_p50_of_calls": p50(per_sample_ms),
        }

    def layer_summary(self, spans: list[dict], records: list[dict]) -> dict:
        names = ("trees.remy_tree", "trees.phi", "trees.sample_term",
                 "rewrite.count_all_redexes", "rewrite.classify")
        return {f"{name}_ms": 1e3 * p50(durations(spans, name)) for name in names}


class Normalize:
    """``lamupsilon normalize --strategy upsilon`` as library calls on
    uniform size-1000 terms: parse, normalize, render.

    One op is one term; its work is its rewrite steps.  The step count is
    heavy-tailed (the median term needs about 500 steps, one in a hundred
    over 30 000, one in a thousand over 300 000), so every op carries the
    CLI's ``--max-steps`` budget of 20 000 steps, about 0.3 s: an op that
    reaches it ends with the documented partial result, which is checked
    too.  Without the budget a single term can take minutes, and the
    heaviest term of a run would decide its rate and its peak memory.
    """

    name = "normalize"
    work_unit = "rewrite steps"
    calibrate = True

    def __init__(self, sizes: dict, seed: int, reference: dict, golden: str | None):
        self.n = sizes["normalize_n"]
        self.part = sizes["normalize_part"]
        self.max_steps = sizes["max_steps"]
        self.golden_terms = sizes["golden_terms"]
        self.seed = seed
        self.golden = golden
        self.min_ops = self.golden_terms
        self.texts: list[str] = []
        self.steps = 0
        self.rules: Counter = Counter()
        self.folded = 0
        self.hasher = hashlib.sha256()
        self.digest: str | None = None

    def setup(self, part: int) -> None:
        first = part * self.part
        self.texts.extend(
            render_term(sample_term(self.n, Rng.derived(self.seed, k)))
            for k in range(first, first + self.part)
        )

    def op(self, i: int, tracer):
        text = self.texts[i % len(self.texts)]
        with tracer.span("bench.op"):
            start = time.perf_counter()
            with tracer.span("syntax.parse_term"):
                term = parse_term(text)
            with tracer.span("rewrite.normalize"):
                try:
                    normal, trace = normalize(term, "upsilon", self.max_steps, keep_terms=False)
                    stopped = False
                except BudgetExceeded as stop:
                    normal, trace, stopped = stop.term, stop.trace, True
            with tracer.span("syntax.render_term"):
                out = render_term(normal)
            elapsed = time.perf_counter() - start
        self.check(normal, out, len(trace), stopped)
        if i == self.folded < self.golden_terms:
            self.fold(out, trace)
        return elapsed, len(trace), {"chars": len(text), "stopped": stopped}

    def check(self, normal, out: str, steps: int, stopped: bool) -> None:
        if stopped:
            if steps != self.max_steps or is_pure(normal):
                raise CheckFailed(f"budget stop after {steps} steps on a pure term")
        elif not is_pure(normal):
            raise CheckFailed("upsilon normal form is not pure")
        if parse_term(out) != normal:
            raise CheckFailed("parse_term(render_term(nf)) != nf")

    def fold(self, out: str, trace) -> None:
        """Digest of the first normal forms, then their steps and rules."""
        self.hasher.update(out.encode() + b"\n")
        self.steps += len(trace)
        self.rules.update(trace.rules)
        self.folded += 1
        if self.folded == self.golden_terms:
            counts = {"steps": self.steps, "rules": self.rule_counts()}
            self.hasher.update(json.dumps(counts, sort_keys=True).encode())
            self.digest = self.hasher.hexdigest()
            if self.golden is not None and self.digest != self.golden:
                raise CheckFailed(f"normal-form digest {self.digest} != golden {self.golden}")

    def rule_counts(self) -> dict[str, int]:
        return {kind.value: self.rules[kind] for kind in RuleKind}

    def summary(self, records: list[dict]) -> dict:
        ok = [r for r in records if r["ok"]]
        ms = [1e3 * r["seconds"] for r in ok]
        seconds = sum(r["seconds"] for r in records)
        out = {
            "rewrite_steps_per_s": sum(r["work"] for r in ok) / seconds,
            "terms_per_s": len(ok) / seconds,
            "term_p50_ms": p50(ms),
            "terms": len(records),
            "distinct_terms": min(len(records), len(self.texts)),
            "budget_stops": sum(1 for r in ok if r["info"]["stopped"]),
        }
        high = tail(ms)
        if high is not None:
            out["term_tail_ms"], out["term_tail_percentile"] = high
        return out

    def layer_summary(self, spans: list[dict], records: list[dict]) -> dict:
        parse = durations(spans, "syntax.parse_term")
        norm = durations(spans, "rewrite.normalize")
        out = {
            "rewrite.normalize_ms_p50": 1e3 * p50(norm),
            "rewrite.us_per_step": 1e6 * sum(norm) / max(1, sum(r["work"] for r in records)),
            "syntax.parse_ms_p50": 1e3 * p50(parse),
            "syntax.parse_chars_per_s": sum(r["info"]["chars"] for r in records) / sum(parse),
            "syntax.render_ms_p50": 1e3 * p50(durations(spans, "syntax.render_term")),
        }
        high = tail([1e3 * d for d in norm])
        if high is not None:
            out["rewrite.normalize_ms_tail"], out["rewrite.normalize_tail_percentile"] = high
        return out


class Exact:
    """The ten exact reference values at n = 250, 500 and 1000.

    One op is one sweep: each size in its own fresh interpreter, started
    one after the other as separate ``lamupsilon expect`` calls would be,
    so no per-process cache hides the cold cost.  Its work is the 30
    values, each compared with the committed table.
    """

    name = "exact"
    work_unit = "exact values"
    #: The time goes to big-integer arithmetic in child processes, whose
    #: slowdowns the calibration loop does not track (their correlation
    #: over ten n = 1000 interpreters was below 0.3), so it is not scaled.
    calibrate = False

    def __init__(self, sizes: dict, seed: int, reference: dict, golden: str | None):
        self.sizes = sizes["exact_sizes"]
        self.reference = reference
        self.min_ops = 1
        self.expected: dict[int, dict[str, Fraction]] = {}

    def setup(self, part: int) -> None:
        self.expected = {
            n: {key: Fraction(value) for key, value in self.reference[str(n)].items()}
            for n in self.sizes
        }

    def op(self, i: int, tracer):
        elapsed, walls, results = 0.0, {}, {}
        with tracer.span("bench.op") as sweep:
            for n in self.sizes:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(CHILD), "exact", str(n)],
                    cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                )
                walls[n] = time.perf_counter() - start
                elapsed += walls[n]
                if proc.returncode:
                    raise CheckFailed(f"size {n}: exit {proc.returncode}: {proc.stderr[-500:]}")
                results[n] = json.loads(proc.stdout)
                tracer.add("cli.startup", start, results[n]["imported"], sweep, n=n)
                for rank, (query, begin, end) in enumerate(results[n]["timings"]):
                    name = "series.nested_free_fraction" if query == "nested_free" else "series.expected_param_exact"
                    tracer.add(name, begin, end, sweep, n=n, query=query, cold=rank == 0)
        for n in self.sizes:
            got = {key: Fraction(value) for key, value in results[n]["values"].items()}
            wrong = sorted(key for key in self.expected[n] if got.get(key) != self.expected[n][key])
            if wrong or len(got) != len(self.expected[n]):
                raise CheckFailed(f"size {n}: values differ from the reference for {wrong or sorted(got)}")
        return elapsed, sum(len(self.expected[n]) for n in self.sizes), {"walls": walls}

    def summary(self, records: list[dict]) -> dict:
        ok = [r for r in records if r["ok"]]
        largest = max(self.sizes)
        return {
            "exact_wall_s": p50([r["seconds"] for r in ok]),
            f"query_n{largest}_s": p50([r["info"]["walls"][largest] for r in ok]),
            "sweeps": len(records),
        }

    def layer_summary(self, spans: list[dict], records: list[dict]) -> dict:
        out = {"cli.startup_s": p50(durations(spans, "cli.startup"))}
        for n in self.sizes:
            cold = durations(spans, "series.expected_param_exact", n=n, cold=True)
            warm = durations(spans, "series.expected_param_exact", n=n, cold=False)
            sweeps = max(1, len(cold))
            out[f"series.expect_cold_s.n{n}"] = p50(cold)
            out[f"series.expect_warm_us.n{n}"] = 1e6 * sum(warm) / sweeps
            out[f"series.nested_free_fraction_s.n{n}"] = p50(
                durations(spans, "series.nested_free_fraction", n=n))
        return out


def durations(spans: list[dict], name: str, **attrs) -> list[float]:
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
    ]


WORKLOADS = {cls.name: cls for cls in (Experiment, Normalize, Exact)}
