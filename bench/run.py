"""Benchmark for lamupsilon: one workload per run, from outside the package.

    python3 bench/run.py --workload experiment|normalize|exact \\
        --seed 0 --seconds 20 --trace 0|1 [--tiny]

Set-up runs five times (each pass starts a fresh interpreter that imports
lamupsilon, then builds a fifth of the inputs) and reports the median.
Then ops run one after another, one process driving them, until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and then with spans around every call into lamupsilon,
and prints the per-layer metrics.  Every output is
checked; a failed check or an exception counts its op as failed.  The
last line of stdout is the JSON result; the lines before it list every
metric by name with its unit, and the full report (environment, inputs,
details, spans) goes to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

try:
    import workloads  # imports lamupsilon from ./src
except ImportError as err:
    print(f"error: cannot import lamupsilon from this checkout: {err}", file=sys.stderr)
    sys.exit(2)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PASSES = 5

#: Calibration: every PROBE_EVERY_S seconds of op time, between ops, time
#: a fixed pure-Python loop of PROBE_LOOPS iterations (about
#: NOMINAL_PROBE_S on an idle core of the reference host).  Cores shared
#: with other tenants slow the loop and interpreted code alike, by up to
#: 40 % over minutes, so for workloads that run in this interpreter the
#: rate scaled by the loop's mean time over NOMINAL_PROBE_S is steadier.
PROBE_EVERY_S = 0.25
PROBE_LOOPS = 50_000
NOMINAL_PROBE_S = 0.005

LAYERS = ("bench", "cli", "trees", "rewrite", "syntax", "series", "stats")
RULES = ("Beta", "App", "Lambda", "FVar", "RVar", "FVarLift", "RVarLift", "VarShift")


class Tracer:
    """Spans kept in memory until the run ends.

    A span is a dict with ``id``, ``name`` (``<layer>.<call>``), ``start``
    and ``end`` (``time.perf_counter``), ``parent`` (a span id or None) and
    ``op`` (the op it belongs to).  ``detail`` spans time a split of
    another span's work and stay out of the self-time sums.
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, detail: bool = False):
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op}
        if detail:
            record["detail"] = True
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None, **attrs) -> None:
        """Record a span timed elsewhere, such as in a child process."""
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                           "op": self.op, "start": start, "end": end, **attrs})

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and not s.get("detail"):
                covered[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if not s.get("detail"):
                out[s["name"].split(".")[0]] += s["end"] - s["start"] - covered[s["id"]]
        return out

    def wall(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == "bench.op")


class NullTracer:
    enabled = False
    op = None
    _null = contextlib.nullcontext()

    def span(self, name, parent=None, detail=False):
        return self._null

    def add(self, *args, **attrs):
        pass


def probe() -> float:
    """Time the calibration loop.  It uses nothing from lamupsilon, so a
    change to the program cannot move it."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_op(workload, i: int, tracer) -> dict:
    """Run op ``i``; any failure counts against the op and never ends the run."""
    tracer.op = i
    start = time.perf_counter()
    try:
        elapsed, work, info = workload.op(i, tracer)
        return {"ok": True, "seconds": elapsed, "work": work, "info": info}
    except Exception:
        print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return {"ok": False, "seconds": time.perf_counter() - start, "work": 0, "info": {}}


def run_ops(workload, seconds: float, probes: list[float]) -> list[dict]:
    """Closed loop: run ops until ``seconds`` and ``workload.min_ops`` ops
    are done.  Between ops, run a calibration probe for every
    PROBE_EVERY_S of op time."""
    records = []
    begin = time.perf_counter()
    owed = 0.0
    while len(records) < workload.min_ops or time.perf_counter() - begin < seconds:
        records.append(run_op(workload, len(records), NullTracer()))
        owed += records[-1]["seconds"]
        while owed >= PROBE_EVERY_S or not probes:
            probes.append(probe())
            owed = max(0.0, owed - PROBE_EVERY_S)
    return records


def run_traced(workload, seconds: float, tracer: Tracer) -> tuple[list[dict], list[dict]]:
    """Run each op untraced, then at once again traced, so that the
    machine's drift falls alike on both and their difference is the
    tracing overhead."""
    untraced, traced = [], []
    begin = time.perf_counter()
    while len(untraced) < workload.min_ops or time.perf_counter() - begin < seconds:
        untraced.append(run_op(workload, len(untraced), NullTracer()))
        traced.append(run_op(workload, len(traced), tracer))
    return untraced, traced


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, sizes: dict) -> dict:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lamupsilon").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "sizes": sizes,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def run(name: str, seed: int, seconds: float, trace: bool, mode: str = "full",
        reference: dict | None = None) -> dict:
    """One benchmark run; returns the result and the report."""
    if reference is None:
        reference = workloads.load_reference()
    sizes = workloads.SIZES[mode]
    golden = reference["golden"].get(f"{name}.{mode}") if seed == workloads.DEFAULT_SEED else None
    workload = workloads.WORKLOADS[name](sizes, seed, reference["exact"], golden)
    report = {"workload": name, "mode": mode, "trace": int(trace),
              "environment": environment(seed, sizes), "work_unit": workload.work_unit}

    setup_times = []
    for part in range(SETUP_PASSES):
        start = time.perf_counter()
        workloads.fresh_import()
        workload.setup(part)
        setup_times.append(time.perf_counter() - start)
    report["setup_s_passes"] = setup_times

    if not trace:
        probes: list[float] = []
        records = run_ops(workload, seconds, probes)
        ok = [r for r in records if r["ok"]]
        raw = sum(r["work"] for r in ok) / sum(r["seconds"] for r in records)
        probe_s = statistics.fmean(probes)
        scale = probe_s / NOMINAL_PROBE_S if workload.calibrate else 1.0
        metrics = {
            "scaled_work_per_s": (raw * scale, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        report["details"] = {"work_per_s": raw, "probe_ms_mean": 1e3 * probe_s,
                             "scale": scale, **workload.summary(records)}
        spans = None
    else:
        tracer = Tracer()
        untraced, traced = run_traced(workload, seconds, tracer)
        records = untraced + traced
        untraced_wall = sum(r["seconds"] for r in untraced)
        traced_wall = tracer.wall()
        self_s = tracer.self_seconds()
        overhead = traced_wall - untraced_wall
        metrics = {f"{layer}.self_share": (self_s[layer] / traced_wall, "share")
                   for layer in LAYERS}
        metrics["trace.overhead_share"] = (overhead / untraced_wall, "share")
        rules = workload.rule_counts() if hasattr(workload, "rule_counts") else {}
        metrics["rewrite.steps"] = (getattr(workload, "steps", 0), "count")
        for rule in RULES:
            metrics[f"rewrite.rule.{rule}"] = (rules.get(rule, 0), "count")
        details = workload.layer_summary(tracer.spans, traced)
        if hasattr(workload, "pool_speedup"):
            try:
                details["stats.pool_speedup_2w (2 shared cores)"] = workload.pool_speedup()
                records.append({"ok": True})
            except Exception:
                print(f"pool comparison failed:\n{traceback.format_exc()}", file=sys.stderr)
                records.append({"ok": False})
        report["details"] = details
        report["accounting_s"] = {
            "untraced_wall": untraced_wall,
            "traced_wall": traced_wall,
            "overhead": overhead,
            "self": self_s,
            "self_sum_minus_overhead": sum(self_s.values()) - overhead,
        }
        spans = tracer.spans

    failed = sum(1 for r in records if not r["ok"])
    report["error_rate"] = failed / len(records)
    report["digest"] = getattr(workload, "digest", None)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return {"result": result, "report": report, "spans": spans}


def unit_of(name: str) -> str:
    """Unit of a report detail, from its name."""
    for pattern, unit in ((r"_per_s\b", "1/s"), (r"_ms(_|\b)", "ms"), (r"[._]us(_|\b)", "us"),
                          (r"_s\b", "s"), (r"_share$", "share"), (r"_percentile$", "%"),
                          (r"speedup", "ratio")):
        if re.search(pattern, name):
            return unit
    return "count"


def print_table(out: dict) -> None:
    report, result = out["report"], out["result"]
    env = report["environment"]
    print(f"# {report['workload']} ({report['mode']}, trace {report['trace']})  seed {env['seed']}"
          f"  python {env['python']}  cpus {env['cpu_count']}"
          f"  load {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}"
          f"  commit {(env['commit'] or 'unknown')[:12]}  src {env['source_sha256'][:12]}")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, v, unit_of(k)) for k, v in report["details"].items()]
    rows.append(("error_rate", report["error_rate"],
                 f"({result['failed']} of {result['attempted']} ops failed)"))
    for key, value, unit in rows:
        print(f"{key:<44} {value:>16.6g} {unit}")
    if "scaled_work_per_s" in result["metrics"]:
        print(f"# work counts {report['work_unit']}; scaled_work_per_s = work_per_s * scale")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["experiment", "normalize", "exact"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)
    sys.setrecursionlimit(20000)  # as the lamupsilon command line does

    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              "tiny" if args.tiny else "full")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-{'tiny' if args.tiny else 'full'}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"report": out["report"], "spans": out["spans"]}, indent=1))
    print_table(out)
    print(f"# report: {path.relative_to(ROOT)}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
