"""Seeded random experiments over uniform terms.

Each sample index owns a derived random stream, so results are a pure
function of (size, sample count, seed): re-runs and different worker
counts produce bit-identical summaries.  Moments are exact integer sums,
taken once over all sample values and only divided at the end; the stored
decimals are rounded to 12 significant digits, which also makes
export/import round-trips exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import _int
from .rewrite import count_all_redexes, has_nested_substitution, unsuspended_constructors
from .series import ParamKind, expected_param_exact, nested_free_fraction
from .trees import InvalidSize, Rng, sample_term

#: Extra experiment parameter: 0/1 indicator of a nested substitution.
NESTED = "nested"

ParamName = Union[ParamKind, str]


class InsufficientSamples(ValueError):
    """Unbiased variance needs at least two samples."""


#: Known limits of E(X_n)/n for each redex count (exact rationals).
LIMIT_MEAN_SLOPE = {
    ParamKind.BETA: Fraction(3, 64),
    ParamKind.APP: Fraction(1, 32),
    ParamKind.LAMBDA: Fraction(1, 32),
    ParamKind.VARSHIFT: Fraction(1, 64),
    ParamKind.FVAR: Fraction(3, 256),
    ParamKind.FVARLIFT: Fraction(1, 128),
    ParamKind.RVAR: Fraction(1, 256),
    ParamKind.RVARLIFT: Fraction(1, 384),
}

#: Known limits of V(X_n)/n for each redex count (exact rationals).
LIMIT_VARIANCE_SLOPE = {
    ParamKind.BETA: Fraction(153, 4096),
    ParamKind.APP: Fraction(45, 2048),
    ParamKind.LAMBDA: Fraction(53, 2048),
    ParamKind.VARSHIFT: Fraction(57, 4096),
    ParamKind.FVAR: Fraction(729, 65536),
    ParamKind.FVARLIFT: Fraction(241, 32768),
    ParamKind.RVAR: Fraction(249, 65536),
    ParamKind.RVARLIFT: Fraction(377, 147456),
}

#: Limit of the expected number of unsuspended constructors.
UNSUSPENDED_MEAN_LIMIT = Fraction(316, 3)


def round12(x: float) -> float:
    """Round to 12 significant digits (the printed precision)."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class SampleSummary:
    """Empirical statistics of one parameter at one size."""

    param: str
    size: int
    samples: int
    seed: int
    mean: float
    variance: float  # unbiased, divisor m - 1
    min: int
    max: int
    third_central_moment: float  # divisor m


@dataclass(frozen=True)
class Tolerance:
    """Acceptance band: absolute, relative, or k standard errors."""

    mode: str  # "abs" | "rel" | "se"
    value: float

    def __post_init__(self):
        if self.mode not in ("abs", "rel", "se"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of ``compare_to_reference``: the errors, the tolerance, the verdict."""

    observed: float
    reference: float
    abs_err: float
    rel_err: float
    standard_error: float
    tolerance_mode: str
    tolerance_value: float
    verdict: bool


def _param_name(param: ParamName) -> str:
    if param == NESTED:
        return NESTED
    try:
        return ParamKind(param).value
    except ValueError:
        raise ValueError(f"unknown parameter {param!r}") from None


def _evaluate(term, columns: list) -> tuple[int, ...]:
    """The values of ``columns`` on ``term``: ``NESTED``, the name of
    ``ParamKind.UNSUSPENDED``, or the ``RuleKind`` a redex count counts."""
    redexes = None
    values = []
    for column in columns:
        if column == NESTED:
            values.append(1 if has_nested_substitution(term) else 0)
        elif column == ParamKind.UNSUSPENDED.value:
            values.append(unsuspended_constructors(term))
        else:
            if redexes is None:
                redexes = count_all_redexes(term)
            values.append(redexes[column])
    return tuple(values)


def _sample_values(
    n: int, seed: int, lo: int, hi: int, names: tuple[str, ...]
) -> list[tuple[int, ...]]:
    """Parameter values of the samples with indices [lo, hi), one tuple each."""
    plain = (NESTED, ParamKind.UNSUSPENDED.value)
    columns = [name if name in plain else ParamKind(name).rule_kind for name in names]
    return [_evaluate(sample_term(n, Rng.derived(seed, i)), columns) for i in range(lo, hi)]


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        if _int("workers", workers) < 1:
            raise ValueError(f"workers must be a positive integer, not {workers!r}")
        return workers
    env = os.environ.get("UPSILON_THREADS", "").strip()
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"UPSILON_THREADS must be a positive integer, not {env!r}")
    return count


def run_experiment(
    n: int,
    m: int,
    seed: int,
    params: Iterable[ParamName],
    workers: Optional[int] = None,
) -> dict[str, SampleSummary]:
    """Sample m uniform size-n terms and summarize the given parameters.

    ``params`` may contain ParamKind values, their names and ``"nested"``;
    any other name raises ValueError, and a bare string TypeError.  Deterministic in (n, m, seed)
    regardless of ``workers``, a positive integer (default: the
    UPSILON_THREADS environment variable, else serial); any other count
    raises ValueError.
    """
    if _int("n", n) < 1:
        raise InvalidSize("term size must be positive")
    if _int("m", m) < 2:
        raise InsufficientSamples("need at least two samples")
    _int("seed", seed)
    if isinstance(params, str):
        raise TypeError(f"params must be a list of parameter names, not {params!r}")
    names = tuple(dict.fromkeys(_param_name(p) for p in params))
    if not names:
        raise ValueError("no parameters requested")

    workers = _worker_count(workers)
    if workers == 1 or m < 4 * workers:
        rows = _sample_values(n, seed, 0, m, names)
    else:
        # imported here: loading multiprocessing costs every command start-up
        from concurrent.futures import ProcessPoolExecutor

        bounds = [m * w // workers for w in range(workers + 1)]
        jobs = [(n, seed, bounds[w], bounds[w + 1], names) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for part in pool.map(_sample_values, *zip(*jobs)) for row in part]

    out: dict[str, SampleSummary] = {}
    for name, values in zip(names, zip(*rows)):
        s1 = sum(values)
        s2 = sum(x * x for x in values)
        s3 = sum(x * x * x for x in values)
        mean = Fraction(s1, m)
        variance = (Fraction(s2) - Fraction(s1 * s1, m)) / (m - 1)
        m3 = (Fraction(s3) - 3 * mean * s2 + 2 * mean**2 * s1) / m
        out[name] = SampleSummary(
            param=name,
            size=n,
            samples=m,
            seed=seed,
            mean=round12(float(mean)),
            variance=round12(float(variance)),
            min=min(values),
            max=max(values),
            third_central_moment=round12(float(m3)),
        )
    return out


def standard_error(summary: SampleSummary) -> float:
    """Standard error of the sample mean."""
    return math.sqrt(summary.variance / summary.samples)


def standardized_skewness(summary: SampleSummary) -> float:
    """Third central moment over variance^(3/2)."""
    if summary.variance == 0:
        return 0.0
    return summary.third_central_moment / summary.variance**1.5


def compare_to_reference(
    summary: SampleSummary, reference: float, tolerance: Tolerance
) -> ComparisonReport:
    """Check the empirical mean against a reference value."""
    observed = summary.mean
    abs_err = abs(observed - reference)
    rel_err = abs_err / abs(reference) if reference else math.inf
    se = standard_error(summary)
    if tolerance.mode == "abs":
        verdict = abs_err <= tolerance.value
    elif tolerance.mode == "rel":
        verdict = abs_err <= tolerance.value * abs(reference)
    else:
        verdict = abs_err <= tolerance.value * se
    return ComparisonReport(
        observed=observed,
        reference=round12(float(reference)),
        abs_err=round12(abs_err),
        rel_err=round12(rel_err) if rel_err != math.inf else math.inf,
        standard_error=round12(se),
        tolerance_mode=tolerance.mode,
        tolerance_value=tolerance.value,
        verdict=verdict,
    )


def default_comparisons(summary: SampleSummary) -> list[ComparisonReport]:
    """Reference checks for one summary: the exact finite-size expectation
    (3 standard errors) and, where known, the limiting constant."""
    reports = []
    name = summary.param
    n = summary.size
    if name == NESTED:
        exact = 1 - nested_free_fraction(n)
        reports.append(compare_to_reference(summary, float(exact), Tolerance("se", 3)))
        return reports
    param = ParamKind(name)
    exact = expected_param_exact(param, n)
    reports.append(compare_to_reference(summary, float(exact), Tolerance("se", 3)))
    if param is ParamKind.UNSUSPENDED:
        reports.append(
            compare_to_reference(summary, float(UNSUSPENDED_MEAN_LIMIT), Tolerance("rel", 0.05))
        )
    else:
        slope = LIMIT_MEAN_SLOPE[param]
        reports.append(
            compare_to_reference(summary, float(slope * n), Tolerance("rel", 0.03))
        )
    return reports


_CSV_HEADER = ("param", "n", "m", "seed", "mean", "variance", "min", "max", "m3")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def export_report(
    results: Sequence[SampleSummary],
    format: str = "csv",
    destination=None,
    comparisons: Optional[dict[str, list[ComparisonReport]]] = None,
) -> int:
    """Write summaries as CSV or JSON; returns the number of bytes written.

    ``destination`` is a path or a writable text file object.  JSON
    mirrors SampleSummary fields plus any comparisons, with an infinite
    ``rel_err`` (a zero reference) written as null; CSV uses the fixed
    schema ``param,n,m,seed,mean,variance,min,max,m3``.
    """
    results = list(results)
    if not results:
        raise ValueError("nothing to export")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for s in results:
            writer.writerow(
                (s.param, s.size, s.samples, s.seed, _fmt(s.mean), _fmt(s.variance),
                 s.min, s.max, _fmt(s.third_central_moment))
            )
        text = buf.getvalue()
    elif format == "json":
        rows = []
        for s in results:
            row = asdict(s)
            if comparisons and s.param in comparisons:
                row["comparisons"] = [
                    {**asdict(c), "rel_err": c.rel_err if math.isfinite(c.rel_err) else None}
                    for c in comparisons[s.param]
                ]
            rows.append(row)
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown format {format!r}")

    data = text.encode("utf-8")
    if destination is None:
        raise ValueError("a destination is required")
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    return len(data)


def import_summaries(text: str) -> list[SampleSummary]:
    """Parse summaries back from the JSON export format.  Raises ValueError
    unless ``text`` is a JSON array of objects that each hold every
    SampleSummary field; other keys, such as ``comparisons``, are ignored."""
    rows = json.loads(text)
    fields = SampleSummary.__dataclass_fields__.keys()
    if rows.__class__ is not list or not all(
        row.__class__ is dict and row.keys() >= fields for row in rows
    ):
        raise ValueError("not a JSON array of objects with every SampleSummary field")
    return [SampleSummary(**{k: row[k] for k in fields}) for row in rows]
