"""Seeded random experiments over uniform terms.

Each sample index owns a derived random stream, so results are a pure
function of (size, sample count, seed): re-runs and different worker
counts produce bit-identical summaries.  Moments are exact integer sums,
taken once over all sample values and only divided at the end; the stored
decimals are rounded to 12 significant digits, which also makes
export/import round-trips exact.

An experiment builds no term: ``_graft_values`` reads every parameter of
a sample in one walk over Rémy's grafting arrays (``trees._graft``), the
arrays ``trees.sample_term`` would read the term from.
``count_all_redexes``, ``unsuspended_constructors`` and
``has_nested_substitution`` on ``sample_term``'s term stay public as the
oracle it is tested against, and closures are classified by a table of
the rewriter's own ``_closure_rule`` (``_closure_cells``).

The three records check their fields when built, by annotation (``_Record``);
``import_summaries`` builds them and raises their messages as ValueError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import _int, _iterable, _member
from .rewrite import _BETA, RuleKind, _closure_rule
from .series import ParamKind, expected_param_exact, nested_free_fraction
from .terms import SHIFT, Abs, App, Closure, Index, Lift, Slash
from .trees import InvalidSize, Rng, _graft

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
    ParamKind.RVARLIFT: Fraction(2243, 884736),
}

#: Limit of the expected number of unsuspended constructors.
UNSUSPENDED_MEAN_LIMIT = Fraction(316, 3)


def round12(x: float) -> float:
    """Round to 12 significant digits (the printed precision)."""
    return float(f"{x:.12g}")


#: The class a record field of each annotation must have, and its name (a float: ``_real``).
_FIELD_TYPES = {"str": (str, "a string"), "int": (int, "an integer"), "bool": (bool, "a bool")}


class _Record:
    """Checks each field of a stats record by its annotation, then the record's
    own ``_bounds``; messages name a field after ``_label``, else the class name."""

    def __post_init__(self):
        label = getattr(self, "_label", self.__class__.__name__)
        for name, field in self.__dataclass_fields__.items():
            value, what = getattr(self, name), f"{label} {name}"
            if field.type == "float":  # a zero reference gives an infinite rel_err
                object.__setattr__(self, name, _real(what, value, name == "rel_err"))
            elif value.__class__ is not _FIELD_TYPES[field.type][0]:
                raise TypeError(f"{what} must be {_FIELD_TYPES[field.type][1]}, not {value!r}")
        self._bounds()


@dataclass(frozen=True)
class SampleSummary(_Record):
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

    def _bounds(self):
        for name, least in (("samples", 2), ("variance", 0)):
            value = getattr(self, name)
            if _real(f"SampleSummary {name}", value) < least:
                raise ValueError(f"SampleSummary {name} must be at least {least}, not {value}")
        _param_name(self.param)


@dataclass(frozen=True)
class Tolerance(_Record):
    """Acceptance band: absolute, relative, or k standard errors.  ``value``
    is a real number (TypeError for anything else, a bool included) that is
    finite and non-negative (ValueError otherwise)."""

    mode: str  # "abs" | "rel" | "se"
    value: float

    _label = "tolerance"

    def _bounds(self):
        if self.mode not in ("abs", "rel", "se"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")
        if self.value < 0:
            raise ValueError(f"tolerance value must be non-negative, not {self.value!r}")


@dataclass(frozen=True)
class ComparisonReport(_Record):
    """Outcome of ``compare_to_reference``: the errors, the tolerance, the verdict."""

    observed: float
    reference: float
    abs_err: float
    rel_err: float
    standard_error: float
    tolerance_mode: str
    tolerance_value: float
    verdict: bool

    def _bounds(self):
        Tolerance(self.tolerance_mode, self.tolerance_value)


def _param_name(param: ParamName) -> str:
    if param == NESTED:
        return NESTED
    try:
        return ParamKind(param).value
    except ValueError:
        raise ValueError(f"unknown parameter {param!r}") from None


def _closure_cells() -> tuple:
    """The rule of each closure cell of ``_region``, from the rewriter's own
    ``_closure_rule``: cell ``5 * sub + body`` holds a closure whose
    substitution is a shift (sub 0), a slash (1) or a lift (2), and whose
    body is index 0 (body 0), a binder (1), an index above 0 (2), an
    application (3) or a closure (4): the body's shape code, with a chain
    read as 2 over a leaf anchor and 4 over any other."""
    bodies = (Index(0), Abs(Index(0)), Index(1), App(Index(0), Index(0)), Closure(Index(0), SHIFT))
    subs = (SHIFT, Slash(Index(0)), Lift(SHIFT))
    return tuple(_closure_rule(body, sub) for sub in subs for body in bodies)


_CELLS = _closure_cells()


def _region(stack: list, payloads: list, left: list, right: list, cells: list) -> tuple[int, int]:
    """Walk the term nodes whose skeleton roots are on ``stack``, down to but
    not into slash payloads, whose roots go onto ``payloads``.  Counts each
    closure in ``cells`` and returns the unsuspended constructors and the
    Beta redexes of the walk.

    A node's term is found by following its left-only chain to the anchor:
    a leaf anchor under a chain of k is the index k; a right-only anchor is
    a binder, and a two-child one an application, under no chain, and else
    a closure whose body is the right child, under a shift, or the left
    child, under a slash of the right one, in either case lifted if the
    chain is longer than 1.  The body's class is read the same way."""
    unsuspended = beta = 0
    pop, push = stack.pop, stack.append
    node = pop()
    while True:
        l, r, chain = left[node], right[node], 0
        while l & 1 and not r & 1:
            l, r, chain = left[l], right[l], chain + 1
        if not r & 1:
            unsuspended += chain + 1  # the index ``chain``
            try:
                node = pop()
            except IndexError:
                return unsuspended, beta
            continue
        unsuspended += 1
        if not chain:
            if l & 1:  # an application, a Beta redex if its left child is a binder
                if not left[l] & 1 and right[l] & 1:
                    beta += 1
                push(r)
                node = l
            else:  # a binder
                node = r
            continue
        if l & 1:
            payloads.append(r)
            node, sub = l, 5
        else:
            node, sub = r, 0
        if chain > 1:
            sub = 10
        l, r = left[node], right[node]
        body = 2 * (l & 1) + (r & 1)  # the body's code: 0 index 0, 1 binder, 3 application
        if body == 2:  # a chain: an index above 0 (2) or a closure (4)
            while l & 1 and not r & 1:
                l, r = left[l], right[l]
            body += 2 * (r & 1)
        cells[sub + body] += 1


def _graft_values(root: int, left: list[int], right: list[int]) -> dict:
    """The values of the term ``trees.sample_term`` would build from
    ``trees._graft``'s arrays, without building it: each ``RuleKind``'s
    redex count, and under ``NESTED`` and the name of
    ``ParamKind.UNSUSPENDED`` the 0/1 nested flag and the unsuspended count.

    ``_region`` walks the unsuspended region first, then the slash
    payloads, which hold every suspended node: a closure in a payload is a
    nested substitution."""
    cells, payloads = [0] * 15, []
    unsuspended, beta = _region([root], payloads, left, right, cells)
    closures = sum(cells)
    if payloads:
        beta += _region(payloads, payloads, left, right, cells)[1]
    counts = dict.fromkeys((*RuleKind, None), 0)  # None: a closure that is no redex
    counts[_BETA] = beta
    for rule, count in zip(_CELLS, cells):
        counts[rule] += count
    del counts[None]
    counts[ParamKind.UNSUSPENDED.value] = unsuspended
    counts[NESTED] = int(sum(cells) > closures)
    return counts


def _sample_values(
    n: int, seed: int, lo: int, hi: int, names: tuple[str, ...]
) -> list[tuple[int, ...]]:
    """Parameter values of the samples with indices [lo, hi), one tuple each,
    read off each sample's grafting arrays by ``_graft_values``."""
    plain = (NESTED, ParamKind.UNSUSPENDED.value)
    columns = [name if name in plain else ParamKind(name).rule_kind for name in names]
    rows = []
    for i in range(lo, hi):
        values = _graft_values(*_graft(n, Rng.derived(seed, i)))
        rows.append(tuple([values[column] for column in columns]))
    return rows


def _worker_count(workers: Optional[int]) -> int:
    """The worker processes to use: ``workers``, else UPSILON_THREADS, else
    one, and at most the cores this process may run on."""
    if workers is not None:
        if _int("workers", workers) < 1:
            raise ValueError(f"workers must be a positive integer, not {workers!r}")
        count = workers
    else:
        env = os.environ.get("UPSILON_THREADS", "").strip()
        try:
            count = int(env) if env else 1
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"UPSILON_THREADS must be a positive integer, not {env!r}")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cores = os.cpu_count() or 1
    return min(count, cores)


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
    raises ValueError.  It runs at most one worker process per core that
    the process may use.
    """
    if _int("n", n) < 1:
        raise InvalidSize("term size must be positive")
    if _int("m", m) < 2:
        raise InsufficientSamples("need at least two samples")
    _int("seed", seed)
    params = _iterable("params", params, "a list of parameter names")
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
    return math.sqrt(_member(SampleSummary, summary).variance / summary.samples)


def standardized_skewness(summary: SampleSummary) -> float:
    """Third central moment over variance^(3/2)."""
    if _member(SampleSummary, summary).variance == 0:
        return 0.0
    return summary.third_central_moment / summary.variance**1.5


def compare_to_reference(
    summary: SampleSummary, reference: float, tolerance: Tolerance
) -> ComparisonReport:
    """Check the empirical mean against a reference value, a finite real
    number (TypeError for anything else, a bool included; ValueError for an
    infinity, a NaN or a number too large for a float)."""
    observed = _member(SampleSummary, summary).mean
    _member(Tolerance, tolerance)
    _real("reference", reference)
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

    ``destination`` is a path (str, bytes or path-like) or a writable text
    file object; anything else raises TypeError before a byte is written.  JSON
    mirrors SampleSummary fields plus any comparisons, with an infinite
    ``rel_err`` (a zero reference) written as null; CSV uses the fixed
    schema ``param,n,m,seed,mean,variance,min,max,m3``.  ``comparisons`` is
    None or a dict of lists of ComparisonReport, else TypeError.
    """
    results = _iterable("results", results, "a list of SampleSummary records")
    results = [_member(SampleSummary, s) for s in results]
    if not results:
        raise ValueError("nothing to export")
    if comparisons is not None and not isinstance(comparisons, dict):
        raise TypeError(f"comparisons must be a dict of lists, not {comparisons!r}")
    for key, reports in (comparisons or {}).items():
        if not isinstance(reports, list):
            raise TypeError(f"comparisons[{key!r}] must be a list, not {reports!r}")
        for report in reports:
            _member(ComparisonReport, report)
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
    elif isinstance(destination, (str, bytes, os.PathLike)):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        what = "a path or a writable text file object"
        raise TypeError(f"destination must be {what}, not {destination!r}")
    return len(data)


def _real(name: str, x, inf: bool = False):
    """``x``, as a float unless an int or a float; TypeError unless a real number
    (not a bool), ValueError unless finite as a float (or, with ``inf``, +inf)."""
    if not isinstance(x, numbers.Real) or x.__class__ is bool:
        raise TypeError(f"{name} must be a real number, not {x!r}")
    try:
        if math.isfinite(x) or inf and x == math.inf:
            return x if x.__class__ in (int, float) else float(x)
    except OverflowError:  # an int or a fraction too large for a float
        pass
    raise ValueError(f"{name} must be finite, not {x!r}")


def import_summaries(text: str) -> list[SampleSummary]:
    """Parse summaries back from the JSON export format.  ``text`` is a str
    or bytes (TypeError otherwise).  Raises ValueError unless it is a JSON
    array of objects that each hold every SampleSummary field, with a value
    that ``SampleSummary`` accepts, and with its text: ``export_report``
    writes only such values.  Other keys, such as ``comparisons``, are
    ignored."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise TypeError(f"text must be a str or bytes, not {text!r}")
    rows = json.loads(text)
    fields = SampleSummary.__dataclass_fields__
    if rows.__class__ is not list or not all(
        row.__class__ is dict and row.keys() >= fields.keys() for row in rows
    ):
        raise ValueError("not a JSON array of objects with every SampleSummary field")
    try:
        return [SampleSummary(**{k: row[k] for k in fields}) for row in rows]
    except TypeError as err:
        raise ValueError(str(err)) from None
