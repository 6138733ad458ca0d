"""Regenerate bench/reference.json from the code in ./src.

    python3 bench/make_reference.py

Writes the exact rationals of the ten reference values at every size the
exact and experiment workloads use, and the golden SHA-256 digests of the
experiment export and the normalize outputs at the default seed.  Run it
only when a change is meant to alter those outputs; the committed file
pins them so that a speed-up cannot change a sampled term or a rational.
"""

import json

from workloads import (
    DEFAULT_SEED,
    REFERENCE,
    SIZES,
    WORKLOADS,
    ParamKind,
    lamupsilon,
)
from run import NullTracer


def exact_table() -> dict[str, dict[str, str]]:
    sizes = set()
    for sz in SIZES.values():
        sizes.update(sz["exact_sizes"])
        sizes.add(sz["experiment_n"])
    table = {}
    for n in sorted(sizes):
        row = {}
        for param in ParamKind:
            value = lamupsilon.expected_param_exact(param, n)
            row[param.value] = f"{value.numerator}/{value.denominator}"
        value = lamupsilon.nested_free_fraction(n)
        row["nested_free"] = f"{value.numerator}/{value.denominator}"
        table[str(n)] = row
    return table


def golden_digests(table: dict) -> dict[str, str]:
    digests = {}
    for mode, sizes in SIZES.items():
        for name in ("experiment", "normalize"):
            workload = WORKLOADS[name](sizes, DEFAULT_SEED, table, None)
            workload.setup(0)
            for i in range(workload.min_ops):
                workload.op(i, NullTracer())
            digests[f"{name}.{mode}"] = workload.digest
    return digests


def main() -> None:
    table = exact_table()
    reference = {"exact": table, "golden": golden_digests(table)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
