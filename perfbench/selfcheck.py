"""Fast self-check of the benchmark, at toy size.

    python3 perfbench/selfcheck.py

Run from a checkout of the repository; takes well under a minute. For every
workload it builds a toy reference, then checks that a run emits every metric
of ``BENCHMARK.json`` with its unit (end-to-end with tracing off, per-layer
with tracing on) and fails no op. It then corrupts the reference and checks
that every workload reports failed ops, which proves the output checks can
fail; that phase prints each failed check on standard error.
"""

from __future__ import annotations

import json
import math
import os
import sys

import make_reference
import run

SEED = 7
SECONDS = 0.5


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    require({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS), "workload names")
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workdir = os.path.join(run.ROOT, run.WORKDIR, "selfcheck")
    reference = make_reference.build(run.WORKLOADS, "toy", workdir)
    good = os.path.join(workdir, "reference-good.json")
    bad = os.path.join(workdir, "reference-corrupt.json")
    with open(good, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    for entries in reference.values():
        for values in entries.values():
            values[0] += 1e-6  # a hundred times the 1e-8 tolerance
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)

    for name in run.WORKLOADS:
        for trace in (False, True):
            record, line = run.measure(name, SEED, SECONDS, trace, "toy", good, setups=2)
            units = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
            require(units == expected[trace], f"{name} trace={trace} emitted {units}")
            require(
                all(math.isfinite(entry["value"]) for entry in line["metrics"].values()),
                f"{name} trace={trace} emitted a non-finite value",
            )
            require(line["correct"] and line["failed"] == 0, f"{name} trace={trace} failed ops")
            require(record["error_rate"] == 0.0, f"{name} error_rate {record['error_rate']}")
            if trace:
                coverage = record["coverage"]["self_over_wall"]
                require(abs(coverage - 1.0) < 1e-6, f"{name} layer self times cover {coverage}")
        record, line = run.measure(name, SEED, SECONDS, False, "toy", bad, setups=1)
        require(record["error_rate"] > 0, f"{name} passed a corrupted reference")
        require(not line["correct"], f"{name} reported correct against a corrupted reference")
        require(record["failures_by_class"]["check"] == line["failed"], f"{name} failure classes")
        print(f"{name}: metrics and checks ok, corrupted reference fails {line['failed']} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
