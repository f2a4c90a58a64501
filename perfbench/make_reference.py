"""Regenerate ``reference.json``: the checked outputs of every pool input of every workload.

    python3 perfbench/make_reference.py

Run from a checkout of the repository. Each pool input is run once through
``spikecca.cli.main`` and must pass its workload's checks; the eigenvalues it
reports become the reference the benchmark compares every op with. Only
regenerate the committed file when a workload's pool or op changes, never to
absorb a change in the program's answers.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spikecca.cli as cli  # noqa: E402

import workloads  # noqa: E402


def build(names, scale: str, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "reference-op.json")
    reference = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        reference[name] = {}
        for key in workload.pool[scale]:
            op = workload.prepare(key, workdir, scale, out)
            code = cli.main(list(op.argv))
            if code != 0:
                raise RuntimeError(f"{name} input {key} exited with {code}")
            with open(out, encoding="utf-8") as handle:
                payload = json.load(handle)
            problem = workload.check(payload, scale)
            if problem:
                raise RuntimeError(f"{name} input {key} fails its check: {problem}")
            reference[name][key] = workload.observed(payload)
    return reference


def main() -> int:
    reference = build(workloads.WORKLOADS, "full", os.path.join(ROOT, ".perfbench_out", "reference"))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
