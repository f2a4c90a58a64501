"""Benchmark of the spikecca command line, one workload per invocation.

    python3 perfbench/run.py --workload desk-simulate --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. ``--trace 0`` measures the end-to-end metrics, ``--trace
1`` the per-layer metrics from a separate traced run. The last line of
standard output is the result as one JSON object; the line before it is the
full record, which also carries the environment, the failures by class and
the tail percentile, and is written under ``.perfbench_out/``.

Set-up runs in fresh worker processes, ``SETUPS`` times, and ``setup_s`` is
their median; the last worker goes on to the timed phase in the same
process, with one client in a closed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = ".perfbench_out"
REFERENCE = os.path.join("perfbench", "reference.json")
WORKLOADS = ("desk-simulate", "paper-verify", "estimate-csv")
SETUPS = 3
#: a run must end within 180 s; stop the workers well before that
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s_per_op": "s/op",
    "peak_rss_mb": "MB",
}


def run_worker(spec: dict, deadline: float) -> dict:
    """Run ``worker.py`` on ``spec`` and return the JSON line it prints."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {spec['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, scale="full", reference=REFERENCE, setups=SETUPS):
    """Set up and run one workload; return (full record, result line)."""
    deadline = time.monotonic() + DEADLINE_S
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "reference": reference,
        "workdir": WORKDIR,
        "setup_only": True,
    }
    # a traced run reports no set-up time, so it sets up once
    setup_samples = [run_worker(spec, deadline)["setup_s"] for _ in range(0 if trace else setups - 1)]
    result = run_worker({**spec, "setup_only": False}, deadline)
    setup_samples.append(result["setup_s"])
    if trace:
        metrics = result["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_samples), **result["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "setup_samples_s": setup_samples,
        **{k: v for k, v in result.items() if k not in ("setup_s", "end_to_end", "per_layer")},
        "metrics": metrics,
    }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return record, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "spikecca")):
        print(f"error: no spikecca sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        record, line = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(ROOT, WORKDIR, args.workload, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
