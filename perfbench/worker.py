"""One benchmark process: set up a workload, warm up, then run ops in a closed loop.

Started by ``run.py`` with one JSON argument, the spec ``run.measure`` builds. It
prints one JSON line: the set-up time and, unless the spec asks for set-up
only, the measured ops.
"""

import time

SETUP_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spikecca.cli as cli  # noqa: E402

import environment  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: exit code of ``cli.main`` -> failure class
EXIT_CLASSES = {1: "usage", 2: "io", 3: "numerical"}


def run_op(argv, out: str, tracer=None, op_id: int = 0):
    """Run one op; return (exit code or None on an uncaught exception, latency, output)."""
    if os.path.exists(out):
        os.remove(out)
    start = time.perf_counter()
    try:
        code = tracer.run_op(op_id, list(argv)) if tracer else cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        code = None
    latency = time.perf_counter() - start
    output = None
    if code == 0:
        with open(out, encoding="utf-8") as handle:
            output = handle.read()
    return code, latency, output


def classify(workload, op, code, output, reference: dict, scale: str) -> str | None:
    """Failure class of one op, or None when it succeeded and its output checks out."""
    if code is None:
        return "exception"
    if code != 0:
        return EXIT_CLASSES.get(code, "other")
    payload = json.loads(output)
    problem = workload.check(payload, scale) or workloads.compare(
        workload.observed(payload), reference[op.key]
    )
    if problem:
        print(f"check failed for {workload.name} op {op.key}: {problem}", file=sys.stderr)
        return "check"
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it.

    Returns (latency, percentile, ops beyond it). A run of fewer than 21 ops
    has no such percentile at or above the median; it reports its slowest op,
    at percentile 100 with none beyond.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11
    if index < 10:
        return ordered[-1], 100.0, 0
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[spec["workload"]]
    scale = spec["scale"]
    workdir = os.path.join(ROOT, spec["workdir"], workload.name)
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "op.json")
    ops, warmup = workload.inputs(spec["seed"], workdir, scale, out)
    code, _, _ = run_op(warmup, out)
    if code != 0:
        print(f"warm-up op failed with {code}", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - SETUP_START
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(ROOT, spec["reference"]), encoding="utf-8") as handle:
        reference = json.load(handle)[workload.name]
    tracer = tracing.Tracer(cli) if spec["trace"] else None
    records = []  # (op, code, latency, output, traced)
    cpu_start = time.process_time()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < spec["seconds"]:
        op = ops[i % len(ops)]
        if tracer is None:
            records.append((op, *run_op(op.argv, out), False))
        else:
            # each op runs untraced and traced, alternating which goes first
            for traced in (False, True) if i % 2 == 0 else (True, False):
                records.append((op, *run_op(op.argv, out, tracer if traced else None, i), traced))
        i += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    failures = dict.fromkeys(["usage", "io", "numerical", "check", "exception", "other"], 0)
    for op, code, _, output, _ in records:
        failure = classify(workload, op, code, output, reference, scale)
        if failure:
            failures[failure] += 1
    attempted = len(records)
    failed = sum(failures.values())
    latencies = [lat for _, _, lat, _, _ in records]
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures_by_class": failures,
        "error_rate": failed / attempted,
        "environment": environment.describe(),
    }
    if tracer is None:
        tail_s, percentile, beyond = tail(latencies)
        result["end_to_end"] = {
            "ops_per_s": (attempted - failed) / wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "cpu_s_per_op": cpu / attempted,
            "peak_rss_mb": environment.peak_rss_mb(),
        }
        result["tail"] = {"percentile": percentile, "ops_beyond": beyond, "ops": attempted}
    else:
        plain_s = sum(lat for _, _, lat, _, traced in records if not traced)
        traced_s = sum(lat for _, _, lat, _, traced in records if traced)
        result["per_layer"], result["coverage"] = tracing.layer_metrics(
            tracer.spans, (traced_s - plain_s) / plain_s
        )
        spans_path = os.path.join(workdir, f"spans-seed{spec['seed']}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
