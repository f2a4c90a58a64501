"""Spans around the calls into each spikecca layer, recorded from outside the package.

The tracer swaps the public functions listed in ``targets`` for wrappers at
their module (or class) attributes for the duration of one op and restores
them afterwards. The package looks these names up at call time, so calls
between its modules pass through the wrappers. A call made through a name
bound at import time (``detverify`` imports ``rmt.f`` and ``rmt.h`` that way)
is not seen and counts towards its caller's self time.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("cli", "sampler", "cca", "rmt", "detverify")
ROOT = "cli.main"
LOAD = "cli.load_matrix"
EMIT = "cli.emit"
NORMAL = "sampler.standard_normal_matrix"
BUILD = "detverify.DeterminantOracle.__init__"
DET = "detverify.DeterminantOracle.normalized_det"
FACTORS = "detverify.DeterminantOracle.factors"

#: per-layer metrics: name -> unit
PER_LAYER = {
    "sampler.calls": "calls/op",
    "sampler.self_s_per_op": "s/op",
    "sampler.normal_s_per_op": "s/op",
    "cca.calls": "calls/op",
    "cca.s_per_call": "s/call",
    "cca.self_s_per_op": "s/op",
    "detverify.build_calls": "calls/op",
    "detverify.build_s_per_call": "s/call",
    "detverify.det_calls": "calls/op",
    "detverify.det_s_per_call": "s/call",
    "detverify.factors_calls": "calls/op",
    "detverify.failures": "count",
    "rmt.calls": "calls/op",
    "rmt.self_s_per_op": "s/op",
    "cli.load_s_per_op": "s/op",
    "cli.load_mb_per_s": "MB/s",
    "cli.emit_s_per_op": "s/op",
    "cli.self_s_per_op": "s/op",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def targets(cli):
    """(owner, attribute) of every traced function."""
    from spikecca import cca, detverify, rmt, sampler

    oracle = detverify.DeterminantOracle
    return [
        (sampler, "sample_coupled"),
        (sampler, "sample_general"),
        (sampler, "standard_normal_matrix"),
        (cca, "squared_canonical_correlations"),
        # the rmt functions cli calls
        (rmt, "wachter_edges"),
        (rmt, "critical_threshold"),
        (rmt, "gamma_map"),
        (rmt, "gamma_inverse"),
        (oracle, "__init__"),
        (oracle, "factors"),
        (oracle, "normalized_det"),
        (oracle, "reduced_matrix"),
        (oracle, "limit_matrix"),
        (cli, "load_matrix"),
        (cli, "emit"),
    ]


def span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float
    ok: bool
    nbytes: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of every traced op in memory."""

    def __init__(self, cli):
        self.cli = cli
        self.spans: list[Span] = []
        self._targets = [(owner, attr, span_name(owner, attr)) for owner, attr in targets(cli)]
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op_id = -1

    def run_op(self, op_id: int, argv: list[str]) -> int:
        """``cli.main(argv)`` under a root span, with every target wrapped."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._targets]
        for (owner, attr, name), (_, _, fn) in zip(self._targets, originals):
            setattr(owner, attr, self._wrap(name, fn))
        self._op_id = op_id
        try:
            return self._call(ROOT, self.cli.main, (argv,), {})
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        nbytes = os.path.getsize(args[0]) if name == LOAD else 0
        self._stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self._op_id, name, start, end, ok, nbytes))

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[Span], overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced ops, and a coverage record.

    A span's self time is its duration minus that of its child spans; a
    layer's self time sums its spans' self times. The ``cli`` layer holds the
    root span, ``load_matrix`` and ``emit``, so the layer self times add up
    to the traced op wall time.
    """
    by_id = {s.span_id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time = dict.fromkeys(LAYERS, 0.0)
    entries: Counter = Counter()
    entry_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    time_in: dict[str, float] = defaultdict(float)
    root_self = 0.0
    failures: Counter = Counter()
    nbytes = 0
    for s in spans:
        own = s.duration - child_time[s.span_id]
        self_time[s.layer] += own
        if s.name == ROOT:
            root_self += own
        calls[s.name] += 1
        time_in[s.name] += s.duration
        nbytes += s.nbytes
        failures[s.layer] += not s.ok
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            entries[s.layer] += 1
            entry_time[s.layer] += s.duration
    ops = calls[ROOT]
    op_wall = time_in[ROOT]
    values = {
        "sampler.calls": _per(entries["sampler"], ops),
        "sampler.self_s_per_op": _per(self_time["sampler"], ops),
        "sampler.normal_s_per_op": _per(time_in[NORMAL], ops),
        "cca.calls": _per(entries["cca"], ops),
        "cca.s_per_call": _per(entry_time["cca"], entries["cca"]),
        "cca.self_s_per_op": _per(self_time["cca"], ops),
        "detverify.build_calls": _per(calls[BUILD], ops),
        "detverify.build_s_per_call": _per(time_in[BUILD], calls[BUILD]),
        "detverify.det_calls": _per(calls[DET], ops),
        "detverify.det_s_per_call": _per(time_in[DET], calls[DET]),
        "detverify.factors_calls": _per(calls[FACTORS], ops),
        "detverify.failures": failures["detverify"],
        "rmt.calls": _per(entries["rmt"], ops),
        "rmt.self_s_per_op": _per(self_time["rmt"], ops),
        "cli.load_s_per_op": _per(time_in[LOAD], ops),
        "cli.load_mb_per_s": _per(nbytes / 1e6, time_in[LOAD]),
        "cli.emit_s_per_op": _per(time_in[EMIT], ops),
        "cli.self_s_per_op": _per(root_self, ops),
        **{f"{layer}.share": _per(self_time[layer], op_wall) for layer in LAYERS},
        "trace.overhead_frac": overhead_frac,
    }
    coverage = {
        "traced_ops": ops,
        "traced_op_wall_s": op_wall,
        "layer_self_s": self_time,
        "self_over_wall": _per(sum(self_time.values()), op_wall),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, coverage
