"""The benchmark's workloads: inputs made from a seed, the argv of each op, output checks.

One op is one ``spikecca.cli.main(argv)`` call. Each workload draws its op
inputs from a fixed pool (simulation seeds, or CSV datasets) whose outputs are
committed in ``reference.json``; the benchmark seed chooses the order in which
the pool is visited. That is what lets every op's eigenvalues be compared with
a committed reference, whatever the benchmark seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

#: the figure-1 spike list of the paper
FIGURE_SPIKES = "0.8,0.7,0.6,0.16,0.15"
#: spikes of the estimate datasets; all three are supercritical at c = (0.1, 0.2)
ESTIMATE_SPIKES = (0.8, 0.7, 0.6)
#: criterion 7: stable eigenvalues agree with an oracle to 1e-8
EIG_TOL = 1e-8
#: criterion 8: a certified outlier has |normalized det| < 1e-6
DET_TOL = 1e-6
#: outliers the three supercritical spikes produce
OUTLIERS = 3


@dataclass(frozen=True)
class Op:
    """One CLI call and the key of its committed reference."""

    argv: tuple[str, ...]
    key: str


def dims_argv(dims: tuple[int, int, int]) -> list[str]:
    p, q, n = dims
    return ["--p", str(p), "--q", str(q), "--n", str(n)]


def compare(values: list[float], expected: list[float]) -> str | None:
    """Why ``values`` differ from the reference, or None when they agree to EIG_TOL."""
    if len(values) != len(expected):
        return f"{len(values)} eigenvalues, reference has {len(expected)}"
    worst = max((abs(a - b) for a, b in zip(values, expected)), default=0.0)
    if not worst <= EIG_TOL:
        return f"eigenvalues differ from the reference by {worst:.3e} > {EIG_TOL:g}"
    return None


def visit_order(keys: list[str], seed: int) -> list[str]:
    order = list(keys)
    random.Random(seed).shuffle(order)
    return order


class Workload:
    """A pool of op inputs per scale ("full", or "toy" for the self-check)."""

    name: str
    why: str
    dims: dict
    pool: dict
    #: pool entries one run visits, in the order the seed gives; None visits them all
    visits: int | None = None

    def prepare(self, key: str, workdir: str, scale: str, out: str, slot: int = 0) -> Op:
        raise NotImplementedError

    def warmup(self, op: Op, scale: str, out: str) -> tuple[str, ...]:
        return op.argv

    def inputs(self, seed: int, workdir: str, scale: str, out: str):
        """Every op of a run, cycled in order, and the warm-up argv."""
        keys = visit_order(self.pool[scale], seed)[: self.visits]
        ops = [self.prepare(key, workdir, scale, out, slot) for slot, key in enumerate(keys)]
        return ops, self.warmup(ops[0], scale, out)


class DeskSimulate(Workload):
    name = "desk-simulate"
    why = (
        "simulate at (100, 200, 1000), 8 replicates per op: many small problems, "
        "sampler and cca only, Python and BLAS dispatch overhead visible"
    )
    replicates = {"full": 8, "toy": 2}
    dims = {"full": (100, 200, 1000), "toy": (50, 100, 500)}
    pool = {"full": [str(1000 + i) for i in range(64)], "toy": ["1000", "1001", "1002"]}
    top_m = 5

    def prepare(self, key: str, workdir: str, scale: str, out: str, slot: int = 0) -> Op:
        argv = [
            "simulate", *dims_argv(self.dims[scale]), "--spikes", FIGURE_SPIKES,
            "--seed", key, "--replicates", str(self.replicates[scale]),
            "--top-m", str(self.top_m), "--out", out,
        ]
        return Op(tuple(argv), key)

    def observed(self, payload: dict) -> list[float]:
        return [v for row in payload["replicates"] for v in row["top"]]

    def check(self, payload: dict, scale: str) -> str | None:
        rows = payload["replicates"]
        if len(rows) != self.replicates[scale]:
            return f"{len(rows)} replicates, expected {self.replicates[scale]}"
        # the spike 0.16 sits just below r_c = 1/6, so a fourth eigenvalue
        # sometimes clears the threshold at n = 1000: check consistency, not a count
        threshold = payload["plot"]["theory_lines"]["detect_threshold"]
        for row in rows:
            if [e["lambda"] for e in row["estimates"]] != [v for v in row["top"] if v > threshold]:
                return f"replicate {row['index']} estimates disagree with its eigenvalues"
        return None


class PaperVerify(Workload):
    name = "paper-verify"
    why = (
        "verify at the paper's scale (500, 1000, 5000), one replicate per op: large "
        "factorizations, the only workload that runs detverify"
    )
    dims = {"full": (500, 1000, 5000), "toy": (50, 100, 500)}
    #: the warm-up runs the same command at desk scale, so a paper-scale op is not paid twice
    warmup_dims = {"full": (100, 200, 1000), "toy": (50, 100, 500)}
    pool = {"full": [str(2000 + i) for i in range(8)], "toy": ["2000", "2001"]}
    top_m = 5

    def argv(self, key: str, dims: tuple[int, int, int], out: str) -> tuple[str, ...]:
        return (
            "verify", *dims_argv(dims), "--spikes", FIGURE_SPIKES, "--seed", key,
            "--replicates", "1", "--top-m", str(self.top_m), "--out", out,
        )

    def prepare(self, key: str, workdir: str, scale: str, out: str, slot: int = 0) -> Op:
        return Op(self.argv(key, self.dims[scale], out), key)

    def warmup(self, op: Op, scale: str, out: str) -> tuple[str, ...]:
        return self.argv(op.key, self.warmup_dims[scale], out)

    def observed(self, payload: dict) -> list[float]:
        return [o["lambda"] for row in payload["replicates"] for o in row["outliers"]]

    def check(self, payload: dict, scale: str) -> str | None:
        summary = payload["summary"]
        if summary["outliers_certified"] != OUTLIERS:
            return f"{summary['outliers_certified']} outliers certified, expected {OUTLIERS}"
        worst = summary["max_normalized_det"]
        if not abs(worst) < DET_TOL:
            return f"max normalized det {worst:.3e} is not below {DET_TOL:g}"
        if not math.isfinite(summary["max_mn_diff"]):
            return "reduced-matrix deviation is not finite"
        return None


class EstimateCsv(Workload):
    name = "estimate-csv"
    why = (
        "estimate on CSV pairs at (200, 400, 2000), 3 datasets cycled: cca once per "
        "pair read from disk, CSV parsing dominant, no sampler or detverify"
    )
    dims = {"full": (200, 400, 2000), "toy": (50, 100, 500)}
    pool = {"full": [str(3000 + i) for i in range(6)], "toy": ["3000", "3001"]}
    visits = 3

    def write_dataset(self, key: str, path_x: str, path_y: str, scale: str) -> None:
        """X = W + T Y with independent standard normal W, Y drawn by numpy from ``key``.

        The data are made here, not by spikecca's sampler, so this workload's
        set-up does not move with the sampler.
        """
        import numpy as np

        p, q, n = self.dims[scale]
        rng = np.random.default_rng(int(key))
        X = rng.standard_normal((p, n))
        Y = rng.standard_normal((q, n))
        for i, r in enumerate(ESTIMATE_SPIKES):
            X[i] += math.sqrt(r / (1.0 - r)) * Y[i]
        for matrix, path in ((X, path_x), (Y, path_y)):
            np.savetxt(path, matrix, fmt="%.17g", delimiter=",")

    def prepare(self, key: str, workdir: str, scale: str, out: str, slot: int = 0) -> Op:
        path_x = os.path.join(workdir, f"x{slot}.csv")
        path_y = os.path.join(workdir, f"y{slot}.csv")
        self.write_dataset(key, path_x, path_y, scale)
        return Op(("estimate", "--x", path_x, "--y", path_y, "--out", out), key)

    def observed(self, payload: dict) -> list[float]:
        return [o["lambda"] for o in payload["outliers"]] + payload["bulk"]

    def check(self, payload: dict, scale: str) -> str | None:
        flagged = len(payload["outliers"])
        if flagged != OUTLIERS:
            return f"{flagged} outliers flagged, expected {OUTLIERS}"
        return None


WORKLOADS = {w.name: w for w in (DeskSimulate(), PaperVerify(), EstimateCsv())}
