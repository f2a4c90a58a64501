"""Command line driver: limits, simulate, estimate, verify.

Results are emitted as JSON (nested payload) or CSV (the same payload
flattened to key/value rows with dotted paths).  Both formats carry floats at
full round-trip precision, and no timestamps.

Each command runs with every loaded OpenBLAS pinned to one thread, and main
restores the counts it found when it returns.  When every loaded OpenBLAS is
pinned, a fixed seed reproduces the output byte for byte on a fixed
numpy/scipy/OpenBLAS build at any OPENBLAS_NUM_THREADS.  Another BLAS (MKL,
Accelerate) is not pinned and runs at the caller's thread count; its output
is byte-reproducible only at a fixed thread count.  The pin is process-wide,
so main is not meant to run concurrently in one process.

Config values are checked, never converted: p, q, n, seed, replicates and
top_m must be integers, spikes a list of numbers or a comma-separated string,
detect_margin a positive finite number.

Exit codes: 0 success, 1 usage or configuration error (malformed config
values or CSV entries, non-finite input included), 2 I/O error, 3 numerical
failure (singularity, branch or LAPACK errors).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import blas, cca, detverify, rmt, sampler
from .errors import (
    ConfigurationError,
    DomainError,
    NumericalError,
    SpikeCcaError,
    UnsupportedModelError,
)
from .model import DimensionRatios, ModelConfig, SpikeSpectrum, ratios_from_dims

FIGURE_PRESET = {"p": 500, "q": 1000, "n": 5000, "spikes": [0.8, 0.7, 0.6, 0.16, 0.15]}

_FORMATS = ("json", "csv")


def default_detect_margin(n: int) -> float:
    """Detection margin above the bulk edge: max(0.02, 2 n^{-2/3}).

    The n^{-2/3} term matches the scale of edge fluctuations; the floor keeps
    small runs sane.
    """
    return max(0.02, 2.0 * float(n) ** (-2.0 / 3.0))


def _detect_margin(margin, n: int) -> float:
    """``default_detect_margin(n)`` for None; otherwise a finite number > 0."""
    if margin is None:
        return default_detect_margin(n)
    if isinstance(margin, bool) or not (isinstance(margin, (int, float)) and 0 < margin < math.inf):
        raise ConfigurationError(f"detect_margin must be a positive finite number, got {margin!r}")
    return float(margin)


@dataclass(frozen=True)
class ExperimentConfig:
    """A Monte Carlo experiment: model plus orchestration parameters."""

    model: ModelConfig
    replicates: int = 1
    top_m: int = 10
    detect_margin: float | None = None
    outputs: tuple[str, ...] = ("json",)

    def __post_init__(self):
        if not (type(self.replicates) is int and self.replicates >= 1):
            raise ConfigurationError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not (type(self.top_m) is int and 1 <= self.top_m <= min(self.model.p, self.model.q)):
            raise ConfigurationError(
                f"top_m must be an integer in [1, min(p, q)] = "
                f"[1, {min(self.model.p, self.model.q)}], got {self.top_m!r}"
            )
        object.__setattr__(self, "detect_margin", _detect_margin(self.detect_margin, self.model.n))
        outputs = self.outputs
        if not (isinstance(outputs, (list, tuple)) and outputs
                and all(fmt in _FORMATS for fmt in outputs)):
            raise ConfigurationError(f"outputs must list one or more of {_FORMATS}, got {outputs!r}")
        object.__setattr__(self, "outputs", tuple(outputs))


def theory_block(ratios: DimensionRatios, spikes: SpikeSpectrum) -> dict:
    """Deterministic limit quantities for a ratio pair and spike list.

    Depends only on (ratios, spikes), never on random draws.
    """
    law = rmt.wachter_edges(ratios)
    crit = rmt.critical_threshold(ratios)
    rows = []
    for r in spikes.r:
        deterministic = r == 1.0
        supercritical = r > crit.r_c
        gamma = rmt.gamma_map(r, ratios) if supercritical else None
        rows.append(
            {
                "r": r,
                "supercritical": supercritical,
                "deterministic": deterministic,
                "gamma": gamma,
                "limit": gamma if supercritical else law.d_right,
            }
        )
    return {
        "c1": ratios.c1,
        "c2": ratios.c2,
        "d_left": law.d_left,
        "d_right": law.d_right,
        "r_c": crit.r_c,
        "t_c": crit.t_c,
        "spikes": rows,
    }


def run_replicate(
    model: ModelConfig, top_m: int, index: int
) -> tuple[sampler.DataPair, np.ndarray]:
    """One replicate under the derived per-replicate stream: its pair and top eigenvalues.

    Uses the coupled sampler; a spectrum containing a unit spike falls back to
    the joint-covariance sampler, which realizes the deterministic unit
    eigenvalue directly; that pair carries no spike strengths t.
    """
    rng = sampler.replicate_rng(model.seed, index)
    if any(r == 1.0 for r in model.spikes.r):
        pair = sampler.sample_general(model, rng)
    else:
        pair = sampler.sample_coupled(model, rng)
    report = cca.squared_canonical_correlations(pair)
    return pair, report.lambdas[:top_m]


def _outliers(lambdas: np.ndarray, threshold: float) -> list[tuple[int, float]]:
    """(rank, eigenvalue) of every eigenvalue above the detection threshold."""
    return [(rank, float(lam)) for rank, lam in enumerate(lambdas) if lam > threshold]


def _estimates_for(lambdas: np.ndarray, ratios: DimensionRatios, threshold: float) -> list[dict]:
    return [
        {"rank": rank, "lambda": lam, "r_hat": rmt.gamma_inverse(lam, ratios)}
        for rank, lam in _outliers(lambdas, threshold)
    ]


def simulate_run(config: ExperimentConfig) -> dict:
    """Run the Monte Carlo experiment and assemble its payload.

    The payload holds per-replicate eigenvalues, aggregates, theory and plot
    data; the theory block depends only on the dimension ratios and spikes,
    never on the random draws.  Row i depends only on replicate i's stream.
    """
    model = config.model
    ratios = model.ratios
    theory = theory_block(ratios, model.spikes)
    threshold = theory["d_right"] + config.detect_margin
    top_matrix = np.vstack(
        [run_replicate(model, config.top_m, i)[1] for i in range(config.replicates)]
    )
    replicate_rows = [
        {
            "index": i,
            "top": [float(v) for v in top_matrix[i]],
            "estimates": _estimates_for(top_matrix[i], ratios, threshold),
        }
        for i in range(config.replicates)
    ]
    ddof = 1 if config.replicates > 1 else 0
    return {
        "config": {
            "p": model.p,
            "q": model.q,
            "n": model.n,
            "spikes": list(model.spikes.r),
            "seed": model.seed,
            "replicates": config.replicates,
            "top_m": config.top_m,
            "detect_margin": config.detect_margin,
        },
        "theory": theory,
        "replicates": replicate_rows,
        "aggregate": {
            "mean_top": [float(v) for v in top_matrix.mean(axis=0)],
            "sd_top": [float(v) for v in top_matrix.std(axis=0, ddof=ddof)],
        },
        "plot": {
            "eigenvalue_rug": [float(v) for v in np.sort(top_matrix.ravel())[::-1]],
            "theory_lines": {
                "d_left": theory["d_left"],
                "d_right": theory["d_right"],
                "detect_threshold": threshold,
                "gamma": [row["gamma"] for row in theory["spikes"] if row["gamma"] is not None],
            },
        },
    }


def estimate_run(X: np.ndarray, Y: np.ndarray, detect_margin: float | None) -> dict:
    """Estimate spikes from data matrices (rows are variables, columns samples)."""
    pair = sampler.DataPair(X=X, Y=Y)
    ratios = ratios_from_dims(pair.p, pair.q, pair.n)
    margin = _detect_margin(detect_margin, pair.n)
    law = rmt.wachter_edges(ratios)
    report = cca.squared_canonical_correlations(pair)
    threshold = law.d_right + margin
    outliers = _estimates_for(report.lambdas, ratios, threshold)
    n_out = len(outliers)
    return {
        "p": pair.p,
        "q": pair.q,
        "n": pair.n,
        "c1_hat": ratios.c1,
        "c2_hat": ratios.c2,
        "d_right": law.d_right,
        "detect_margin": margin,
        "outliers": outliers,
        "bulk": [float(v) for v in report.lambdas[n_out:]],
    }


def verify_run(config: ExperimentConfig) -> dict:
    """Certify detected outliers against the finite-sample determinant.

    For each replicate the normalized determinant is evaluated at every
    detected outlier (it should vanish), and the reduced matrix M_n is
    compared entrywise with its limit at the probe point z = (d_right + 1) / 2.
    """
    model = config.model
    if model.spikes.k < 1:
        raise ConfigurationError("verification needs at least one spike")
    if 1.0 in model.spikes.r:
        raise UnsupportedModelError("verify: a unit spike r = 1 has no finite strength t to certify")
    ratios = model.ratios
    theory = theory_block(ratios, model.spikes)
    threshold = theory["d_right"] + config.detect_margin
    z = (theory["d_right"] + 1.0) / 2.0
    rows = []
    residuals = []
    for index in range(config.replicates):
        pair, top = run_replicate(model, config.top_m, index)
        oracle = detverify.DeterminantOracle(pair)
        outliers = []
        for _, lam in _outliers(top, threshold):
            det = oracle.normalized_det(lam)
            residuals.append(abs(det))
            outliers.append({"lambda": lam, "normalized_det": det})
        comparison = oracle.mn_comparison(z)
        rows.append(
            {
                "index": index,
                "outliers": outliers,
                "mn_max_abs_diff": comparison.max_abs_diff(),
            }
        )
    return {
        "config": {
            "p": model.p,
            "q": model.q,
            "n": model.n,
            "spikes": list(model.spikes.r),
            "seed": model.seed,
            "replicates": config.replicates,
            "detect_margin": config.detect_margin,
        },
        "theory": theory,
        "probe_z": z,
        "replicates": rows,
        "summary": {
            "outliers_certified": len(residuals),
            "max_normalized_det": max(residuals) if residuals else None,
            "max_mn_diff": max(r["mn_max_abs_diff"] for r in rows),
        },
    }


# ---------------------------------------------------------------------------
# Payload emission
# ---------------------------------------------------------------------------


def flatten_payload(obj, prefix: str = "") -> list[tuple[str, object]]:
    """Flatten a nested payload to (dotted key, value) rows, in payload order."""
    rows: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten_payload(value, path))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            path = f"{prefix}.{i}" if prefix else str(i)
            rows.extend(flatten_payload(value, path))
    else:
        rows.append((prefix, obj))
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def payload_to_csv(payload: dict) -> str:
    lines = ["key,value"]
    for key, value in flatten_payload(payload):
        lines.append(f"{key},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def payload_to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit(payload: dict, outputs: tuple[str, ...], out: str | None) -> None:
    renderers = {"json": payload_to_json, "csv": payload_to_csv}
    if out is None:
        fmt = outputs[0]
        sys.stdout.write(renderers[fmt](payload))
        return
    for fmt in outputs:
        path = out if len(outputs) == 1 else f"{out}.{fmt}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(renderers[fmt](payload))


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage failures to exit code 1
        raise _UsageError(message)


def _parse_spikes(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"could not parse spike list {text!r}") from exc


def load_matrix(path: str) -> np.ndarray:
    """Load a matrix from CSV (rows = variables, columns = samples).

    A first line containing any non-numeric token is treated as a header.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ConfigurationError(f"matrix file {path} is empty")
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        lines = lines[1:]
    if not lines:
        raise ConfigurationError(f"matrix file {path} has a header but no data")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ConfigurationError(f"malformed matrix file {path}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"could not parse config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return data


_CONFIG_KEYS = {"p", "q", "n", "spikes", "seed", "replicates", "top_m", "detect_margin", "outputs"}


def resolve_experiment(args) -> ExperimentConfig:
    """Merge config file values and CLI flags (flags win) into a config."""
    values: dict = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - _CONFIG_KEYS
        if unknown:
            raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
        values.update(file_values)
    if getattr(args, "preset", None) == "figure1":
        for key, val in FIGURE_PRESET.items():
            values.setdefault(key, val)
    for key in ("p", "q", "n", "seed", "replicates", "top_m", "detect_margin"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "spikes", None) is not None:
        values["spikes"] = args.spikes
    if getattr(args, "format", None):
        values["outputs"] = [args.format]
    missing = [key for key in ("p", "q", "n") if key not in values]
    if missing:
        raise ConfigurationError(f"missing required dimensions {missing}")
    spikes = values.get("spikes", [])
    if isinstance(spikes, str):
        spikes = _parse_spikes(spikes)
    model = ModelConfig(
        p=values["p"],
        q=values["q"],
        n=values["n"],
        spikes=SpikeSpectrum(spikes),
        seed=values.get("seed", 0),
    )
    config = ExperimentConfig(
        model=model,
        replicates=values.get("replicates", 1),
        top_m=values.get("top_m", min(10, model.p, model.q)),
        detect_margin=values.get("detect_margin"),
        outputs=values.get("outputs", ("json",)),
    )
    if len(config.outputs) > 1 and getattr(args, "out", None) is None:
        raise ConfigurationError(f"outputs {list(config.outputs)} need --out: stdout takes one format")
    return config


def build_parser() -> _Parser:
    parser = _Parser(prog="spikecca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write results to this path instead of stdout")
        p.add_argument("--format", choices=_FORMATS, help="output format (default json)")

    limits = sub.add_parser("limits", help="print the deterministic limit quantities")
    limits.add_argument("--c1", type=float)
    limits.add_argument("--c2", type=float)
    limits.add_argument("--p", type=int)
    limits.add_argument("--q", type=int)
    limits.add_argument("--n", type=int)
    limits.add_argument("--spikes", default="", help="comma separated spike list")
    add_common(limits)

    def add_experiment_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", choices=["figure1"], help="named parameter preset")
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--spikes", help="comma separated spike list")
        p.add_argument("--seed", type=int)
        p.add_argument("--replicates", type=int)
        p.add_argument("--top-m", dest="top_m", type=int)
        p.add_argument("--detect-margin", dest="detect_margin", type=float)
        add_common(p)

    simulate = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    add_experiment_flags(simulate)

    estimate = sub.add_parser("estimate", help="estimate spikes from data files")
    estimate.add_argument("--x", required=True, help="CSV matrix for the first vector")
    estimate.add_argument("--y", required=True, help="CSV matrix for the second vector")
    estimate.add_argument("--detect-margin", dest="detect_margin", type=float)
    add_common(estimate)

    verify = sub.add_parser("verify", help="certify outliers with the determinant oracle")
    add_experiment_flags(verify)

    return parser


def _cmd_limits(args) -> dict:
    if args.c1 is not None or args.c2 is not None:
        if args.c1 is None or args.c2 is None:
            raise ConfigurationError("provide both --c1 and --c2")
        ratios = DimensionRatios(args.c1, args.c2)
    elif args.p is not None and args.q is not None and args.n is not None:
        ratios = ratios_from_dims(args.p, args.q, args.n)
    else:
        raise ConfigurationError("provide either --c1/--c2 or --p/--q/--n")
    spikes = SpikeSpectrum(_parse_spikes(args.spikes))
    return theory_block(ratios, spikes)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    with blas.single_thread():
        return _dispatch(args)


def _dispatch(args) -> int:
    """Run one parsed command, emit its payload and return the exit code."""
    try:
        if args.command == "limits":
            payload = _cmd_limits(args)
            outputs = (args.format,) if args.format else ("json",)
        elif args.command == "simulate":
            config = resolve_experiment(args)
            payload = simulate_run(config)
            outputs = config.outputs
        elif args.command == "estimate":
            X = load_matrix(args.x)
            Y = load_matrix(args.y)
            payload = estimate_run(X, Y, args.detect_margin)
            outputs = (args.format,) if args.format else ("json",)
        elif args.command == "verify":
            config = resolve_experiment(args)
            payload = verify_run(config)
            outputs = config.outputs
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigurationError(f"unknown command {args.command!r}")
        emit(payload, outputs, args.out)
        return 0
    except (ConfigurationError, DomainError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SpikeCcaError as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
