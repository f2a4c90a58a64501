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
detect_margin a positive finite number; null is not a value for any key.
top_m defaults to min(10, p, q).  A run's design and detection rule are one
ExperimentConfig, which estimate builds from its data's shape, so simulate,
verify and estimate call an eigenvalue above d_right + detect_margin an outlier.

main is the entry point of the spikecca script and of python -m spikecca.cli.
Its exit codes: 0 success, 1 configuration error (usage errors, such as an
unknown flag or a missing value, malformed config values or CSV entries,
labelled or empty CSV files, non-finite input and dimensions too large for
numpy included), 2 I/O error, 3 numerical failure (singularity, branch or
LAPACK errors) or out of memory; each failure prints one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import blas, cca, detverify, rmt, sampler
from .errors import ConfigurationError, NumericalError, SpikeCcaError, UnsupportedModelError
from .model import DimensionRatios, ModelConfig, SpikeSpectrum, _check_rank, ratios_from_dims

FIGURE_PRESET = {"p": 500, "q": 1000, "n": 5000, "spikes": [0.8, 0.7, 0.6, 0.16, 0.15]}

_FORMATS = ("json", "csv")  # the first is the default


def default_detect_margin(n: int) -> float:
    """Detection margin above the bulk edge: max(0.02, 2 n^{-2/3}).

    The n^{-2/3} term matches the scale of edge fluctuations; the floor keeps
    small runs sane.
    """
    return max(0.02, 2.0 * float(n) ** (-2.0 / 3.0))


@dataclass(frozen=True)
class ExperimentConfig(ModelConfig):
    """A run's design and detection rule: the model's fields, then the run's parameters.

    ``top_m=None`` resolves to min(10, p, q) and ``detect_margin=None`` to
    :func:`default_detect_margin` of n.  ``d_right`` is the design's bulk edge
    and ``threshold`` = d_right + detect_margin the outlier threshold.
    """

    replicates: int = 1
    top_m: int | None = None
    detect_margin: float | None = None
    outputs: tuple[str, ...] = _FORMATS[:1]
    d_right: float = field(init=False, repr=False, compare=False)
    threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not (type(self.replicates) is int and self.replicates >= 1):
            raise ConfigurationError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        dim = min(self.p, self.q)
        top_m = min(10, dim) if self.top_m is None else self.top_m
        if not (type(top_m) is int and 1 <= top_m <= dim):
            raise ConfigurationError(
                f"top_m must be an integer in [1, min(p, q)] = [1, {dim}], got {top_m!r}"
            )
        object.__setattr__(self, "top_m", top_m)
        margin = default_detect_margin(self.n) if self.detect_margin is None else self.detect_margin
        if isinstance(margin, bool) or not (isinstance(margin, (int, float)) and 0 < margin < math.inf):
            raise ConfigurationError(f"detect_margin must be a positive finite number, got {margin!r}")
        object.__setattr__(self, "detect_margin", float(margin))
        outputs = self.outputs
        if not (isinstance(outputs, (list, tuple)) and outputs
                and all(fmt in _FORMATS for fmt in outputs)):
            raise ConfigurationError(f"outputs must list one or more of {_FORMATS}, got {outputs!r}")
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "d_right", rmt.wachter_edges(self.ratios).d_right)
        object.__setattr__(self, "threshold", self.d_right + self.detect_margin)


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
    config: ExperimentConfig, index: int
) -> tuple[sampler.JointFactor, np.ndarray]:
    """One replicate under the derived per-replicate stream: its joint factor and top eigenvalues.

    ``sampler.sample_factor`` streams the pair into the factor, so X and Y are never held,
    and picks the construction from the spectrum; both are drawn and transformed alike.
    """
    factor = sampler.sample_factor(config, sampler.replicate_rng(config.seed, index))
    report = cca.squared_canonical_correlations(factor)
    return factor, report.lambdas[:config.top_m]


def _outliers(lambdas: np.ndarray, config: ExperimentConfig) -> list[tuple[int, float]]:
    """(rank, eigenvalue) of every eigenvalue above the run's detection threshold."""
    return [(rank, float(lam)) for rank, lam in enumerate(lambdas) if lam > config.threshold]


def _estimates_for(lambdas: np.ndarray, config: ExperimentConfig) -> list[dict]:
    return [
        {"rank": rank, "lambda": lam, "r_hat": rmt.gamma_inverse(lam, config.ratios)}
        for rank, lam in _outliers(lambdas, config)
    ]


def _payload_header(config: ExperimentConfig) -> tuple[dict, dict]:
    """The config echo and the theory block of a run."""
    # every config key but outputs, which only picks the payload's format
    echo = {key: getattr(config, key) for key in _KEYS if key != "outputs"}
    echo["spikes"] = list(config.spikes.r)
    return echo, theory_block(config.ratios, config.spikes)


def simulate_run(config: ExperimentConfig) -> dict:
    """Run the Monte Carlo experiment and assemble its payload.

    The payload holds per-replicate eigenvalues, aggregates, theory and plot
    data; the theory block depends only on the dimension ratios and spikes,
    never on the random draws.  Row i depends only on replicate i's stream.
    """
    echo, theory = _payload_header(config)
    top_matrix = np.vstack([run_replicate(config, i)[1] for i in range(config.replicates)])
    replicate_rows = [
        {
            "index": i,
            "top": [float(v) for v in top_matrix[i]],
            "estimates": _estimates_for(top_matrix[i], config),
        }
        for i in range(config.replicates)
    ]
    ddof = 1 if config.replicates > 1 else 0
    return {
        "config": echo,
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
                "detect_threshold": config.threshold,
                "gamma": [row["gamma"] for row in theory["spikes"] if row["gamma"] is not None],
            },
        },
    }


def estimate_run(X: np.ndarray, Y: np.ndarray, detect_margin: float | None) -> dict:
    """Estimate spikes from data matrices (rows are variables, columns samples)."""
    pair = sampler.DataPair(X=X, Y=Y)
    design = ExperimentConfig(pair.p, pair.q, pair.n, SpikeSpectrum(()), detect_margin=detect_margin)
    report = cca.squared_canonical_correlations(pair)
    outliers = _estimates_for(report.lambdas, design)
    n_out = len(outliers)
    return {
        "p": pair.p,
        "q": pair.q,
        "n": pair.n,
        "c1_hat": design.ratios.c1,
        "c2_hat": design.ratios.c2,
        "d_right": design.d_right,
        "detect_margin": design.detect_margin,
        "outliers": outliers,
        "bulk": [float(v) for v in report.lambdas[n_out:]],
    }


def _verify_replicate(config: ExperimentConfig, index: int, z: float) -> dict:
    """One replicate's row of the verify payload.

    The joint factor and its oracle live only in this call, so a run holds
    one replicate's working set at a time.
    """
    factor, top = run_replicate(config, index)
    oracle = detverify.DeterminantOracle(factor)
    outliers = [
        {"lambda": lam, "normalized_det": oracle.normalized_det(lam)}
        for _, lam in _outliers(top, config)
    ]
    return {
        "index": index,
        "outliers": outliers,
        "mn_max_abs_diff": oracle.mn_comparison(z),
    }


def verify_run(config: ExperimentConfig) -> dict:
    """Certify detected outliers against the finite-sample determinant.

    For each replicate the normalized determinant is evaluated at every
    detected outlier (it should vanish), and the reduced matrix M_n is
    compared entrywise with its limit at the probe point z = (d_right + 1) / 2.
    """
    if config.spikes.k < 1:
        raise ConfigurationError("verification needs at least one spike")
    if 1.0 in config.spikes.r:
        raise UnsupportedModelError("verify: a unit spike r = 1 has no finite strength t to certify")
    echo, theory = _payload_header(config)
    z = (config.d_right + 1.0) / 2.0
    rows = [_verify_replicate(config, index, z) for index in range(config.replicates)]
    residuals = [abs(o["normalized_det"]) for row in rows for o in row["outliers"]]
    return {
        "config": echo,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error: exit 1
        raise ConfigurationError(message)


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

    The file is UTF-8 text; a byte-order mark and blank lines are dropped.
    The lines go to numpy as they are read, so the file's text is never held.
    A first line none of whose comma-separated fields is a number is a
    header; any other first line is data, so a malformed field there is an
    error, not a header.

    Labels are never data: a first row or first column of 3 or more entries
    that reads exactly 0, 1, …, m−1 or 1, …, m (a pandas index header or
    label column) is refused, a real variable or sample of that form too.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = (line for line in handle if line.strip())
            first = next(lines, "")
            for tok in first.split(","):
                with contextlib.suppress(ValueError):
                    float(tok)
                    break  # a numeric field: the first line is data
            else:  # no numeric field: a header
                first = next(lines, "")
            if first:
                matrix = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2, comments=None)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"matrix file {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"malformed matrix file {path}: {exc}") from exc
    if not first:
        raise ConfigurationError(f"matrix file {path} holds no data")
    for where, labels in (("first row", matrix[0]), ("first column", matrix[:, 0])):
        start = labels[0]
        if labels.size >= 3 and start in (0, 1) and np.array_equal(labels, start + np.arange(labels.size)):
            raise ConfigurationError(
                f"matrix file {path} reads as labelled: its {where} counts {start:g}, {start + 1:g}, ...;"
                " write the file without labels"
            )
    return matrix


# The config keys are the init fields of the config type, the model's first.
# Only the keys given reach it, so its defaults are the only ones.
_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.init)


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigurationError(f"could not parse config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
    nulls = [key for key, value in data.items() if value is None]
    if nulls:
        raise ConfigurationError(f"config keys {nulls} are null: null is not a value")
    return data


def resolve_experiment(args) -> ExperimentConfig:
    """Merge config file values, the preset and CLI flags (flags win) into a config."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    if getattr(args, "preset", None) == "figure1":
        for key, val in FIGURE_PRESET.items():
            values.setdefault(key, val)
    for key in _KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    if getattr(args, "format", None):
        values["outputs"] = [args.format]
    missing = [key for key in ("p", "q", "n") if key not in values]
    if missing:
        raise ConfigurationError(f"missing required dimensions {missing}")
    spikes = values.get("spikes", [])
    values["spikes"] = SpikeSpectrum(_parse_spikes(spikes) if isinstance(spikes, str) else spikes)
    config = ExperimentConfig(**values)
    if len(config.outputs) > 1 and getattr(args, "out", None) is None:
        raise ConfigurationError(f"outputs {list(config.outputs)} need --out: stdout takes one format")
    return config


def build_parser() -> _Parser:
    parser = _Parser(prog="spikecca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    limits = sub.add_parser("limits", help="print the deterministic limit quantities")
    limits.add_argument("--c1", type=float)
    limits.add_argument("--c2", type=float)
    simulate = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    estimate = sub.add_parser("estimate", help="estimate spikes from data files")
    estimate.add_argument("--x", required=True, help="CSV matrix for the first vector")
    estimate.add_argument("--y", required=True, help="CSV matrix for the second vector")
    verify = sub.add_parser("verify", help="certify outliers with the determinant oracle")
    # each flag once, on every command that takes it, in help order; a config
    # key's flag has the key as its dest
    for p in (simulate, verify):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", choices=["figure1"], help="named parameter preset")
    for p in (limits, simulate, verify):
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--spikes", help="comma separated spike list")
    for p in (simulate, verify):
        p.add_argument("--seed", type=int)
        p.add_argument("--replicates", type=int)
        p.add_argument("--top-m", dest="top_m", type=int)
    for p in (simulate, estimate, verify):
        p.add_argument("--detect-margin", dest="detect_margin", type=float)
    for p in (limits, simulate, estimate, verify):
        p.add_argument("--out", help="write results to this path instead of stdout")
        p.add_argument("--format", choices=_FORMATS, help="output format (default json)")
    return parser


def _cmd_limits(args) -> dict:
    spikes = SpikeSpectrum(_parse_spikes(args.spikes or ""))
    ratios, dims = (args.c1, args.c2), (args.p, args.q, args.n)
    if None not in ratios and dims == (None, None, None):
        return theory_block(DimensionRatios(*ratios), spikes)
    if None not in dims and ratios == (None, None):
        design = ratios_from_dims(*dims)
        _check_rank(spikes.k, args.p, args.q)
        return theory_block(design, spikes)
    raise ConfigurationError("provide --c1 and --c2, or --p, --q and --n, but not both")


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit code."""
    try:
        args = build_parser().parse_args(argv)  # before the pin: --help pins nothing
        with blas.single_thread():
            outputs = (args.format or _FORMATS[0],)
            if args.command == "limits":
                payload = _cmd_limits(args)
            elif args.command == "estimate":
                payload = estimate_run(load_matrix(args.x), load_matrix(args.y), args.detect_margin)
            else:
                config = resolve_experiment(args)
                payload = (simulate_run if args.command == "simulate" else verify_run)(config)
                outputs = config.outputs
            emit(payload, outputs, args.out)
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except SpikeCcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
