import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import spikecca
from spikecca import (
    ConfigurationError,
    ModelConfig,
    SpikeSpectrum,
    cca,
    detverify,
    sample_coupled,
    sampler,
)
from spikecca.cli import (
    ExperimentConfig,
    default_detect_margin,
    estimate_run,
    flatten_payload,
    load_matrix,
    main,
    payload_to_csv,
    payload_to_json,
    run_replicate,
    simulate_run,
    theory_block,
    verify_run,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(tmp_path, pair, header=False):
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    for path, mat in ((x_path, pair.X), (y_path, pair.Y)):
        lines = []
        if header:
            lines.append(",".join(f"s{j}" for j in range(mat.shape[1])))
        lines += [",".join(repr(float(v)) for v in row) for row in mat]
        path.write_text("\n".join(lines) + "\n")
    return str(x_path), str(y_path)


# -- limits -----------------------------------------------------------------------


def test_limits_figure_preset_values(capsys):
    code, out, _ = run_cli(
        capsys,
        ["limits", "--c1", "0.1", "--c2", "0.2", "--spikes", "0.8,0.7,0.6,0.16,0.15"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d_right"] == pytest.approx(0.5, abs=1e-12)
    assert payload["r_c"] == pytest.approx(1 / 6, abs=1e-12)
    gammas = [row["gamma"] for row in payload["spikes"][:3]]
    assert gammas == pytest.approx([0.861, 0.7925714285714286, 0.7253333333333333], abs=1e-10)
    assert [row["supercritical"] for row in payload["spikes"]] == [True] * 3 + [False] * 2
    assert payload["spikes"][3]["limit"] == payload["d_right"]


def test_limits_edges_only(capsys):
    code, out, _ = run_cli(capsys, ["limits", "--p", "100", "--q", "200", "--n", "1000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["spikes"] == []
    assert payload["d_left"] == pytest.approx(0.02, abs=1e-12)


@pytest.mark.parametrize(
    "argv", [["--p", "5", "--q", "5", "--n", "100"], ["--c1", "0.3", "--c2", "0.3"]]
)
def test_limits_left_edge_exactly_zero_at_p_equal_q(capsys, argv):
    code, out, _ = run_cli(capsys, ["limits", *argv])
    assert code == 0
    assert '"d_left": 0.0' in out


def test_limits_tiny_ratio_exits_one(capsys):
    # c1 c2 would underflow to 0 and print r_c = 0
    code, out, err = run_cli(capsys, ["limits", "--c1", "1e-200", "--c2", "1e-200"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_limits_unit_spike_flagged_deterministic(capsys):
    code, out, _ = run_cli(capsys, ["limits", "--c1", "0.1", "--c2", "0.2", "--spikes", "1.0"])
    assert code == 0
    row = json.loads(out)["spikes"][0]
    assert row["deterministic"] is True
    assert row["gamma"] == 1.0


@pytest.mark.parametrize("command", ["limits", "simulate"])
def test_more_spikes_than_min_dimension_exit_one(capsys, command):
    # limits checks the model's rank against given dimensions with simulate's own line
    spikes = ",".join(["0.9"] * 6)
    code, out, err = run_cli(capsys, [command, "--p", "5", "--q", "5", "--n", "100", "--spikes", spikes])
    assert (code, out) == (1, "")
    assert err == "error: violated k <= min(p, q): k = 6, min(p, q) = 5\n"


@pytest.mark.parametrize(
    "argv, k",
    [
        # --c1/--c2 carry no p or q to check the spike count against
        (["--c1", "0.1", "--c2", "0.2", "--spikes", ",".join(["0.9"] * 6)], 6),
        # limits never samples, so numpy's array limit, which simulate enforces, does not apply
        (["--p", "536870912", "--q", "536870913", "--n", "1073741826"], 0),
    ],
    ids=["ratios_unchecked_rank", "unindexable_dimensions"],
)
def test_limits_checks_only_what_it_is_given(capsys, argv, k):
    code, out, err = run_cli(capsys, ["limits", *argv])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["spikes"]) == k


def test_limits_requires_ratios(capsys):
    # one design, both ratios or all three dimensions: none of a mixed or
    # partial one is dropped (the first mixed input gave c1 = 0.1 and no rank check)
    six = ",".join(["0.9"] * 6)
    for argv in (
        ["limits", "--spikes", "0.5"],
        ["limits", "--c1", "0.1"],
        ["limits", "--c1", "0.1", "--c2", "0.2", "--p", "5", "--q", "5", "--n", "100", "--spikes", six],
        ["limits", "--c1", "0.1", "--c2", "0.2", "--n", "100"],
        ["limits", "--c1", "0.1", "--p", "5", "--q", "5", "--n", "100"],
        ["limits", "--p", "5", "--q", "5"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: provide --c1 and --c2, or --p, --q and --n, but not both\n"


# -- simulate ----------------------------------------------------------------------


def simulate_args(extra=()):
    base = [
        "simulate",
        "--p", "30", "--q", "60", "--n", "300",
        "--spikes", "0.8",
        "--seed", "5",
        "--replicates", "3",
        "--top-m", "4",
    ]
    return base + list(extra)


def test_simulate_payload_schema(capsys):
    code, out, _ = run_cli(capsys, simulate_args())
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "theory", "replicates", "aggregate", "plot"}
    assert len(payload["replicates"]) == 3
    assert len(payload["replicates"][0]["top"]) == 4
    assert len(payload["aggregate"]["mean_top"]) == 4
    assert payload["config"]["detect_margin"] == default_detect_margin(300)
    # the strong spike is detected and inverted in every replicate
    for row in payload["replicates"]:
        assert row["estimates"], row
        assert row["estimates"][0]["rank"] == 0
        assert 0.6 < row["estimates"][0]["r_hat"] < 0.95


def test_simulate_deterministic_output_bytes(capsys):
    _, first, _ = run_cli(capsys, simulate_args())
    _, second, _ = run_cli(capsys, simulate_args())
    assert first == second


def test_simulate_theory_block_independent_of_seed(capsys):
    _, out_a, _ = run_cli(capsys, simulate_args())
    code, out_b, _ = run_cli(
        capsys,
        ["simulate", "--p", "30", "--q", "60", "--n", "300", "--spikes", "0.8",
         "--seed", "99", "--replicates", "1"],
    )
    assert code == 0
    assert json.loads(out_a)["theory"] == json.loads(out_b)["theory"]


def test_simulate_csv_and_json_carry_identical_numbers(tmp_path, capsys):
    out_base = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "p": 30, "q": 60, "n": 300, "spikes": [0.8, 0.1], "seed": 5,
                "replicates": 2, "top_m": 3, "outputs": ["json", "csv"],
            }
        )
    )
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_base)])
    assert code == 0
    payload = json.loads((tmp_path / "run.json").read_text())
    csv_lines = (tmp_path / "run.csv").read_text().strip().splitlines()[1:]
    flat = flatten_payload(payload)
    assert len(csv_lines) == len(flat)
    for line, (key, value) in zip(csv_lines, flat):
        got_key, got_value = line.split(",", 1)
        assert got_key == key
        if isinstance(value, float):
            assert float(got_value) == value
        if value is None:
            assert got_value == ""
    # the subcritical spike (r_c = 1/6) has no gamma: JSON null, an empty CSV cell
    assert "theory.spikes.1.gamma," in csv_lines
    # number-for-number identity also via the renderer
    assert payload_to_csv(payload) == (tmp_path / "run.csv").read_text()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_several_outputs_need_out(tmp_path, monkeypatch, capsys, command):
    # stdout takes one format; the rest would be dropped without a word
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting the outputs")

    monkeypatch.setattr(sampler, "sample_factor", no_sampling)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"p": 30, "q": 60, "n": 300, "spikes": [0.8], "outputs": ["csv", "json"]})
    )
    code, out, err = run_cli(capsys, [command, "--config", str(cfg_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--out" in err


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "p": 30, "q": 60, "n": 300, "spikes": [0.8], "seed": 5, "replicates": 1,
        "top_m": 4, "detect_margin": 0.5, "outputs": ["json"],
    }))
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--config", str(cfg_path), "--p", "20", "--q", "40", "--n", "250",
         "--spikes", "0.7,0.2", "--seed", "6", "--replicates", "2", "--top-m", "3",
         "--detect-margin", "0.25", "--format", "csv"],
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    echo = {key[len("config."):]: value for key, value in rows.items() if key.startswith("config.")}
    assert echo == {
        "p": "20", "q": "40", "n": "250", "spikes.0": "0.7", "spikes.1": "0.2", "seed": "6",
        "replicates": "2", "top_m": "3", "detect_margin": "0.25",
    }


def test_config_file_sets_every_key(tmp_path):
    from spikecca.cli import build_parser, resolve_experiment

    keys = {
        "p": 20, "q": 40, "n": 250, "spikes": [0.7, 0.2], "seed": 6, "replicates": 2,
        "top_m": 3, "detect_margin": 0.25, "outputs": ["csv", "json"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(keys))
    args = build_parser().parse_args(["simulate", "--config", str(cfg_path), "--out", "run"])
    config = resolve_experiment(args)
    assert (config.p, config.q, config.n, list(config.spikes.r), config.seed) == (20, 40, 250, [0.7, 0.2], 6)
    assert (config.replicates, config.top_m, config.detect_margin) == (2, 3, 0.25)
    assert config.outputs == ("csv", "json")


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"p": 30, "q": 60, "n": 300, "bogus": 1}))
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize(
    "bad",
    [
        {"p": "abc"}, {"replicates": "two"}, {"top_m": None}, {"spikes": 0.8},
        {"detect_margin": "x"}, {"p": 30.7}, {"seed": 1.9}, {"spikes": ["a"]},
        {"spikes": {"0.8": 1}}, {"spikes": ["0.8"]},
        {"replicates": True}, {"detect_margin": True}, {"outputs": 5}, {"outputs": []},
        {"detect_margin": None}, {"seed": None},
    ],
    ids=json.dumps,
)
def test_simulate_rejects_malformed_config_value(tmp_path, capsys, bad):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"p": 30, "q": 60, "n": 300, "spikes": [0.8], **bad}))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 1
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("margin", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "verify", "estimate"])
def test_detect_margin_must_be_positive_finite(tmp_path, capsys, command, margin):
    if command == "estimate":
        cfg = ModelConfig(p=20, q=30, n=200, spikes=SpikeSpectrum((0.8,)), seed=3)
        x_path, y_path = write_pair(tmp_path, sample_coupled(cfg))
        argv = ["estimate", "--x", x_path, "--y", y_path]
    else:
        argv = [command, "--p", "20", "--q", "30", "--n", "200", "--spikes", "0.8"]
    code, out, err = run_cli(capsys, argv + ["--detect-margin", margin])
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_simulate_invalid_dimensions_exit_one(capsys):
    code, _, _ = run_cli(
        capsys, ["simulate", "--p", "300", "--q", "60", "--n", "300", "--spikes", "0.8"]
    )
    assert code == 1


def test_simulate_oversized_dimension_exit_one_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an unindexable matrix")

    monkeypatch.setattr(sampler, "sample_factor", no_sampling)
    # the second keeps max(p, q) * n * 8 within the limit but not (p + q) * n * 8
    for p, q, n in ((1, 1, 10**20), (536870912, 536870913, 1073741826)):
        code, out, err = run_cli(capsys, ["simulate", "--p", str(p), "--q", str(q), "--n", str(n)])
        assert code == 1
        assert err.startswith("error:") and "array limit" in err and out == ""


def test_out_of_memory_exit_three(monkeypatch, capsys):
    # a stand-in for a failed allocation: a real oversized one may succeed
    # under overcommit and then be killed
    def no_memory(config, rng):
        raise MemoryError(f"Unable to allocate a {config.p}x{config.n} array")

    monkeypatch.setattr(sampler, "sample_factor", no_memory)
    code, out, err = run_cli(capsys, simulate_args())
    assert code == 3
    assert err == "out of memory: Unable to allocate a 30x300 array\n" and out == ""


def test_simulate_unit_spike_deterministic_top(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--p", "20", "--q", "30", "--n", "200", "--spikes", "1.0,0.5",
         "--seed", "4", "--replicates", "2", "--top-m", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    for row in payload["replicates"]:
        assert row["top"][0] == pytest.approx(1.0, abs=1e-10)
        assert row["estimates"][0]["r_hat"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_aggregation_is_order_insensitive():
    # row i is replicate i's stream alone, whatever runs before it
    config = ExperimentConfig(
        p=30, q=60, n=300, spikes=SpikeSpectrum((0.8,)), seed=5, replicates=4, top_m=3
    )
    payload = simulate_run(config)
    for i in (3, 0):
        alone = [float(v) for v in run_replicate(config, i)[1]]
        assert payload["replicates"][i]["top"] == alone


def test_figure_preset_fills_dimensions():
    from spikecca.cli import build_parser, resolve_experiment

    args = build_parser().parse_args(["simulate", "--preset", "figure1", "--replicates", "2"])
    config = resolve_experiment(args)
    assert (config.p, config.q, config.n) == (500, 1000, 5000)
    assert config.spikes.r == (0.8, 0.7, 0.6, 0.16, 0.15)
    assert config.replicates == 2


def test_experiment_config_default_top_m_fits_small_dimensions():
    model = dict(p=8, q=30, n=200, spikes=SpikeSpectrum((0.5,)))
    assert ExperimentConfig(**model).top_m == 8
    assert ExperimentConfig(**model, top_m=None).top_m == 8


def test_experiment_config_validation():
    model = dict(p=30, q=60, n=300, spikes=SpikeSpectrum((0.8,)), seed=5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**model, replicates=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**model, top_m=31)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**model, outputs=("xml",))


# -- estimate ----------------------------------------------------------------------


def test_estimate_recovers_spike(tmp_path, capsys):
    cfg = ModelConfig(p=100, q=200, n=1000, spikes=SpikeSpectrum((0.8,)), seed=13)
    x_path, y_path = write_pair(tmp_path, sample_coupled(cfg))
    code, out, _ = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["c1_hat"] == 0.1
    assert payload["c2_hat"] == 0.2
    assert len(payload["outliers"]) == 1
    assert payload["outliers"][0]["r_hat"] == pytest.approx(0.8, abs=0.08)
    assert len(payload["bulk"]) == 99


def test_estimate_handles_header_rows(tmp_path, capsys):
    cfg = ModelConfig(p=20, q=30, n=200, spikes=SpikeSpectrum((0.8,)), seed=3)
    x_path, y_path = write_pair(tmp_path, sample_coupled(cfg), header=True)
    code, out, _ = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 0
    assert json.loads(out)["p"] == 20


def test_estimate_null_data_empty_table(tmp_path, capsys):
    cfg = ModelConfig(p=40, q=60, n=500, spikes=SpikeSpectrum(()), seed=21)
    x_path, y_path = write_pair(tmp_path, sample_coupled(cfg))
    code, out, _ = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["outliers"] == []
    assert len(payload["bulk"]) == 40


def test_estimate_duplicated_row_gives_unit_estimate(tmp_path, capsys):
    cfg = ModelConfig(p=20, q=30, n=200, spikes=SpikeSpectrum(()), seed=8)
    pair = sample_coupled(cfg)
    X = np.array(pair.X)
    Y = np.array(pair.Y)
    Y[0] = X[0]
    x_path, y_path = write_pair(tmp_path, type(pair)(X=X, Y=Y))
    code, out, _ = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["outliers"][0]["r_hat"] > 0.999


def test_estimate_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, ["estimate", "--x", "/nonexistent/x.csv", "--y", "/nonexistent/y.csv"])
    assert code == 2


def test_estimate_singular_data_exit_three(tmp_path, capsys):
    cfg = ModelConfig(p=20, q=30, n=200, spikes=SpikeSpectrum(()), seed=8)
    pair = sample_coupled(cfg)
    X = np.array(pair.X)
    X[1] = X[0]
    x_path, y_path = write_pair(tmp_path, type(pair)(X=X, Y=pair.Y))
    code, _, err = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 3
    assert "singular" in err.lower()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_non_finite_entry_exit_one(tmp_path, capsys, bad):
    cfg = ModelConfig(p=20, q=30, n=400, spikes=SpikeSpectrum(()), seed=8)
    pair = sample_coupled(cfg)
    Y = np.array(pair.Y)
    Y[3, 7] = bad
    x_path, y_path = write_pair(tmp_path, SimpleNamespace(X=pair.X, Y=Y))
    code, _, err = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 1
    assert err.startswith("error:") and "finite" in err


def test_lapack_failure_exit_three(monkeypatch, capsys):
    def failing(pair):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cca, "squared_canonical_correlations", failing)
    code, _, err = run_cli(capsys, simulate_args())
    assert code == 3
    assert "SVD did not converge" in err


def test_estimate_drops_a_byte_order_mark(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((20, 400)), rng.standard_normal((30, 400))
    X[0] += 2 * Y[0]
    x_path, y_path = write_pair(tmp_path, SimpleNamespace(X=X, Y=Y))
    plain = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    bom_path = tmp_path / "x_bom.csv"
    bom_path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "x.csv").read_bytes())
    marked = run_cli(capsys, ["estimate", "--x", str(bom_path), "--y", y_path])
    assert marked == plain
    assert plain[0] == 0 and json.loads(plain[1])["p"] == 20


@pytest.mark.parametrize("kind", ["matrix", "config", "matrix_first_row", "config_nested", "matrix_late"])
def test_undecodable_input_exit_one(tmp_path, capsys, kind):
    path = tmp_path / "input"
    if kind.startswith("matrix"):
        # a first row with a numeric field is data, not a header to drop; a bad
        # byte past the first read buffer surfaces while numpy parses the lines
        text = {
            "matrix": b"\xff\xfe1,2\n3,4\n",
            "matrix_first_row": b"1,2.o,3\n4,5,6\n",
            "matrix_late": b"1,2\n" * 5000 + b"3,\xff\n",
        }[kind]
        path.write_bytes(text)
        argv = ["estimate", "--x", str(path), "--y", str(path)]
    else:
        # nesting past the recursion limit makes json raise RecursionError
        nested = b'{"spikes": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        path.write_bytes(nested if kind == "config_nested" else b'{"p": 5\xff}')
        argv = ["simulate", "--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err
    if kind in ("matrix", "matrix_late"):
        assert "not UTF-8" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--p", "10", "--q", "20", "--n", "100", "--spikes", "0.5,"], "spike list"),
        (["simulate", "--config", "{config}"], "must hold a JSON object"),
        (["simulate", "--seed", "1"], "missing required dimensions"),
    ],
    ids=["trailing-comma-spikes", "config-not-an-object", "no-dimensions"],
)
def test_usage_errors_exit_one(tmp_path, capsys, argv, message):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    argv = [arg.format(config=config) for arg in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_estimate_rejects_p_plus_q_at_least_n_before_folding(tmp_path, monkeypatch, capsys):
    def no_fold(*args, **kwargs):
        raise AssertionError("folded a pair with p + q >= n")

    monkeypatch.setattr(sampler, "_fold", no_fold)
    rng = np.random.default_rng(1)
    pair = SimpleNamespace(X=rng.standard_normal((30, 60)), Y=rng.standard_normal((40, 60)))
    x_path, y_path = write_pair(tmp_path, pair)
    code, out, err = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "p + q < n" in err


def test_load_matrix_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    # ragged, non-numeric, digit separator, header only, empty, blank lines only
    for text in ("1,2,3\n4,5\n", "1,2\n3,x\n", "1,2\n3,4_0\n", "s0,s1\n", "", "\n \n"):
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(str(path))):
            load_matrix(str(path))


def test_load_matrix_drops_blank_lines(tmp_path):
    # bare np.loadtxt raises on a whitespace-only line between rows
    path = tmp_path / "blank.csv"
    path.write_text("1,2\n  \n3,4\n")
    assert np.array_equal(load_matrix(str(path)), [[1, 2], [3, 4]])


@pytest.mark.parametrize("header", [False, True])
def test_load_matrix_never_holds_the_text(tmp_path, header):
    # the lines go to numpy as they are read: holding them all first peaked
    # at 3.8 times the array
    matrix = np.random.default_rng(4).standard_normal((200, 2000))
    path = tmp_path / "big.csv"
    names = ",".join(f"s{j}" for j in range(2000)) if header else ""
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=names, comments="")
    tracemalloc.start()
    try:
        loaded = load_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, matrix)
    assert peak <= 2 * loaded.nbytes


@pytest.mark.parametrize(
    "text, labelled",
    [
        ("0,1,2\n5,6,7\n", True),
        ("1,2,3\n5,6,7\n", True),
        ("0.0,1.0,2.0\n5,6,7\n", True),
        ("id,a,b\n1,5,6\n2,7,8\n3,9,9\n", True),  # a text header, then a label column
        ("0,5\n1,6\n", False),  # a 2-entry ramp is ordinary binary data
        ("0,1\n1,0\n", False),
        ("0,1,3\n5,6,7\n", False),
    ],
)
def test_load_matrix_refuses_labels(tmp_path, text, labelled):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    if labelled:
        with pytest.raises(ConfigurationError, match=re.escape(str(path)) + ".*without labels"):
            load_matrix(str(path))
    else:
        load_matrix(str(path))


@pytest.mark.parametrize("layout", ["plain", "index_header", "label_column", "later_ramps"])
def test_estimate_refuses_labelled_files(tmp_path, capsys, layout):
    # pandas' to_csv(index=False) writes a header 0, 1, …, n-1 and
    # to_csv(header=False) leads each row with its label: read as data, both
    # gave a confident false outlier (lambda = 1.0 and 0.836)
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((20, 400)), rng.standard_normal((30, 400))
    paths = []
    for name, mat in (("x", X), ("y", Y)):
        written, header = mat, ""
        if layout == "index_header":
            header = ",".join(map(str, range(mat.shape[1])))
        elif layout == "label_column":
            written = np.column_stack([np.arange(mat.shape[0]), mat])
        elif layout == "later_ramps":  # a ramp only in a later row and a later column is data
            written = mat.copy()
            written[1] = np.arange(mat.shape[1])
            written[:, 1] = np.arange(mat.shape[0])
        paths.append(tmp_path / f"{name}.csv")
        np.savetxt(paths[-1], written, fmt="%.17g", delimiter=",", header=header, comments="")
    code, out, err = run_cli(capsys, ["estimate", "--x", str(paths[0]), "--y", str(paths[1])])
    if layout in ("index_header", "label_column"):
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "without labels" in err
    else:
        assert code == 0 and err == ""
        if layout == "plain":  # the reader hands estimate the data bit for bit
            assert out == payload_to_json(estimate_run(X, Y, None))


# -- verify ------------------------------------------------------------------------


def test_verify_certifies_outliers_at_figure_scale(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--p", "100", "--q", "200", "--n", "1000",
         "--spikes", "0.8,0.7,0.6,0.16,0.15", "--seed", "23", "--replicates", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["outliers_certified"] >= 6
    assert payload["summary"]["max_normalized_det"] < 1e-6
    assert payload["probe_z"] == pytest.approx((0.5 + 1.0) / 2.0, abs=1e-12)


def test_verify_echoes_the_top_m_it_certifies(capsys):
    base = ["verify", "--p", "100", "--q", "200", "--n", "1000",
            "--spikes", "0.8,0.7,0.6", "--seed", "42"]
    for top_m, certified in ((1, 1), (10, 3)):
        code, out, _ = run_cli(capsys, base + ["--top-m", str(top_m)])
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["top_m"] == top_m
        assert payload["summary"]["outliers_certified"] == certified


def test_verify_subcritical_spikes_certify_nothing():
    payload = verify_run(ExperimentConfig(
        p=60, q=90, n=600, spikes=SpikeSpectrum((0.05,)), seed=2, replicates=2, top_m=5
    ))
    assert payload["summary"]["outliers_certified"] == 0
    assert payload["summary"]["max_normalized_det"] is None


def test_verify_holds_one_replicate_at_a_time(monkeypatch):
    # each replicate's joint factor and oracle are freed before the next one samples
    alive = []
    sample, build = sampler.sample_factor, detverify.DeterminantOracle

    def checked_sample(*args, **kwargs):
        assert all(ref() is None for ref in alive)
        factor = sample(*args, **kwargs)
        alive.append(weakref.ref(factor))
        return factor

    def recorded_oracle(factor):
        oracle = build(factor)
        alive.append(weakref.ref(oracle))
        return oracle

    monkeypatch.setattr(sampler, "sample_factor", checked_sample)
    monkeypatch.setattr(detverify, "DeterminantOracle", recorded_oracle)
    payload = verify_run(ExperimentConfig(
        p=20, q=30, n=200, spikes=SpikeSpectrum((0.8,)), seed=3, replicates=3, top_m=3
    ))
    assert len(payload["replicates"]) == 3
    assert len(alive) == 6


@pytest.mark.parametrize(
    "command, spikes",
    [("simulate", "0.8,0.5"), ("verify", "0.8,0.5"), ("simulate", "1.0,0.5")],
    ids=["simulate", "verify", "simulate_unit_spike"],
)
def test_coupled_replicates_never_hold_the_samples(monkeypatch, capsys, command, spikes):
    # each replicate, a unit-spike one too, streams its samples into the joint factor
    def no_samples(*args, **kwargs):
        raise AssertionError("built an n-length sample matrix")

    monkeypatch.setattr(sampler, "sample_coupled", no_samples)
    monkeypatch.setattr(sampler, "sample_general", no_samples)
    monkeypatch.setattr(sampler, "standard_normal_matrix", no_samples)
    monkeypatch.setattr(sampler.DataPair, "__post_init__", no_samples)
    code, out, err = run_cli(
        capsys,
        [command, "--p", "20", "--q", "30", "--n", str(sampler.CHUNK + 200),
         "--spikes", spikes, "--seed", "3", "--replicates", "2"],
    )
    assert (code, err) == (0, "")
    assert len(json.loads(out)["replicates"]) == 2


def test_verify_unit_spike_exit_one(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("verify sampled before rejecting the unit spike")

    monkeypatch.setattr(sampler, "sample_general", no_sampling)
    monkeypatch.setattr(sampler, "sample_factor", no_sampling)
    code, _, err = run_cli(
        capsys, ["verify", "--p", "20", "--q", "30", "--n", "200", "--spikes", "1.0,0.5"]
    )
    assert code == 1
    assert err.startswith("error:") and "unit spike" in err
    assert "Traceback" not in err


def test_verify_needs_a_spike(capsys):
    code, _, _ = run_cli(
        capsys, ["verify", "--p", "40", "--q", "80", "--n", "400", "--spikes", ""]
    )
    assert code == 1


# -- one detection rule across commands ------------------------------------------------


def test_estimate_and_simulate_form_one_threshold(tmp_path, capsys):
    # at one design and margin, estimate's two terms sum to simulate's threshold bit for bit
    cfg = ModelConfig(p=50, q=80, n=600, spikes=SpikeSpectrum((0.8, 0.6)), seed=7)
    x_path, y_path = write_pair(tmp_path, sample_coupled(cfg))
    code, out, _ = run_cli(capsys, ["estimate", "--x", x_path, "--y", y_path, "--detect-margin", "0.05"])
    assert code == 0
    estimate = json.loads(out)
    code, out, _ = run_cli(
        capsys, ["simulate", "--p", "50", "--q", "80", "--n", "600", "--spikes", "0.8,0.6", "--detect-margin", "0.05"]
    )
    assert code == 0
    threshold = json.loads(out)["plot"]["theory_lines"]["detect_threshold"]
    assert estimate["d_right"] + estimate["detect_margin"] == threshold
    assert estimate["outliers"]
    assert all(row["lambda"] > threshold for row in estimate["outliers"])
    assert all(lam <= threshold for lam in estimate["bulk"])


def test_verify_certifies_exactly_the_outliers_simulate_estimates(capsys):
    argv = ["--p", "50", "--q", "80", "--n", "600", "--spikes", "0.8,0.6,0.16", "--seed", "7",
            "--replicates", "3", "--detect-margin", "0.03"]
    code, out, _ = run_cli(capsys, ["simulate", *argv])
    assert code == 0
    simulated = json.loads(out)["replicates"]
    code, out, _ = run_cli(capsys, ["verify", *argv])
    assert code == 0
    verified = json.loads(out)["replicates"]
    assert len(simulated) == len(verified) == 3
    for sim_row, verify_row in zip(simulated, verified):
        lambdas = [row["lambda"] for row in verify_row["outliers"]]
        assert lambdas and lambdas == [row["lambda"] for row in sim_row["estimates"]]


# -- argument handling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["limits", "--p", "5", "--q", "5", "--n", "100"],
        ["simulate", "--p", "100", "--q", "100", "--n", "1000"],
        ["verify", "--p", "40", "--q", "40", "--n", "400", "--spikes", "0.8", "--replicates", "2"],
    ],
    ids=["limits", "simulate", "verify"],
)
def test_equal_ratios_warn_in_one_line(capsys, argv):
    # p = q is a design like any other: the run prints no warning line at all
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)
    assert err == ""


def test_unknown_flag_exit_one(capsys):
    code, _, _ = run_cli(capsys, ["simulate", "--nope", "3"])
    assert code == 1


def test_unknown_command_exit_one(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == 1


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, ["--help"])
    assert code == 0


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["simulate", "--p", "5", "--q"], 1, r"error: argument --q: expected one argument\n"),
        (["--help"], 0, ""),
        (
            ["verify", "--p", "5", "--q", "8", "--n", "20", "--spikes", "0.99999999999", "--seed", "2"],
            3,
            r"numerical failure: block 'Sxx' is numerically singular \(condition estimate \S+\)\n",
        ),
    ],
    ids=["usage", "help", "singular"],
)
def test_module_runs_main_to_its_exit_code(argv, code, err):
    # python -m spikecca.cli, as a process: its exit status and streams, not main's return value
    src = os.path.dirname(os.path.dirname(os.path.abspath(spikecca.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "spikecca.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert re.fullmatch(err, proc.stderr)
    assert proc.stdout.startswith("usage: spikecca") if code == 0 else proc.stdout == ""


def test_theory_block_matches_module_values():
    from spikecca import DimensionRatios, critical_threshold

    ratios = DimensionRatios(0.1, 0.2)
    block = theory_block(ratios, SpikeSpectrum((0.8, 0.1)))
    assert block["r_c"] == critical_threshold(ratios).r_c
    assert block["spikes"][0]["supercritical"] is True
    assert block["spikes"][1]["supercritical"] is False
