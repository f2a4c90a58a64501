import json
import re
from pathlib import Path

import numpy as np
import pytest

import spikecca as sc
from spikecca.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\s*```python\n(.*?)```", text, re.S)
    assert block, "README has no library quick-start block"
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert abs(namespace["r_hat"] - 0.8) < 0.05
    lam = float(namespace["report"].lambdas[0])
    assert abs(sc.finite_n_det(namespace["pair"], lam)) < 1e-6


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_config_echo_follows_the_documented_keys(capsys, command):
    # the echo holds every config key but outputs, in the README's order
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Config file keys: `\{(.*?)\}`", text, re.S)
    assert listed, "README lists no config file keys"
    keys = [key.strip() for key in listed.group(1).split(",")]
    assert main([command, "--p", "20", "--q", "30", "--n", "200", "--spikes", "0.8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["config"]) == [key for key in keys if key != "outputs"]


@pytest.mark.parametrize("command", ["simulate", "verify", "estimate", "limits"])
def test_payload_fields_follow_the_documented_lists(tmp_path, capsys, command):
    # each command's top-level payload keys are the README's list, in its order
    text = README.read_text(encoding="utf-8")
    listed = re.search(rf"^- `{command}`: ((?:`\w+`,\s+)*`\w+`)", text, re.M)
    assert listed, f"README lists no payload fields for {command}"
    fields = re.findall(r"`(\w+)`", listed.group(1))
    if command == "estimate":
        pair = sc.sample_coupled(sc.ModelConfig(p=20, q=30, n=200, spikes=sc.SpikeSpectrum((0.8,))))
        argv = ["estimate"]
        for flag, matrix in (("--x", pair.X), ("--y", pair.Y)):
            path = tmp_path / f"{flag[2:]}.csv"
            np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
            argv += [flag, str(path)]
    else:
        argv = [command, "--p", "20", "--q", "30", "--n", "200", "--spikes", "0.8"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == fields
