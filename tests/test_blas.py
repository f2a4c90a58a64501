"""The CLI runs every loaded OpenBLAS at one thread and gives back the counts it found."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spikecca
from spikecca import blas, cca
from spikecca.cli import main

SMALL = ["simulate", "--p", "20", "--q", "30", "--n", "200", "--spikes", "0.8",
         "--seed", "3", "--replicates", "2"]
# the README example: at (100, 200, 1000) a second OpenBLAS thread moves the last bits
README = ["simulate", "--p", "100", "--q", "200", "--n", "1000", "--spikes", "0.8,0.7,0.6",
          "--seed", "42", "--replicates", "3", "--top-m", "4"]


@pytest.fixture
def controls():
    """Thread controls of the loaded OpenBLAS libraries, reset after the test."""
    found = blas.thread_controls()
    if not found or None in found:
        pytest.skip("no OpenBLAS with thread controls is loaded")
    saved = [get() for get, _ in found]
    yield found
    for (_, put), count in zip(found, saved):
        put(count)


def counts(controls):
    return [get() for get, _ in controls]


def preset(controls, values):
    for (_, put), count in zip(controls, values):
        put(count)


def spy_on_cca(monkeypatch, controls, error=None):
    """Record the thread counts each CCA call runs at; optionally raise ``error`` instead."""
    seen = []
    real = cca.squared_canonical_correlations

    def spy(pair):
        seen.append(counts(controls))
        if error is not None:
            raise error("SVD did not converge")
        return real(pair)

    monkeypatch.setattr(cca, "squared_canonical_correlations", spy)
    return seen


# success, a LAPACK failure (exit 3) and an interrupt that escapes main
@pytest.mark.parametrize(
    "error, code", [(None, 0), (np.linalg.LinAlgError, 3), (KeyboardInterrupt, None)]
)
def test_main_pins_then_restores_each_count(controls, monkeypatch, capsys, error, code):
    found = [2 if i % 2 == 0 else 1 for i in range(len(controls))]
    preset(controls, found)
    seen = spy_on_cca(monkeypatch, controls, error)
    if code is None:
        with pytest.raises(error):
            main(SMALL)
    else:
        assert main(SMALL) == code
    capsys.readouterr()
    assert seen and all(run == [1] * len(controls) for run in seen)
    assert counts(controls) == found


def test_output_does_not_depend_on_the_thread_count_found(controls, capsys):
    outputs = []
    for threads in (1, 2):
        preset(controls, [threads] * len(controls))
        assert main(README) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_no_openblas_found_leaves_counts_alone(controls, monkeypatch, capsys):
    preset(controls, [2] * len(controls))
    monkeypatch.setattr(blas, "loaded_openblas", lambda: [])
    with blas.single_thread() as pinned:
        assert pinned is False
    seen = spy_on_cca(monkeypatch, controls)
    assert main(SMALL) == 0
    capsys.readouterr()
    assert seen and all(run == [2] * len(controls) for run in seen)
    assert counts(controls) == [2] * len(controls)


def test_pinned_only_when_every_openblas_has_controls(controls, monkeypatch, tmp_path):
    with blas.single_thread() as pinned:
        assert pinned is True
    preset(controls, [2] * len(controls))
    stray = tmp_path / "libopenblas-stray.so"
    stray.write_text("not a shared library")
    found = blas.loaded_openblas()
    monkeypatch.setattr(blas, "loaded_openblas", lambda: [*found, str(stray)])
    with blas.single_thread() as pinned:
        assert pinned is False
        assert counts(controls) == [1] * len(controls)
    assert counts(controls) == [2] * len(controls)


# in a fresh process: import the package, run a CLI verify, then pin; last,
# import scipy.integrate to see whether it would have mapped another OpenBLAS
FRESH_VERIFY = """
import json, os, sys
import spikecca
from spikecca import blas
from spikecca.cli import main
code = main(["verify", "--p", "20", "--q", "30", "--n", "200", "--spikes", "0.8",
             "--seed", "3", "--out", os.devnull])
integrate_loaded = "scipy.integrate" in sys.modules
found = blas.loaded_openblas()
with blas.single_thread() as pinned:
    during = [control[0]() for control in blas.thread_controls()]
import scipy.integrate
print(json.dumps({"code": code, "integrate_loaded": integrate_loaded, "found": found,
                  "pinned": pinned, "during": during, "after": blas.loaded_openblas()}))
"""


def test_cli_pins_every_openblas_without_importing_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spikecca.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_VERIFY], env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(proc.stdout)
    assert seen["code"] == 0
    # only rmt.bulk_mass imports scipy.integrate, and no CLI command calls it
    assert seen["integrate_loaded"] is False
    if not seen["found"]:
        pytest.skip("no OpenBLAS is loaded")
    # dtpqrt and eigh keep scipy's OpenBLAS mapped, so the pin already holds it
    assert seen["found"] == seen["after"]
    assert seen["pinned"] is True and seen["during"] == [1] * len(seen["found"])
