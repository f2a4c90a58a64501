import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from spikecca import blas  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite at one OpenBLAS thread, as the CLI runs."""
    with blas.single_thread():
        yield
