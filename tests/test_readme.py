import re
from pathlib import Path

import spikecca as sc

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
