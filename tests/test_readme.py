"""The README's library quick start runs as written."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_library_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert not ns["L_H"].any() and np.allclose(ns["L"], ns["E"] - np.eye(4))
    # under dephasing the memory-kernel solution is the exact average
    assert np.max(np.abs(ns["exact"].states - ns["effective"].states)) < 1e-12
    assert ns["mc"].meta["route"] == "count_histogram"
    assert ns["surface"].residual.shape == (20, 20, 4) and ns["decomp"].poles.size > 0
