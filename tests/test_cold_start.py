"""A fresh interpreter, as every CLI call starts one.

In-process tests cannot show these: pytest has already imported scipy
through ``tests/helpers.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# sigma_x jumps with precession at the exceptional point gamma = omega, where
# the one rate's eigenvector matrix is singular
EXCEPTIONAL_POINT_CFG = """\
ensemble.type = custom
ensemble.rates = 0.5
ensemble.weights = 1.0
model.omega = 0.5
model.jumps = matrix
model.jump_matrices = 0,1;1,0
model.picture = schroedinger
grid.t_max = 5.0
grid.steps = 50
solver.methods = ensemble
"""


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_loads_no_scipy():
    proc = run_python("-c", "import sys, nmbath.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_format_table_costs_the_import_nothing(tmp_path):
    # the CSV formatter builds its power-of-ten table from exact integers on
    # the first write: not at import, and without fractions or decimal
    path = tmp_path / "x.csv"
    proc = run_python("-c", "import sys, nmbath.cli as cli; built = [cli._FMT_TABLES is not None]; "
                      f"cli.write_csv({str(path)!r}, ['x'], [[0.1, -2.5e-300]]); "
                      "built.append(cli._FMT_TABLES is not None); "
                      "print(built, sorted(m for m in sys.modules if m in ('fractions', 'decimal')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, True] []"
    assert path.read_text() == "x\n1.0000000000000001e-01\n-2.5000000000000000e-300\n"


def test_exceptional_point_evolve_loads_no_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXCEPTIONAL_POINT_CFG)
    out = tmp_path / "out"
    argv = ["evolve", "--config", str(cfg), "--out", str(out)]
    proc = run_python("-c", f"import sys; from nmbath import cli; code = cli.main({argv!r}); "
                      "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    summary = json.loads((out / "evolve_summary.json").read_text())
    assert "meta" not in summary
