"""A fresh interpreter, as every CLI call starts one, and the BLAS threads a command runs on.

The child interpreters show what in-process tests cannot: pytest has already
imported scipy through ``tests/helpers.py``, and earlier tests' BLAS calls
may have woken OpenBLAS worker threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nmbath import cli

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

# a sweep_manifold job (seed 2222, block 0, job 56): both deterministic
# solvers on 58 levels, whose products are large enough to wake an OpenBLAS
# worker thread
MANIFOLD_CFG = """\
ensemble.type = manifold
ensemble.gamma = 1.0
ensemble.a = 0.452546
ensemble.b = 0.374786
ensemble.n = 58
model.picture = schroedinger
model.omega = 1.947686
grid.steps = 2000
solver.methods = ensemble,volterra
"""

needs_threads = pytest.mark.skipif(
    cli._blas_threads() is None or (os.cpu_count() or 1) < 2,
    reason="needs numpy's OpenBLAS and at least two cores")


def run_python(*args, **env):
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
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


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MANIFOLD_CFG)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        proc = run_python("-m", "nmbath.cli", "evolve", "--config", str(cfg), "--out", str(out),
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert list(outputs[0]) == ["evolve_ensemble.csv", "evolve_summary.json",
                                "evolve_volterra.csv"]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


@needs_threads
def test_no_blas_worker_spins_after_a_command(tmp_path):
    # an OpenBLAS worker that a product woke busy-waits after the call
    # returns (about 0.1 s of CPU); on one thread none is woken
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MANIFOLD_CFG)
    argv = ["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    proc = run_python("-c", "import resource, time; from nmbath import cli; "
                      f"code = cli.main({argv!r}); "
                      "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2]); "
                      "start = cpu(); time.sleep(0.3); print(code, cpu() - start)",
                      OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    code, spin = proc.stdout.split()
    assert code == "0"
    assert float(spin) < 0.03


@needs_threads
@pytest.mark.parametrize("fails", [False, True])
def test_main_runs_on_one_blas_thread_and_restores_the_callers(monkeypatch, fails):
    get, put = cli._blas_threads()
    seen = []

    def command(args):
        seen.append(get())
        if fails:
            raise RuntimeError("failed")
        return 0

    monkeypatch.setitem(cli._COMMANDS, "fitpow", command)
    before = get()
    try:
        put(2)
        assert cli.main(["fitpow", "--config", "unused.cfg"]) == (3 if fails else 0)
        assert seen == [1]
        assert get() == 2
    finally:
        put(before)


def test_numpys_openblas_is_found():
    # a numpy whose OpenBLAS renames its entry points would otherwise run the
    # CLI on the host's thread count without any test failing
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}")
    get, put = cli._blas_threads()
    before = get()
    try:
        put(1)
        assert get() == 1
    finally:
        put(before)
