"""The benchmark's tracer still finds every layer it times.

``bench/layers.py`` wraps package functions by name and binds their arguments
by parameter name.  A rename there reads as an absent layer whose metrics are
zero, not as an error, so this guard runs one traced ``evolve`` per route.
"""

import os
import sys

import pytest

from nmbath import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
import layers  # noqa: E402

EVOLVE_CFG = """\
ensemble.type = two_state
ensemble.p_up = 0.5
ensemble.gamma_up = 2.0
ensemble.gamma_down = 1.0
grid.t_max = 6.0
grid.steps = 30
solver.methods = ensemble,volterra,mc_frozen,mc_renewal
solver.trajectories = 500
solver.seed = 7
"""
PRECESSION_CFG = EVOLVE_CFG + """\
model.hamiltonian = sigma_z
model.omega = 1.3
model.jumps = matrix
model.jump_matrices = 0,1;1,0
model.picture = schroedinger
"""


@pytest.mark.parametrize("text", [PRECESSION_CFG, EVOLVE_CFG], ids=["precession", "dephasing"])
def test_tracer_sees_every_layer(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == []
    assert tracer.counts["traj_steps"] > 0 and tracer.counts["events"] > 0
