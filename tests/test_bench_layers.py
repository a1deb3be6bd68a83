"""The benchmark's tracer still finds every layer it times.

``bench/layers.py`` wraps package functions by name and binds their arguments
by parameter name.  A rename there reads as an absent layer whose metrics are
zero, not as an error, so this guard runs one traced ``evolve`` per route,
one traced ``cpcheck``, ``correlate`` and ``fitpow``, and one traced ``kernel``
per ensemble kind.
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
MANIFOLD_CPCHECK_CFG = """\
ensemble.type = manifold
ensemble.gamma = 1.0
ensemble.a = 0.2
ensemble.b = 0.3
ensemble.n = 20
grid.steps = 40
solver.methods = ensemble,volterra
"""
FRACTIONAL_KERNEL_CFG = """\
ensemble.type = fractional
ensemble.alpha = 0.5
ensemble.mean_rate = 1.0
ensemble.beta = 1.3
ensemble.tau = 12.0
grid.steps = 40
"""


def traced(command, cfg_text, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


@pytest.mark.parametrize("text", [PRECESSION_CFG, EVOLVE_CFG], ids=["precession", "dephasing"])
def test_tracer_sees_every_layer(tmp_path, text):
    tracer = traced("evolve", text, tmp_path)
    assert tracer.absent == []
    assert tracer.counts["traj_steps"] > 0 and tracer.counts["events"] > 0


def test_tracer_sees_cpcheck_layers(tmp_path):
    tracer = traced("cpcheck", MANIFOLD_CPCHECK_CFG, tmp_path)
    assert tracer.absent == []
    assert tracer.counts["dynamics.volterra_sweep.calls"] == 1
    # the mode count comes from the last kernel decomposition, which cpcheck no longer makes
    assert "volterra_mode_steps" in tracer.counts and tracer.counts["choi_maps"] == 2 * 41


def test_manifold_kernel_decomposes_twice(tmp_path):
    # once for the kernel modes, once inside the one sprinkling call for f(0) and f(t)
    tracer = traced("kernel", MANIFOLD_CPCHECK_CFG, tmp_path)
    assert tracer.absent == []
    assert tracer.counts["ratebath.kernel_decompose.calls"] == 2


def test_fractional_kernel_inverts_once(tmp_path):
    # w, P0, f and K - <gamma> on one contour: a (4, n_t) result
    tracer = traced("kernel", FRACTIONAL_KERNEL_CFG, tmp_path)
    assert tracer.absent == []
    assert tracer.counts["ratebath.talbot_invert.calls"] == 1
    assert tracer.counts["talbot_points"] == 4 * 40


def test_tracer_sees_correlate_layers(tmp_path):
    tracer = traced("correlate", EVOLVE_CFG, tmp_path)
    assert tracer.absent == []
    assert tracer.counts["qrt.qrt_residual.calls"] == 1


def test_tracer_sees_fitpow_layers(tmp_path):
    # the fit reads the waiting-time density alone: no regression residual
    tracer = traced("fitpow", MANIFOLD_CPCHECK_CFG, tmp_path)
    assert tracer.absent == []
    assert "qrt.qrt_residual.calls" not in tracer.counts
    assert tracer.counts["cli.write_csv.calls"] == 1
