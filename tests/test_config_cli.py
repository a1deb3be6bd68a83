import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nmbath import cli, config as cfgmod, qops
from nmbath.config import ConfigError

from helpers import normalize

TWO_STATE_CFG = """\
# two-state dephasing run
ensemble.type = two_state
ensemble.p_up = 0.5
ensemble.gamma_up = 2.0
ensemble.gamma_down = 1.0
grid.t_max = 6.0
grid.steps = 200
solver.methods = ensemble,volterra
solver.seed = 7
solver.trajectories = 2000
"""

MANIFOLD_CFG = """\
ensemble.type = manifold
ensemble.gamma = 1.0
ensemble.a = 0.25
ensemble.b = 0.5
ensemble.n = 400
fitpow.window_lo = 5.0
fitpow.window_hi = 500.0
"""


COMMANDS = ("kernel", "evolve", "correlate", "cpcheck", "fitpow")
CUSTOM_RATES_CFG = "ensemble.type = custom\nensemble.rates = {}\nensemble.weights = 0.5,0.5\n"
P_UP_CFG = "ensemble.type = two_state\nensemble.p_up = {}\n"
MANIFOLD_ABN_CFG = ("ensemble.type = manifold\nensemble.gamma = 1.0\nensemble.a = {}\n"
                    "ensemble.b = {}\nensemble.n = {}\n")
OVERFLOW_RATES_CFG = CUSTOM_RATES_CFG.format("1e200,1")
H_MATRIX_3X3_CFG = (P_UP_CFG.format(0.5) + "model.hamiltonian = matrix\n"
                    "model.h_matrix = 1,0,0;0,0,0;0,0,-1\nmodel.picture = schroedinger\n")
# qutrit decay |2> -> |1> -> |0>: every solver takes it, correlate only two-level models
QUTRIT_CFG = (H_MATRIX_3X3_CFG + "model.jumps = matrix\n"
              "model.jump_matrices = 0,1,0;0,0,1;0,0,0\n")

# 1/sqrt(2) to 16 digits: sigma_z / sqrt(2) and I / sqrt(2) in config matrices
HALF = "0.7071067811865476"
PRECESSION_MODEL_CFG = ("model.omega = 1.3\nmodel.jumps = matrix\nmodel.jump_matrices = 0,1;1,0\n"
                        "model.picture = schroedinger\n")

MC_PROBE_CFG = "solver.methods = mc_frozen\nsolver.trajectories = 300000000\ngrid.steps = 10\n"
FITPOW_WINDOW_CFG = "fitpow.window_lo = {}\nfitpow.window_hi = {}\n"
S_MATRIX_CFG = P_UP_CFG.format(0.5) + "correlate.s_operator = matrix\ncorrelate.s_matrix = {}\n"
JUMP_MATRICES_CFG = P_UP_CFG.format(0.5) + "model.jumps = matrix\nmodel.jump_matrices = {}\n"
FRACTIONAL_CFG = ("ensemble.type = fractional\nensemble.alpha = 0.5\n"
                  "ensemble.mean_rate = {}\nensemble.beta = 1.0\nensemble.tau = {}\n")

STEPS_READERS = ("kernel", "evolve", "cpcheck")
T_MAX_READERS = ("kernel", "evolve", "correlate", "cpcheck")
MODEL_READERS = ("evolve", "correlate", "cpcheck")

# hostile but parseable configs: (config, {command: required exit code}); every
# other command may end in any documented exit code
HOSTILE = {
    "zero_rates": (CUSTOM_RATES_CFG.format("0,0"), dict.fromkeys(COMMANDS, 2)),
    # a rate of 0 has no kernel pole; the solvers need none
    "one_zero_rate": (CUSTOM_RATES_CFG.format("0,1"), {"fitpow": 0, "evolve": 0, "cpcheck": 0}),
    "p_up_0": (P_UP_CFG.format(0), {}),
    "p_up_1": (P_UP_CFG.format(1), {}),
    "manifold_n_1": (MANIFOLD_ABN_CFG.format(0.3, 0.4, 1), {}),
    "manifold_b_0": (MANIFOLD_ABN_CFG.format(0.3, 0.0, 5), {}),
    "steps_1": (P_UP_CFG.format(0.5) + "grid.steps = 1\n", {}),
    "t_max_tiny": (P_UP_CFG.format(0.5) + "grid.t_max = 1e-9\n", {}),
    "t_max_huge": (P_UP_CFG.format(0.5) + "grid.t_max = 1e6\n", {}),
    "interaction_sigma_x": (P_UP_CFG.format(0.5) + "model.jumps = matrix\n"
                            "model.jump_matrices = 0,1;1,0\n",
                            {"evolve": 2, "correlate": 2, "cpcheck": 2}),
    "manifold_n_20": (MANIFOLD_ABN_CFG.format(0.1, 0.1, 20),
                      {"kernel": 0, "evolve": 0, "cpcheck": 0}),
    # 879 levels after the merge: on the CLI's one BLAS thread, eigvalsh (good
    # to about eps * gamma_max) puts a slow pole outside its interval; the
    # short grid keeps the solvers' 879-level step maps cheap
    "manifold_n1000_slow_poles": (MANIFOLD_ABN_CFG.format(0.05, 0.02, 1000)
                                  + "grid.t_max = 0.001\ngrid.steps = 2\n", {"kernel": 3}),
    "h_matrix_3x3": (H_MATRIX_3X3_CFG, {"evolve": 2, "correlate": 2, "cpcheck": 2}),
    # rates whose moments overflow double precision: the kernel analytics
    # refuse them, the solvers take them
    "rates_1e200": (OVERFLOW_RATES_CFG, {"kernel": 3, "evolve": 0, "cpcheck": 0}),
    # alpha = a/b < 0 lies outside the power-law regime
    "manifold_b_minus_1": (MANIFOLD_ABN_CFG.format(0.01, -1, 400), dict.fromkeys(COMMANDS, 2)),
    # grid and solver fields: counts are integers >= 1, times finite and > 0
    "steps_0": (P_UP_CFG.format(0.5) + "grid.steps = 0\n", dict.fromkeys(STEPS_READERS, 2)),
    "steps_2_5": (P_UP_CFG.format(0.5) + "grid.steps = 2.5\n", dict.fromkeys(STEPS_READERS, 2)),
    "t_max_nan": (P_UP_CFG.format(0.5) + "grid.t_max = nan\n", dict.fromkeys(T_MAX_READERS, 2)),
    "t_max_inf": (P_UP_CFG.format(0.5) + "grid.t_max = inf\n", dict.fromkeys(T_MAX_READERS, 2)),
    "trajectories_0": (P_UP_CFG.format(0.5) + "solver.trajectories = 0\n", {"evolve": 2}),
    # fitpow window: finite and > 0, lo < hi, and at least the fit's 10 samples
    "window_lo_x": (P_UP_CFG.format(0.5) + "fitpow.window_lo = x\n", {"fitpow": 2}),
    "window_hi_minus_1": (P_UP_CFG.format(0.5) + "fitpow.window_hi = -1\n", {"fitpow": 2}),
    "window_lo_above_hi": (P_UP_CFG.format(0.5) + FITPOW_WINDOW_CFG.format(50, 5), {"fitpow": 2}),
    "window_lo_nan": (P_UP_CFG.format(0.5) + "fitpow.window_lo = nan\n", {"fitpow": 2}),
    "fitpow_points_2": (P_UP_CFG.format(0.5) + "fitpow.points = 2\n", {"fitpow": 2}),
    # ensemble parameters are finite; only ensemble.tau = inf, the pure power law, is not
    "manifold_a_nan": (MANIFOLD_ABN_CFG.format("nan", 0.4, 5), dict.fromkeys(COMMANDS, 2)),
    "manifold_b_inf": (MANIFOLD_ABN_CFG.format(0.3, "inf", 5), dict.fromkeys(COMMANDS, 2)),
    "rates_nan": (CUSTOM_RATES_CFG.format("nan,1"), dict.fromkeys(COMMANDS, 2)),
    "gamma_up_inf": (P_UP_CFG.format(0.5) + "ensemble.gamma_up = inf\n",
                     dict.fromkeys(COMMANDS, 2)),
    "fractional_mean_rate_nan": (FRACTIONAL_CFG.format("nan", 5.0), dict.fromkeys(COMMANDS, 2)),
    "fractional_tau_nan": (FRACTIONAL_CFG.format(1.0, "nan"), dict.fromkeys(COMMANDS, 2)),
    "fractional_tau_minus_inf": (FRACTIONAL_CFG.format(1.0, "-inf"), dict.fromkeys(COMMANDS, 2)),
    "fractional_tau_inf": (FRACTIONAL_CFG.format(1.0, "inf"),
                           {"kernel": 0, "fitpow": 0, "evolve": 2, "correlate": 2,
                            "cpcheck": 2}),
    # matrix fields: finite entries, S the model's size, normalized jumps for mc_*
    "s_matrix_nan": (S_MATRIX_CFG.format("1,0;0,nan"), {"correlate": 2}),
    "s_matrix_3x3": (S_MATRIX_CFG.format("1,0,0;0,1,0;0,0,1"), {"correlate": 2}),
    "h_matrix_inf": (P_UP_CFG.format(0.5) + "model.hamiltonian = matrix\n"
                     "model.h_matrix = 1,0;0,inf\nmodel.picture = schroedinger\n",
                     dict.fromkeys(MODEL_READERS, 2)),
    "jump_matrices_nan": (JUMP_MATRICES_CFG.format("nan,0;0,1"), dict.fromkeys(MODEL_READERS, 2)),
    "omega_nan": (P_UP_CFG.format(0.5) + "model.omega = nan\n", dict.fromkeys(MODEL_READERS, 2)),
    "unnormalized_jumps_mc": (JUMP_MATRICES_CFG.format("0,1;0,0") + "solver.methods = mc_frozen\n",
                              {"evolve": 2, "cpcheck": 0}),
    "qutrit_decay": (QUTRIT_CFG, {"evolve": 0, "correlate": 2}),
    # t_max times the largest rate overflows the bound on the sampler's rounds
    "mc_rate_t_max_overflow": (P_UP_CFG.format(0.5) + "ensemble.gamma_up = 1e300\n"
                               "ensemble.gamma_down = 1\ngrid.t_max = 1e10\ngrid.steps = 10\n"
                               "solver.methods = mc_frozen\nsolver.trajectories = 10\n",
                               {"evolve": 3}),
    # about 1e12 events per fast trajectory: refused before any is drawn
    "mc_sampler_unbounded": (P_UP_CFG.format(0.5) + "ensemble.gamma_up = 1e12\n"
                             "grid.t_max = 1\nsolver.methods = mc_frozen\n", {"evolve": 2}),
    # one trajectory, but a million sampler rounds: a run counts as 1e4 trajectories
    "mc_one_busy_trajectory": (P_UP_CFG.format(1) + "ensemble.gamma_up = 1e6\n"
                               "grid.t_max = 1\nsolver.methods = mc_frozen\n"
                               "solver.trajectories = 1\n", {"evolve": 2}),
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfigParsing:
    def test_parse_and_defaults(self):
        raw = cfgmod.parse_config(TWO_STATE_CFG)
        cfg = cfgmod.resolve(raw)
        assert cfg["ensemble.type"] == "two_state"
        assert cfg["grid.tau_max"] == "5.0"
        assert cfg["model.jumps"] == "dephasing"

    def test_round_trip(self):
        cfg = cfgmod.resolve(cfgmod.parse_config(TWO_STATE_CFG))
        again = cfgmod.resolve(cfgmod.parse_config(normalize(cfg)))
        assert cfg == again

    def test_line_diagnostics(self):
        with pytest.raises(ConfigError, match="line 2"):
            cfgmod.parse_config("a.b = 1\nnonsense\n")
        with pytest.raises(ConfigError, match="duplicate"):
            cfgmod.parse_config("a.b = 1\na.b = 2\n")
        with pytest.raises(ConfigError, match="section"):
            cfgmod.parse_config("傻 = 1\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="not recognized"):
            cfgmod.resolve({"ensemble.type": "two_state", "ensemble.bogus": "1"})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="required"):
            cfgmod.resolve({"ensemble.type": "manifold"})

    def test_build_two_state(self):
        cfg = cfgmod.resolve(cfgmod.parse_config(TWO_STATE_CFG))
        ens = cfgmod.build_ensemble(cfg)
        assert np.allclose(ens.rates, [2.0, 1.0])

    def test_hamiltonian_size_must_match_jumps(self):
        cfg = cfgmod.resolve(cfgmod.parse_config(H_MATRIX_3X3_CFG))
        with pytest.raises(ConfigError, match="model.h_matrix: the Hamiltonian is 3x3"):
            cfgmod.build_model(cfg)

    def test_build_custom_and_matrix_model(self):
        text = (
            "ensemble.type = custom\n"
            "ensemble.rates = 1.0,3.0\n"
            "ensemble.weights = 0.25,0.75\n"
            "model.hamiltonian = matrix\n"
            "model.h_matrix = 0,0.5;0.5,0\n"
            "model.jumps = matrix\n"
            "model.jump_matrices = 0,1;1,0\n"
            "model.picture = schroedinger\n"
        )
        cfg = cfgmod.resolve(cfgmod.parse_config(text))
        model = cfgmod.build_model(cfg)
        assert np.allclose(model.hamiltonian, 0.5 * np.array([[0, 1], [1, 0]]))
        assert len(model.jumps) == 1

    def test_fractional_restricted_to_kernel_flows(self):
        text = "ensemble.type = fractional\nensemble.alpha = 0.5\n" \
               "ensemble.mean_rate = 1.0\nensemble.beta = 1.0\nensemble.tau = inf\n"
        cfg = cfgmod.resolve(cfgmod.parse_config(text))
        with pytest.raises(ConfigError, match="finite ensemble"):
            cfgmod.build_model(cfg)

    def test_grid_and_solver_fields_name_their_key(self):
        cfg = cfgmod.resolve({"ensemble.type": "two_state", "grid.steps": "0",
                              "grid.tau_max": "nan", "solver.seed": "1.5"})
        with pytest.raises(ConfigError, match="grid.steps"):
            cfgmod.count(cfg, "grid.steps")
        with pytest.raises(ConfigError, match="grid.tau_max"):
            cfgmod.duration(cfg, "grid.tau_max")
        with pytest.raises(ConfigError, match="solver.seed"):
            cfgmod.seed(cfg)
        assert cfgmod.count(cfg, "grid.tau_steps") == 25

    @pytest.mark.parametrize("fields,key", [
        ({"fitpow.window_lo": "x"}, "fitpow.window_lo"),
        ({"fitpow.window_hi": "-1"}, "fitpow.window_hi"),
        ({"fitpow.window_lo": "nan"}, "fitpow.window_lo"),
        ({"fitpow.window_lo": "50", "fitpow.window_hi": "5"}, "fitpow.window_lo"),
        ({"fitpow.points": "2"}, "fitpow.points"),
    ])
    def test_fitpow_fields_name_their_key(self, fields, key):
        cfg = cfgmod.resolve({"ensemble.type": "two_state", **fields})
        with pytest.raises(ConfigError, match=key):
            cfgmod.fit_grid(cfg, (1.0, 20.0))

    @pytest.mark.parametrize("lo", [0.3, 123.0])
    def test_fitpow_window_must_hold_ten_samples(self, lo):
        # on a window one ulp wide, rounding puts some log-spaced times outside it
        hi = float(np.nextafter(lo, np.inf))
        cfg = cfgmod.resolve({"ensemble.type": "two_state", "fitpow.points": "10",
                              **dict(zip(("fitpow.window_lo", "fitpow.window_hi"),
                                         (repr(lo), repr(hi))))})
        t = np.geomspace(lo, hi, 10)
        if np.count_nonzero((t >= lo) & (t <= hi)) < 10:
            with pytest.raises(ConfigError, match="fitpow.window_lo.*selects"):
                cfgmod.fit_grid(cfg, (1.0, 20.0))
        else:
            assert np.array_equal(cfgmod.fit_grid(cfg, (1.0, 20.0))[2], t)

    def test_fitpow_window_defaults(self):
        cfg = cfgmod.resolve({"ensemble.type": "two_state", "fitpow.window_hi": "inf"})
        with pytest.raises(ConfigError, match="fitpow.window_hi"):
            cfgmod.fit_grid(cfg, (1.0, 20.0))
        cfg = cfgmod.resolve({"ensemble.type": "two_state"})
        lo, hi, t = cfgmod.fit_grid(cfg, (1.0, 20.0))
        assert (lo, hi) == (1.0, 20.0) and np.array_equal(t, np.geomspace(1.0, 20.0, 200))

    @pytest.mark.parametrize("text,key", [
        (MANIFOLD_ABN_CFG.format("nan", 0.4, 5), "ensemble.a"),
        (MANIFOLD_ABN_CFG.format(0.3, "inf", 5), "ensemble.b"),
        (CUSTOM_RATES_CFG.format("nan,1"), "ensemble.rates"),
        (CUSTOM_RATES_CFG.format("1,x"), "ensemble.rates"),
        (P_UP_CFG.format(0.5) + "ensemble.gamma_up = inf\n", "ensemble.gamma_up"),
        (FRACTIONAL_CFG.format("nan", 5.0), "ensemble.mean_rate"),
        (FRACTIONAL_CFG.format(1.0, "-inf"), "ensemble.tau"),
    ], ids=["a_nan", "b_inf", "rates_nan", "rates_x", "gamma_up_inf", "mean_rate_nan",
            "tau_minus_inf"])
    def test_ensemble_fields_name_their_key(self, text, key):
        cfg = cfgmod.resolve(cfgmod.parse_config(text))
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            cfgmod.build_ensemble(cfg)

    @pytest.mark.parametrize("name,command,key", [
        ("s_matrix_nan", "correlate", "correlate.s_matrix"),
        ("s_matrix_3x3", "correlate", "correlate.s_matrix"),
        ("h_matrix_inf", "evolve", "model.h_matrix"),
        ("jump_matrices_nan", "cpcheck", "model.jump_matrices"),
        ("omega_nan", "correlate", "model.omega"),
        ("unnormalized_jumps_mc", "evolve", "model.jump_matrices"),
        ("qutrit_decay", "correlate", "model.h_matrix"),
        ("qutrit_decay", "correlate", "model.jump_matrices"),
    ])
    def test_matrix_fields_name_their_key(self, tmp_path, capsys, name, command, key):
        cfg = write_cfg(tmp_path, HOSTILE[name][0])
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err and err.count("\n") == 1

    def test_solver_methods_parse(self):
        cfg = cfgmod.resolve({"ensemble.type": "two_state", "solver.methods": ""})
        assert cfgmod.solver_methods(cfg) == []
        with pytest.raises(ConfigError, match="unknown solver"):
            cfgmod.solver_methods(
                cfgmod.resolve({"ensemble.type": "two_state", "solver.methods": "euler"}))


class TestKernelCommand:
    def test_two_state_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, TWO_STATE_CFG)
        out = str(tmp_path / "out")
        assert run_cli("kernel", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "kernel_summary.json"))
        assert abs(summary["mean_rate"] - 1.5) < 1e-12
        assert abs(summary["beta"] - 1.0 / 6.0) < 1e-12
        assert abs(summary["eta"] - 1.5) < 1e-12
        assert abs(summary["kernel_poles"][0] + 1.5) < 1e-10
        assert summary["f_limits"]["short_time_rel_error"] < 1e-6
        with open(os.path.join(out, "kernel_series.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "w", "p0", "f", "k_reg"]

    def test_single_rate_markov(self, tmp_path):
        text = "ensemble.type = custom\nensemble.rates = 1.3\nensemble.weights = 1.0\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("kernel", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "kernel_summary.json"))
        assert summary["kernel_poles"] == []
        assert abs(summary["markov_weight"] - 1.3) < 1e-12

    def test_manifold_alpha(self, tmp_path):
        cfg = write_cfg(tmp_path, MANIFOLD_CFG)
        out = str(tmp_path / "out")
        assert run_cli("kernel", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "kernel_summary.json"))
        assert abs(summary["alpha"] - 0.5) < 1e-12

    def test_manifold_with_negligible_slow_levels(self, tmp_path):
        # weights down to 1e-43: the secular route deflates the slow levels
        cfg = write_cfg(tmp_path, MANIFOLD_ABN_CFG.format(0.5, 0.1, 200))
        out = str(tmp_path / "out")
        assert run_cli("kernel", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "kernel_summary.json"))
        assert len(summary["kernel_poles"]) < len(summary["rates"]) - 1
        assert summary["f_limits"]["short_time_rel_error"] < 1e-10

    def test_fractional_kernel(self, tmp_path):
        text = "ensemble.type = fractional\nensemble.alpha = 0.5\n" \
               "ensemble.mean_rate = 1.0\nensemble.beta = 1.0\nensemble.tau = inf\n" \
               "grid.steps = 50\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("kernel", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "kernel_summary.json"))
        assert summary["model"] == "fractional"
        assert summary["cutoff"] == 0.0


class TestEvolveCommand:
    def test_cross_residuals(self, tmp_path):
        cfg = write_cfg(tmp_path, TWO_STATE_CFG)
        out = str(tmp_path / "out")
        assert run_cli("evolve", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "evolve_summary.json"))
        assert summary["cross_residuals"]["ensemble_vs_volterra"] < 1e-6

    def test_mc_stderr_columns_and_scaling(self, tmp_path):
        text = TWO_STATE_CFG.replace("ensemble,volterra", "ensemble,mc_frozen")
        cfg = write_cfg(tmp_path, text)
        out1 = str(tmp_path / "o1")
        out4 = str(tmp_path / "o4")
        assert run_cli("evolve", "--config", cfg, "--out", out1) == 0
        assert run_cli("evolve", "--config", cfg, "--out", out4,
                       "--trajectories", "8000") == 0
        with open(os.path.join(out1, "evolve_mc_frozen.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert "se_01" in header
        se_col = header.index("se_01")
        a = np.loadtxt(os.path.join(out1, "evolve_mc_frozen.csv"), delimiter=",",
                       skiprows=1, usecols=se_col)
        b = np.loadtxt(os.path.join(out4, "evolve_mc_frozen.csv"), delimiter=",",
                       skiprows=1, usecols=se_col)
        mask = a > 1e-4
        ratio = np.median(b[mask] / a[mask])
        assert 0.4 < ratio < 0.6

    def test_mc_z_scores_use_converged_reference(self, tmp_path):
        # mc_renewal converges to volterra, which did not run: no score for it
        text = TWO_STATE_CFG.replace("ensemble,volterra", "ensemble,mc_frozen,mc_renewal")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("evolve", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "evolve_summary.json"))
        assert set(summary["mc_max_z"]) == {"mc_frozen"}

    @pytest.mark.parametrize("model_cfg", ["", PRECESSION_MODEL_CFG],
                             ids=["dephasing", "precession"])
    def test_each_superoperator_built_once(self, tmp_path, monkeypatch, model_cfg):
        calls = {"lindblad_dissipator": 0, "jump_superoperator": 0}
        for name in calls:
            def spy(*args, _real=getattr(qops, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(qops, name, spy)
        text = TWO_STATE_CFG.replace("ensemble,volterra", "ensemble,volterra,mc_frozen,mc_renewal")
        cfg = write_cfg(tmp_path, text.replace("grid.steps = 200", "grid.steps = 20") + model_cfg)
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        assert calls == {"lindblad_dissipator": 1, "jump_superoperator": 1}

    @pytest.mark.parametrize("model_cfg", [
        # sigma_+- jumps: each coherence is a set of one frequency, which one event takes to 0
        "model.jump_matrices = 0,1;0,0|0,0;1,0\n",
        # a qutrit ladder with a cyclic-shift jump: {rho_01, rho_12, rho_20} precess
        "model.hamiltonian = matrix\nmodel.h_matrix = 0,0,0;0,1,0;0,0,2\n"
        "model.jump_matrices = 0,0,1;1,0,0;0,1,0\n",
    ], ids=["sigma_pm", "qutrit_cyclic"])
    def test_solver_triangle_on_split_sets(self, tmp_path, model_cfg):
        # the Monte Carlo moments of sets of one frequency come from the count
        # histogram, of the rest from event rounds; each unraveling still meets
        # the solver that it converges to
        text = TWO_STATE_CFG.replace("ensemble,volterra", "ensemble,volterra,mc_frozen,mc_renewal")
        cfg = write_cfg(tmp_path, text + "model.jumps = matrix\nmodel.picture = schroedinger\n"
                        + model_cfg)
        out = str(tmp_path / "out")
        assert run_cli("evolve", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "evolve_summary.json"))
        assert set(summary["mc_max_z"]) == {"mc_frozen", "mc_renewal"}
        assert max(summary["mc_max_z"].values()) < 4.0

    def test_empty_solver_list_is_noop(self, tmp_path, capsys):
        text = TWO_STATE_CFG.replace("ensemble,volterra", "")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("evolve", "--config", cfg, "--out", out) == 0
        assert "nothing to do" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "evolve_summary.json"))


class TestCorrelateCommand:
    def test_markov_residual_below_tolerance(self, tmp_path):
        text = "ensemble.type = custom\nensemble.rates = 1.5\nensemble.weights = 1.0\n" \
               "grid.t_max = 4.0\ngrid.corr_t_steps = 8\ngrid.tau_max = 3.0\n" \
               "grid.tau_steps = 12\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("correlate", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "correlate_summary.json"))
        assert summary["max_abs_residual"] < 1e-10

    def test_two_rate_h_value(self, tmp_path):
        text = "ensemble.type = custom\nensemble.rates = 1.0,2.0\n" \
               "ensemble.weights = 0.5,0.5\ngrid.t_max = 2.0\ngrid.corr_t_steps = 2\n" \
               "grid.tau_max = 2.0\ngrid.tau_steps = 2\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("correlate", "--config", cfg, "--out", out) == 0
        rows = np.loadtxt(os.path.join(out, "correlate_surface.csv"), delimiter=",",
                          skiprows=1)
        with open(os.path.join(out, "correlate_surface.csv")) as fh:
            header = fh.readline().strip().split(",")
        t_col = header.index("t")
        tau_col = header.index("tau")
        re_col = header.index("residual_sx_re")
        im_col = header.index("residual_sx_im")
        sel = (np.abs(rows[:, t_col] - 1.0) < 1e-12) & (np.abs(rows[:, tau_col] - 1.0) < 1e-12)
        row = rows[sel][0]
        magnitude = abs(complex(row[re_col], row[im_col]))
        assert abs(magnitude - 0.013520) < 1e-6
        summary = load_json(os.path.join(out, "correlate_summary.json"))
        assert summary["dephasing_closed_form_max_error"] < 1e-8

    @pytest.mark.parametrize("model_cfg,closed_form", [
        (f"model.jumps = matrix\nmodel.jump_matrices = {HALF},0;0,-{HALF}\n", True),
        (f"model.jumps = matrix\nmodel.jump_matrices = {HALF},0;0,{HALF} | {HALF},0;0,-{HALF}\n",
         True),
        ("model.picture = schroedinger\nmodel.omega = 0\n", True),
        ("model.picture = schroedinger\nmodel.omega = 1.3\n", False),
    ], ids=["one_jump", "swapped_pair", "schroedinger_omega_0", "schroedinger_omega_1.3"])
    def test_closed_form_follows_the_generator(self, tmp_path, model_cfg, closed_form):
        # the closed form holds whenever L_H = 0 and L is the dephasing dissipator
        text = "ensemble.type = custom\nensemble.rates = 1.0,2.0\n" \
               "ensemble.weights = 0.5,0.5\ngrid.t_max = 2.0\ngrid.corr_t_steps = 4\n" \
               "grid.tau_max = 2.0\ngrid.tau_steps = 4\n" + model_cfg
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("correlate", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "correlate_summary.json"))
        assert ("dephasing_closed_form_max_error" in summary) == closed_form
        if closed_form:
            assert summary["dephasing_closed_form_max_error"] < 1e-8

    def test_asymptotic_validity_flag(self, tmp_path):
        text = "ensemble.type = custom\nensemble.rates = 1.0,2.0\n" \
               "ensemble.weights = 0.5,0.5\ngrid.t_max = 14.0\ngrid.corr_t_steps = 7\n" \
               "grid.tau_max = 3.0\ngrid.tau_steps = 10\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("correlate", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "correlate_summary.json"))
        assert summary["asymptotically_valid"] is True


class TestCpcheckFitpowCommands:
    def test_cpcheck_dephasing(self, tmp_path):
        cfg = write_cfg(tmp_path, TWO_STATE_CFG.replace("grid.steps = 200",
                                                        "grid.steps = 50"))
        out = str(tmp_path / "out")
        assert run_cli("cpcheck", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "cpcheck_summary.json"))
        for solver in ("ensemble", "volterra"):
            assert summary["solvers"][solver]["completely_positive"] is True

    def test_fitpow_manifold(self, tmp_path):
        cfg = write_cfg(tmp_path, MANIFOLD_CFG)
        out = str(tmp_path / "out")
        assert run_cli("fitpow", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "fitpow_summary.json"))
        assert abs(summary["slope"] + 1.5) < 0.1
        assert summary["r_squared"] >= 0.999
        assert summary["rejected"] is False

    def test_fitpow_single_rate_rejected(self, tmp_path):
        text = "ensemble.type = custom\nensemble.rates = 1.0\nensemble.weights = 1.0\n" \
               "fitpow.window_lo = 1.0\nfitpow.window_hi = 10.0\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert run_cli("fitpow", "--config", cfg, "--out", out) == 0
        summary = load_json(os.path.join(out, "fitpow_summary.json"))
        assert summary["rejected"] is True


class TestCliContract:
    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "garbage line\n")
        assert run_cli("kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_code_2_on_bad_values(self, tmp_path):
        cfg = write_cfg(tmp_path, "ensemble.type = custom\nensemble.rates = 1.0\n"
                                  "ensemble.weights = 0.5\n")
        assert run_cli("kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_exit_code_3_on_solver_error(self, tmp_path, capsys):
        # t_max times the largest rate overflows
        cfg = write_cfg(tmp_path, OVERFLOW_RATES_CFG + "grid.t_max = 1e300\n")
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o")) == 3
        assert "runtime error" in capsys.readouterr().err

    @staticmethod
    def run_capped(tmp_path, command, cfg_text):
        """The command in a child that caps its own address space at 1.5 GB before
        numpy loads, so a run that asks for GBs never goes without the cap."""
        cfg = write_cfg(tmp_path, cfg_text)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
                f"from nmbath import cli\nsys.exit(cli.main({argv!r}))\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)

    @pytest.mark.parametrize("command,cfg_text,exit_code", [
        # 2e8 grid times would need 1.6 GB: above the output-cell budget
        ("evolve", "grid.steps = 200000000\n", 2),
        # 3e8 trajectories need 2.4 GB of stream state; with the default t_max
        # of 13.3 they would draw up to 8e9 events, above the event budget
        ("evolve", MC_PROBE_CFG, 2),
        # at t_max = 1 they pass the event budget, and the MemoryError exits 3
        ("evolve", MC_PROBE_CFG + "grid.t_max = 1\n", 3),
        # a 1e5 x 1e5 correlator surface: above the output-cell budget
        ("correlate", "grid.corr_t_steps = 100000\ngrid.tau_steps = 100000\n", 2),
        # 3e8 fitpow times would need 2.2 GiB: above the output-cell budget
        ("fitpow", "fitpow.points = 300000000\n", 2),
    ], ids=["evolve_steps", "mc_trajectories_budget", "mc_trajectories", "correlate_steps",
            "fitpow_points"])
    def test_memory_probes_end_in_one_line(self, tmp_path, command, cfg_text, exit_code):
        proc = self.run_capped(tmp_path, command, P_UP_CFG.format(0.5) + cfg_text)
        assert proc.returncode == exit_code, proc.stderr
        prefix = "config error: " if exit_code == 2 else "runtime error: "
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1

    def test_event_budget_names_the_keys(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HOSTILE["mc_sampler_unbounded"][0])
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "'solver.trajectories'" in err and "'grid.t_max'" in err and "1e+16 events" in err
        # the same run with 10 trajectories may draw 1e13 events: still refused
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--trajectories", "10") == 2

    def test_consecutive_calls_share_no_arguments(self, tmp_path, monkeypatch):
        # the parser is built once per process; each call parses into a fresh namespace
        seen = []
        monkeypatch.setattr(cli, "_COMMANDS", {name: lambda args: seen.append(args) or 0
                                               for name in cli._COMMANDS})
        assert run_cli("evolve", "--config", "a.cfg", "--seed", "5", "--trajectories", "300") == 0
        assert run_cli("kernel", "--config", "b.cfg", "--out", "o") == 0
        assert run_cli("evolve", "--config", "c.cfg", "--trajectories", "7") == 0
        assert [vars(a) for a in seen] == [
            dict(command="evolve", config="a.cfg", out=None, seed=5, trajectories=300),
            dict(command="kernel", config="b.cfg", out="o", seed=None, trajectories=None),
            dict(command="evolve", config="c.cfg", out=None, seed=None, trajectories=7)]
        assert cli._parser() is cli._parser()

    def test_seed_override_changes_output(self, tmp_path):
        text = TWO_STATE_CFG.replace("ensemble,volterra", "mc_frozen")
        cfg = write_cfg(tmp_path, text)
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("evolve", "--config", cfg, "--out", o1, "--seed", "1") == 0
        assert run_cli("evolve", "--config", cfg, "--out", o2, "--seed", "2") == 0
        a = open(os.path.join(o1, "evolve_mc_frozen.csv"), "rb").read()
        b = open(os.path.join(o2, "evolve_mc_frozen.csv"), "rb").read()
        assert a != b

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_configs_end_in_documented_exit(self, tmp_path, capfd, name):
        text, required = HOSTILE[name]
        cfg = write_cfg(tmp_path, text)
        for command in COMMANDS:
            # outside pytest every warning would be one more stderr line
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(command, "--config", cfg, "--out", str(tmp_path / command))
            err = capfd.readouterr().err
            assert code == required.get(command, code) and code in (0, 2, 3), (command, err)
            assert "Traceback" not in err and err.count("\n") + len(caught) <= 1, \
                (command, err, [str(w.message) for w in caught])

    @pytest.mark.parametrize("name", ["one_zero_rate", "rates_1e200"])
    def test_volterra_equals_ensemble_without_kernel_poles(self, tmp_path, name):
        # dephasing: the effective equation's solution is the ensemble average
        cfg = write_cfg(tmp_path, HOSTILE[name][0])
        out = str(tmp_path / "out")
        assert run_cli("evolve", "--config", cfg, "--out", out) == 0
        vol, ens = (np.loadtxt(os.path.join(out, f"evolve_{m}.csv"), delimiter=",", skiprows=1)
                    for m in ("volterra", "ensemble"))
        assert vol.shape == ens.shape
        assert np.max(np.abs(vol - ens)) <= 1e-12

    def test_json_safe_keeps_sign_of_infinity(self):
        payload = {"a": -np.inf, "b": np.inf, "c": [np.float64(-np.inf)]}
        assert cli._json_safe(payload) == {"a": "-inf", "b": "inf", "c": ["-inf"]}

    @pytest.mark.parametrize("command,cfg_text", [
        ("kernel", TWO_STATE_CFG),
        ("evolve", TWO_STATE_CFG.replace("ensemble,volterra", "ensemble,mc_renewal")),
        ("correlate", TWO_STATE_CFG),
        ("cpcheck", TWO_STATE_CFG.replace("grid.steps = 200", "grid.steps = 40")),
        ("fitpow", MANIFOLD_CFG),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for out in outs:
            assert run_cli(command, "--config", cfg, "--out", out) == 0
        files = sorted(os.listdir(outs[0]))
        assert files == sorted(os.listdir(outs[1]))
        for name in files:
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, f"{command}/{name} differs between reruns"

    def test_csv_values_format_like_fstrings(self, tmp_path):
        edge = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e300, -1.25])
        z = np.empty(edge.size, dtype=complex)
        z.real, z.imag = edge, edge[::-1]
        path = tmp_path / "edge.csv"
        cli.write_csv(str(path), ["x", "z"], [edge, z])
        cols = [edge, edge, edge[::-1]]
        expected = "x,z_re,z_im\n" + "".join(
            ",".join(f"{v:.16e}" for v in row) + "\n" for row in zip(*cols))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("cells", [None, 6], ids=["default_block", "two_row_blocks"])
    @pytest.mark.parametrize("n_rows", [0, 1, 7, "past_one_block"])
    def test_csv_blocks_match_per_row_format(self, tmp_path, monkeypatch, cells, n_rows):
        if cells is not None:
            monkeypatch.setattr(cli, "CSV_CELLS", cells)
        # x, z_re, z_im: three cells per row
        if n_rows == "past_one_block":
            n_rows = cli.CSV_CELLS // 3 + 2
        edge = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0, 1e300, -1.25, 1 / 3])
        x = np.resize(edge, n_rows)
        z = np.empty(n_rows, dtype=complex)
        z.real, z.imag = x[::-1], np.roll(x, 1)
        path = tmp_path / "t.csv"
        cli.write_csv(str(path), ["x", "z"], [x, z])
        row = "%.16e,%.16e,%.16e\n"
        expected = "x,z_re,z_im\n" + "".join(row % v for v in zip(x, z.real, z.imag))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("cells", [None, 8], ids=["default_block", "two_row_blocks"])
    def test_csv_formats_each_bit_pattern(self, tmp_path, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(cli, "CSV_CELLS", cells)
        n_rows = cli.CSV_CELLS // 4 + 3
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                         0x7FF0000000000001, 0xFFF0000000000123], dtype=np.uint64)
        mixed = np.concatenate([[0.0, -0.0, -0.0, 0.0, 1 / 3, -1 / 3], nans.view(np.float64)])
        # signed zeros and NaN bit patterns side by side, a constant, integers
        # (2**53 + 1 rounds as a double) and 1/3 in every block
        x = np.resize(mixed, n_rows)
        const = np.full(n_rows, 0.5)
        count = np.arange(n_rows) + 2**53 - 3
        third = np.full(n_rows, 1 / 3)
        path = tmp_path / "t.csv"
        cli.write_csv(str(path), ["x", "c", "n", "r"], [x, const, count, third])
        row = "%.16e,%.16e,%.16e,%.16e\n"
        expected = "x,c,n,r\n" + "".join(
            row % v for v in zip(x.tolist(), const.tolist(), count.tolist(), third.tolist()))
        assert path.read_bytes() == expected.encode("utf-8")
