"""Acceptance suite: the release gate, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are part of the contract; do not loosen them.
"""

import functools
import os

import numpy as np

import nmbath as nm
from nmbath import cli, dynamics, qops, qrt, ratebath
from nmbath.qops import IDENTITY_2, SIGMA_Y, SIGMA_Z

from helpers import exact_memory_superop, f_of_u, p0_of_u, single_rate_ensemble
from test_ratebath import renewal_equation_oracle

RHO_Y = 0.5 * (IDENTITY_2 + SIGMA_Y)


def random_ensemble(rng, max_n):
    n = int(rng.integers(1, max_n + 1))
    rates = np.sort(rng.uniform(0.2, 3.0, n))
    while n > 1 and np.any(np.diff(rates) < 1e-2):
        rates = np.sort(rng.uniform(0.2, 3.0, n))
    weights = rng.uniform(0.1, 1.0, n)
    weights /= weights.sum()
    return nm.rate_ensemble(rates, weights)


def random_density(rng, d=2):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def random_normalized_jumps(rng, d=2, count=2):
    block = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    q, _ = np.linalg.qr(block)
    return tuple(q[i * d:(i + 1) * d, :] for i in range(count))


def report(label):
    print(f"acceptance {label}: PASS")


def test_criterion_01_dephasing_exactness():
    rng = np.random.default_rng(101)
    for _ in range(50):
        ens = random_ensemble(rng, 8)
        st = nm.stats(ens)
        model = nm.dephasing_model(ens)
        rho0 = random_density(rng)
        tg = nm.time_grid(20.0 / st.mean_rate, 200)
        res = nm.evolve_ensemble(model, rho0, tg)
        p0 = nm.survival(ens, tg)
        assert np.max(np.abs(res.states[:, 0, 1] - rho0[0, 1] * p0)) < 1e-8
        assert np.max(np.abs(res.states[:, 0, 0] - rho0[0, 0])) < 1e-8
    report("01 dephasing exactness")


def test_criterion_02_solver_triangle():
    ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
    model = nm.dephasing_model(ens)
    rho0 = RHO_Y

    fine = nm.time_grid(6.0, 2400)
    exact_fine = nm.evolve_ensemble(model, rho0, fine)
    vol_fine = nm.evolve_volterra(model, rho0, fine)
    assert np.max(np.abs(exact_fine.states - vol_fine.states)) < 1e-6

    tg = nm.time_grid(6.0, 120)
    exact = nm.evolve_ensemble(model, rho0, tg)
    halving = []
    for scheme in ("frozen_rate", "renewal"):
        mc = nm.mc_trajectories(model, rho0, tg, nm.MCConfig(100000, 2024, scheme))
        assert np.all(np.abs(mc.states - exact.states) <= 3.0 * mc.stderr + 1e-8), scheme
        quarter = nm.mc_trajectories(model, rho0, tg, nm.MCConfig(25000, 2024, scheme))
        mask = quarter.stderr > 1e-4
        halving.append(np.median(mc.stderr[mask] / quarter.stderr[mask]))
    assert all(0.45 < r < 0.55 for r in halving), halving
    report("02 solver triangle")


def test_criterion_03_complete_positivity():
    rng = np.random.default_rng(103)
    for _ in range(20):
        H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H = 0.5 * (H + H.conj().T)
        model = nm.ModelSpec(H, random_normalized_jumps(rng),
                             random_ensemble(rng, 4), "schroedinger")
        st = nm.stats(model.ensemble)
        tg = nm.time_grid(10.0 / st.mean_rate, 50)
        maps = dynamics.ensemble_propagator_series(model, tg)
        mins = np.array([qops.choi_min_eigenvalue(m) for m in maps])
        assert np.min(mins) >= -1e-8
    report("03 complete positivity")


def test_criterion_04_kernel_algebra():
    rng = np.random.default_rng(104)
    for _ in range(20):
        ens = random_ensemble(rng, 6)
        dec = nm.kernel_decompose(ens)
        u = np.linspace(0.1, 10.0, 50) * nm.stats(ens).mean_rate
        exact = ratebath.w_of_u(ens, u) / p0_of_u(ens, u)
        assert np.max(np.abs(dec.of_u(u) - exact)) < 1e-8

    for _ in range(100):
        p = rng.uniform(0.05, 0.95)
        g_up, g_down = np.sort(rng.uniform(0.2, 4.0, 2))[::-1]
        if g_up - g_down < 1e-2:
            g_up = g_down + 1.0
        ens = nm.two_state_ensemble(p, g_up, g_down)
        st = nm.stats(ens)
        dec = nm.kernel_decompose(ens)
        assert abs(dec.poles[0] + st.eta) < 1e-10
        assert abs(dec.amplitudes[0] + st.mean_rate * st.fluctuation_rate) < 1e-10
        assert abs(st.eta * (1.0 - 1.0 / (st.mean_rate * st.mean_waiting_time))
                   - st.fluctuation_rate) < 1e-10
        t = np.linspace(0.0, 12.0 / st.mean_rate, 7)
        closed = st.mean_rate - (st.mean_rate - 1.0 / st.mean_waiting_time) * (
            1.0 - np.exp(-st.eta * t))
        assert np.max(np.abs(nm.sprinkling(ens, t) - closed)) < 1e-10
    report("04 kernel algebra")


def test_criterion_05_sprinkling_limits():
    rng = np.random.default_rng(105)
    for _ in range(20):
        ens = random_ensemble(rng, 6)
        st = nm.stats(ens)
        dec = nm.kernel_decompose(ens)
        slowest = abs(dec.poles.max()) if dec.n_modes else st.mean_rate
        t_max = max(20.0 / st.mean_rate, 15.0 / slowest)
        assert abs(nm.sprinkling(ens, 0.0) - st.mean_rate) < 1e-4 * st.mean_rate
        assert abs(nm.sprinkling(ens, t_max) - 1.0 / st.mean_waiting_time) \
            < 1e-4 / st.mean_waiting_time
        tg = np.linspace(0.0, 20.0 / st.mean_rate, 2001)
        oracle = renewal_equation_oracle(ens, tg)
        assert np.max(np.abs(oracle - nm.sprinkling(ens, tg))) < 1e-5
    report("05 sprinkling limits")


def test_criterion_06_power_law_regime():
    for (a, b), slope_target in (((0.25, 0.5), -1.5), ((0.2, 0.2), -2.0)):
        ens = nm.manifold_ensemble(1.0, a, b, 400)
        t = np.geomspace(5.0, 500.0, 200)
        fit = nm.fit_power_law(t, nm.waiting_density(ens, t), (5.0, 500.0))
        assert abs(fit.slope - slope_target) < 0.1, (a, b, fit.slope)
        assert fit.r_squared >= 0.999
    report("06 power-law regime")


def test_criterion_07_qrt_residual():
    basis = qrt.pauli_basis()
    grid = np.linspace(0.0, 5.0, 20)

    single = nm.dephasing_model(single_rate_ensemble(1.5))
    surf = qrt.qrt_residual(single, RHO_Y, SIGMA_Z, basis, grid, grid)
    assert np.max(np.abs(surf.residual)) < 1e-10

    ens = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])
    model = nm.dephasing_model(ens)
    surf11 = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, basis, [1.0], [1.0])
    # independent h: straight from the survival probability
    h11 = (nm.survival(ens, 2.0) - nm.survival(ens, 1.0) ** 2)
    value = abs(surf11.residual[0, 0, 0])
    assert abs(value - h11) < 1e-12
    assert abs(value - 0.013520) < 1e-6

    st = nm.stats(ens)
    taug = np.linspace(0.0, 4.0, 41)
    late = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, basis,
                            [0.0, 20.0 / st.mean_rate], taug)
    scale = np.max(np.abs(late.actual[0, 0, :]))
    assert late.max_residual_per_t()[-1] < 1e-6 * scale
    report("07 qrt residual")


def test_criterion_08_exact_memory_superoperator():
    ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
    model = nm.dephasing_model(ens, omega=1.0, picture="schroedinger")
    L = dynamics.dissipator(model)
    L_H = dynamics.coherent_liouvillian(model)
    dec = nm.kernel_decompose(ens)
    test_points = [0.5, 1.0, 2.0, 4.0, 0.8 + 0.5j, 2.0 + 1.0j,
                   1.5 - 0.7j, 3.0 + 2.0j, 0.6 + 0.1j, 5.0 - 1.0j]
    for u in test_points:
        M = u * np.eye(4) - L_H
        K_of_M = dec.markov_weight * np.eye(4, dtype=complex)
        for c, pole in zip(dec.amplitudes, dec.poles):
            K_of_M = K_of_M + c * np.linalg.inv(M - pole * np.eye(4))
        assert np.max(np.abs(exact_memory_superop(model, u) - K_of_M @ L)) < 1e-8

    gamma = 1.3
    single = nm.dephasing_model(single_rate_ensemble(gamma))
    Ls = dynamics.dissipator(single)
    for u in (0.7, 2.0 + 1.0j):
        assert np.max(np.abs(exact_memory_superop(single, u) - gamma * Ls)) < 1e-10
    report("08 exact memory superoperator")


def test_criterion_09_talbot_inversion():
    t = np.linspace(0.1, 4.0, 25)
    got = nm.talbot_invert(lambda u: 1.0 / (u + 1.0), t)
    assert np.max(np.abs(got - np.exp(-t)) / np.exp(-t)) < 1e-8

    t2 = np.linspace(0.1, 30.0, 40)
    got2 = nm.talbot_invert(lambda u: 2.0 / u + 1.0 / (u + 1.0), t2)
    exact2 = 2.0 + np.exp(-t2)
    assert np.max(np.abs(got2 - exact2) / exact2) < 1e-8

    ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
    tf = np.linspace(0.1, 50.0 / 1.5, 50)
    f_transform = functools.partial(f_of_u, ens)
    got3 = nm.talbot_invert(f_transform, tf)
    exact3 = nm.sprinkling(ens, tf)
    assert np.max(np.abs(got3 - exact3) / exact3) < 1e-8

    for transform in (lambda u: 1.0 / (u + 1.0), f_transform):
        a = nm.talbot_invert(transform, t2, nodes=32)
        b = nm.talbot_invert(transform, t2, nodes=64)
        assert np.max(np.abs(a - b)) < 1e-9
    report("09 talbot inversion")


def test_criterion_10_cli_determinism(tmp_path):
    configs = {
        "kernel": "ensemble.type = two_state\ngrid.steps = 200\n",
        "evolve": ("ensemble.type = two_state\ngrid.t_max = 5.0\ngrid.steps = 100\n"
                   "solver.methods = ensemble,volterra,mc_frozen,mc_renewal\n"
                   "solver.trajectories = 3000\nsolver.seed = 11\n"),
        "correlate": ("ensemble.type = two_state\ngrid.t_max = 4.0\n"
                      "grid.corr_t_steps = 6\ngrid.tau_max = 3.0\ngrid.tau_steps = 9\n"),
        "cpcheck": ("ensemble.type = two_state\ngrid.t_max = 5.0\ngrid.steps = 40\n"
                    "solver.methods = ensemble,volterra\n"),
        "fitpow": ("ensemble.type = manifold\nensemble.gamma = 1.0\nensemble.a = 0.25\n"
                   "ensemble.b = 0.5\nensemble.n = 400\nfitpow.window_lo = 5.0\n"
                   "fitpow.window_hi = 500.0\n"),
    }
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        outs = [str(tmp_path / f"{command}_r{i}") for i in (1, 2)]
        for out in outs:
            assert cli.main([command, "--config", str(cfg), "--out", out]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert names, f"{command} produced no output"
        for name in names:
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, f"{command}/{name} not byte-identical"
    report("10 cli determinism")
