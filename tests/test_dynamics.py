import dataclasses
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import nmbath as nm
from nmbath import _mc, cli, dynamics, qops, qrt, ratebath
from nmbath.qops import SIGMA_X, SIGMA_Z, IDENTITY_2

from helpers import (apply_superop, count_histogram_two_bincounts, ensemble_propagators,
                     event_round_moments, exact_memory_superop, gather_scatter_events,
                     generator, propagate, rate_basis_generator, single_rate_ensemble,
                     trajectory_moments, unsplit_expm1, volterra_pole_basis, volterra_stepped)

RHO_PLUS = 0.5 * (IDENTITY_2 + SIGMA_X)
RHO_XY = 0.5 * (IDENTITY_2 + (SIGMA_X + nm.SIGMA_Y) / np.sqrt(2.0))


def random_density(rng, d=2):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def random_normalized_jumps(rng, d=2, count=2):
    """Kraus set with sum V^dag V = I from a QR-orthonormalized stack."""
    block = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    q, _ = np.linalg.qr(block)
    return tuple(q[i * d:(i + 1) * d, :] for i in range(count))


def sigma_x_model(ensemble, omega=1.0):
    """Non-commuting test model: precession plus normalized sigma_x events."""
    return nm.ModelSpec(0.5 * omega * SIGMA_Z, (SIGMA_X,), ensemble, "schroedinger")


def max_z(mc, ref_states, atol=1e-8):
    """Worst z-score with a floor for the deterministic reference's own error."""
    return float(np.max(np.abs(mc.states - ref_states) / (mc.stderr + atol)))


def grow_volterra_steps(monkeypatch):
    """Make every Volterra step map grow: an entry of 1e300 overflows its powers."""
    build = dynamics._embedding_expm1

    def grown(model, h, sets):
        step = build(model, h, sets)
        step[:, 0, 0] = 1e300
        return step

    monkeypatch.setattr(dynamics, "_embedding_expm1", grown)


class TestModelSpec:
    def test_superoperators_built_once_and_read_only(self):
        model = sigma_x_model(nm.two_state_ensemble(0.5, 2.0, 1.0))
        for name in ("L", "L_H", "E"):
            value = getattr(model, name)
            assert getattr(model, name) is value
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, np.zeros_like(value))
            with pytest.raises(ValueError, match="read-only"):
                value[0, 0] = 1.0

    @pytest.mark.parametrize("picture", ["interaction", "schroedinger"])
    def test_superoperators_of_the_jumps_and_hamiltonian(self, picture):
        model = nm.dephasing_model(nm.two_state_ensemble(0.5, 2.0, 1.0), omega=1.3,
                                   picture=picture)
        H_part = qops.hamiltonian_liouvillian(model.hamiltonian)
        assert np.array_equal(model.L_H, H_part if picture == "schroedinger" else 0 * H_part)
        assert np.array_equal(model.L, qops.lindblad_dissipator(model.jumps))
        assert np.array_equal(model.E, qops.jump_superoperator(model.jumps))
        assert np.allclose(model.L, model.E - np.eye(4), atol=1e-15)

    def test_dephasing_preset_is_exact(self):
        # the projector pair is the channel of {sigma_z, I}/sqrt(2), with no round-off
        model = nm.dephasing_model(nm.two_state_ensemble(0.5, 2.0, 1.0))
        assert np.array_equal(model.E, np.diag([1.0, 0.0, 0.0, 1.0]))
        assert np.array_equal(model.L, np.diag([0.0, -1.0, -1.0, 0.0]))
        scaled = qops.lindblad_dissipator((SIGMA_Z / np.sqrt(2.0), IDENTITY_2 / np.sqrt(2.0)))
        assert np.allclose(model.L, scaled, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["frozen_rate", "renewal"])
    def test_dephasing_events_keep_populations_exactly(self, scheme):
        model = nm.dephasing_model(nm.two_state_ensemble(0.5, 2.0, 1.0))
        mc = nm.mc_trajectories(model, RHO_XY, nm.time_grid(6.0, 60),
                                nm.MCConfig(2000, 3, scheme))
        assert np.all(mc.states[:, 0, 0] == 0.5) and np.all(mc.states[:, 1, 1] == 0.5)
        assert np.all(mc.trace_drift == 0.0)

    def test_event_map_of_unnormalized_jumps_raises_on_use(self):
        # the deterministic solvers take such jumps; only E refuses them
        model = nm.ModelSpec(0.5 * SIGMA_Z, (SIGMA_Z / 2.0,), single_rate_ensemble(1.0))
        nm.evolve_ensemble(model, RHO_PLUS, nm.time_grid(1.0, 10))
        for _ in range(2):
            with pytest.raises(ValueError, match="not normalized"):
                model.E


class TestEvolveEnsemble:
    def test_single_rate_matches_fixed_lindblad(self):
        gamma = 1.3
        model = nm.dephasing_model(single_rate_ensemble(gamma))
        tg = nm.time_grid(5.0, 200)
        res = nm.evolve_ensemble(model, RHO_PLUS, tg)
        gen = generator(model, gamma)
        for k in (0, 50, 200):
            direct = apply_superop(propagate(gen, tg[k]), RHO_PLUS)
            assert np.max(np.abs(res.states[k] - direct)) < 1e-12

    def test_dephasing_coherence_is_survival(self):
        ens = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(10.0, 500)
        res = nm.evolve_ensemble(model, RHO_XY, tg)
        p0 = nm.survival(ens, tg)
        assert np.max(np.abs(res.states[:, 0, 1] - RHO_XY[0, 1] * p0)) < 1e-12
        assert np.max(np.abs(res.states[:, 0, 0] - RHO_XY[0, 0])) < 1e-12

    def test_two_rate_value_at_one(self):
        ens = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(1.0, 10)
        res = nm.evolve_ensemble(model, RHO_PLUS, tg)
        ratio = abs(res.states[-1, 0, 1] / RHO_PLUS[0, 1])
        assert abs(ratio - 0.251607) < 5e-7

    def test_diagnostics(self):
        rng = np.random.default_rng(0)
        ens = nm.rate_ensemble([0.5, 1.5, 2.5], [0.2, 0.5, 0.3])
        model = sigma_x_model(ens)
        res = nm.evolve_ensemble(model, random_density(rng), nm.time_grid(8.0, 100))
        assert np.max(res.trace_drift) < 1e-8
        assert np.min(res.min_eigenvalue) > -1e-10

    def test_rejects_invalid_state(self):
        model = nm.dephasing_model(single_rate_ensemble(1.0))
        with pytest.raises(ValueError):
            nm.evolve_ensemble(model, np.diag([0.9, 0.3]), nm.time_grid(1.0, 10))


class TestExpmFallback:
    """sigma_x jumps at gamma = omega sit on an exceptional point: cond(V) ~ 1e8.

    No eigenvectors are formed there, so every ensemble consumer must match a
    dense expm per rate.
    """

    CASES = {"single": ([0.5], [1.0]), "mixed": ([0.5, 2.0], [0.5, 0.5]),
             "unequal": ([0.5, 2.0], [0.3, 0.7])}

    @pytest.fixture(params=sorted(CASES))
    def model(self, request):
        rates, weights = self.CASES[request.param]
        return sigma_x_model(nm.rate_ensemble(rates, weights), omega=0.5)

    def test_evolve_ensemble(self, model):
        tg = nm.time_grid(6.0, 30)
        res = nm.evolve_ensemble(model, RHO_XY, tg)
        ref = ensemble_propagators(model, tg) @ qops.vectorize(RHO_XY)
        assert np.max(np.abs(res.states.reshape(tg.size, -1, order="F") - ref)) < 1e-10

    def test_propagator_series(self, model):
        tg = nm.time_grid(6.0, 30)
        maps = dynamics.ensemble_propagator_series(model, tg)
        assert np.max(np.abs(maps - ensemble_propagators(model, tg))) < 1e-10

    def test_qrt_residual(self, model):
        basis = qrt.pauli_basis()
        tg, taug = nm.time_grid(3.0, 6), nm.time_grid(4.0, 8)
        surf = qrt.qrt_residual(model, RHO_XY, SIGMA_Z, basis, tg, taug)
        T = np.array([qops.vectorize(A.T) for A in basis])
        R_S = np.kron(SIGMA_Z.T, IDENTITY_2)
        v0 = qops.vectorize(RHO_XY)
        actual = 0.0
        for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
            gen = generator(model, rate)
            seeds = np.array([R_S @ propagate(gen, t) @ v0 for t in tg])
            props = np.array([propagate(gen, tau) for tau in taug])
            actual = actual + weight * np.einsum("mi,sij,kj->ksm", T, props, seeds)
        # the Paulis are orthogonal with Gram matrix 2 I; taug[0] = 0 gives the anchor
        cols = np.array([qops.vectorize(A) for A in basis]).T / 2
        G = T @ ensemble_propagators(model, taug) @ cols
        predicted = np.einsum("smn,kn->ksm", G, actual[:, 0])
        assert np.max(np.abs(surf.actual - actual)) < 1e-10
        assert np.max(np.abs(surf.predicted - predicted)) < 1e-10

    def test_exceptional_point_to_round_off(self):
        # omega = 1 with rates (1, 2): an eigenvector route erred here by about 1e-9
        model = sigma_x_model(nm.rate_ensemble([1.0, 2.0], [0.5, 0.5]))
        tg, taug = nm.time_grid(6.0, 30), nm.time_grid(4.0, 8)
        v0 = qops.vectorize(RHO_XY)
        ref = ensemble_propagators(model, tg)
        res = nm.evolve_ensemble(model, RHO_XY, tg)
        assert np.max(np.abs(res.states.reshape(tg.size, -1, order="F") - ref @ v0)) < 1e-13
        assert np.max(np.abs(dynamics.ensemble_propagator_series(model, tg) - ref)) < 1e-13
        basis = qrt.pauli_basis()
        T = np.array([qops.vectorize(A.T) for A in basis])
        R_S = np.kron(SIGMA_Z.T, IDENTITY_2)
        expected = 0.0
        for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
            one = dataclasses.replace(model, ensemble=single_rate_ensemble(rate))
            seeds = R_S @ (ensemble_propagators(one, tg) @ v0).T
            props = ensemble_propagators(one, taug)
            expected = expected + weight * np.einsum("mi,sij,jk->mks", T, props, seeds)
        corr = qrt.two_time_correlation(model, RHO_XY, SIGMA_Z, basis, tg, taug)
        assert np.max(np.abs(corr - expected)) < 1e-13


class TestEvolveVolterra:
    def test_markov_reduces_to_lindblad(self):
        model = nm.dephasing_model(single_rate_ensemble(0.9))
        tg = nm.time_grid(8.0, 400)
        exact = nm.evolve_ensemble(model, RHO_PLUS, tg)
        vol = nm.evolve_volterra(model, RHO_PLUS, tg)
        assert np.max(np.abs(vol.states - exact.states)) < 1e-8

    def test_dephasing_two_state_exact(self):
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(10.0, 2000)
        exact = nm.evolve_ensemble(model, RHO_XY, tg)
        vol = nm.evolve_volterra(model, RHO_XY, tg)
        assert np.max(np.abs(vol.states - exact.states)) < 1e-12

    def test_schroedinger_dephasing(self):
        # L_H commutes with the dephasing dissipator, so still exact
        ens = nm.two_state_ensemble(0.4, 1.8, 0.6)
        model = nm.dephasing_model(ens, omega=1.3, picture="schroedinger")
        tg = nm.time_grid(8.0, 1600)
        exact = nm.evolve_ensemble(model, RHO_XY, tg)
        vol = nm.evolve_volterra(model, RHO_XY, tg)
        assert np.max(np.abs(vol.states - exact.states)) < 1e-6

    def test_noncommuting_gap_recorded(self):
        # sigma_x jumps do not commute with the precession: the effective
        # equation is an approximation; record the gap without asserting size
        ens = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])
        model = sigma_x_model(ens)
        tg = nm.time_grid(6.0, 1200)
        exact = nm.evolve_ensemble(model, RHO_PLUS, tg)
        vol = nm.evolve_volterra(model, RHO_PLUS, tg)
        gap = float(np.max(np.abs(vol.states - exact.states)))
        assert np.isfinite(gap)
        assert np.max(vol.trace_drift) < 1e-8

    def test_coarse_grid_exact(self):
        # each step applies the exact propagator of the embedding, so a
        # 12-step grid carries no step error
        ens = nm.two_state_ensemble(0.5, 4.0, 0.5)
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(10.0, 12)
        exact = nm.evolve_ensemble(model, RHO_PLUS, tg)
        vol = nm.evolve_volterra(model, RHO_PLUS, tg)
        assert np.max(np.abs(vol.states - exact.states)) < 1e-12

    def test_laplace_transform_noncommuting(self):
        # independent of the time stepping: the Laplace transform of the
        # memory-kernel equation is a linear solve at each u
        ens = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])
        model = sigma_x_model(ens)
        tg = nm.time_grid(40.0, 8000)
        vol = nm.evolve_volterra(model, RHO_PLUS, tg)
        x = vol.states.reshape(tg.size, -1, order="F")
        L = model.L
        L_H = model.L_H
        dec = nm.kernel_decompose(ens)
        eye = np.eye(L.shape[0])
        for u in (1.0, 2.0):
            numeric = scipy.integrate.simpson(np.exp(-u * tg)[:, None] * x, x=tg, axis=0)
            K = dec.markov_weight * eye
            for c, p in zip(dec.amplitudes, dec.poles):
                K = K + c * np.linalg.inv((u - p) * eye - L_H)
            laplace = np.linalg.solve(u * eye - L_H - K @ L, qops.vectorize(RHO_PLUS))
            assert np.max(np.abs(numeric - laplace)) < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_growing_kernel_mode_refused(self, monkeypatch):
        grow_volterra_steps(monkeypatch)
        model = nm.dephasing_model(single_rate_ensemble(1.0))
        with pytest.raises(nm.SolverError, match="not finite"):
            nm.evolve_volterra(model, RHO_PLUS, nm.time_grid(10.0, 100))

    @pytest.mark.parametrize("case,h", [("manifold", 0.01), ("sigma_x", 0.005),
                                        ("sigma_x", 7.0), ("single_rate", 0.3),
                                        ("manifold", 300.0)])
    def test_step_map_is_expm_of_dense_generator(self, case, h):
        ensembles = {"manifold": nm.manifold_ensemble(1.0, 0.2, 0.3, 40),
                     "sigma_x": nm.rate_ensemble([1.0, 2.0], [0.5, 0.5]),
                     "single_rate": single_rate_ensemble(1.3)}
        ens = ensembles[case]
        model = (sigma_x_model(ens) if case == "sigma_x"
                 else nm.dephasing_model(ens, omega=1.3, picture="schroedinger"))
        ref = scipy.linalg.expm(h * rate_basis_generator(model))
        phi = np.eye(ref.shape[0]) + unsplit_expm1(model, h)
        assert np.max(np.abs(phi - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_solvers_decompose_no_kernel(self, tmp_path, monkeypatch):
        # only the kernel command reads the kernel poles
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ensemble.type = manifold\nensemble.gamma = 1.0\nensemble.a = 0.2\n"
                       "ensemble.b = 0.3\nensemble.n = 20\ngrid.steps = 200\n"
                       "model.omega = 1.3\nmodel.picture = schroedinger\n")

        def refuse(ens):
            raise RuntimeError("kernel_decompose called")

        outputs = []
        for patched in (False, True):
            if patched:
                # dynamics has no binding of its own to patch
                assert not hasattr(dynamics, "kernel_decompose")
                for module in (ratebath, cli):
                    monkeypatch.setattr(module, "kernel_decompose", refuse)
            for command in ("evolve", "cpcheck"):
                out = tmp_path / f"{command}-{patched}"
                assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
                outputs.append({name: (out / name).read_bytes() for name in os.listdir(out)})
        assert outputs[:2] == outputs[2:]

    def test_propagator_series_columns(self):
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(4.0, 400)
        maps = dynamics.volterra_propagator_series(model, tg)
        vol = nm.evolve_volterra(model, RHO_XY, tg)
        applied = np.array([apply_superop(m, RHO_XY) for m in maps])
        assert np.max(np.abs(applied - vol.states)) < 1e-12


def qutrit_decay_model(ensemble):
    """Decay |1>, |2> -> |0> under precession: one coupled set of populations
    (rho_11 and rho_22 feed rho_00 but never each other) and six lone coherences."""
    ket = np.eye(3)
    jumps = (np.outer(ket[0], ket[1]), np.outer(ket[0], ket[2]), np.outer(ket[0], ket[0]))
    return nm.ModelSpec(np.diag([0.7, 0.0, -0.4]), jumps, ensemble, "schroedinger")


def random_generic_model(ensemble):
    """Random H and jumps: every component of rho couples to every other."""
    rng = np.random.default_rng(3)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return nm.ModelSpec(M + M.conj().T, random_normalized_jumps(rng), ensemble, "schroedinger")


class TestBlockedVolterra:
    """The blocked powers of the step map against the plain loop y <- Phi y,
    and the rate-basis embedding against the pole-basis one.

    On these grids B is the smallest power of two with B D >= S for each
    coupled set of D components and its embedding size S = D R, capped at the
    number of steps; the grids straddle both the block length and the cap.  The models cover four
    dephasing sets of one component, two sets of two (sigma_x), sets of
    unequal size (qutrit decay) and one set of four.
    """

    H = 0.1
    THREE_RATES = ([0.5, 1.5, 4.0], [0.3, 0.5, 0.2])
    MODELS = {
        "manifold_60": lambda: nm.dephasing_model(nm.manifold_ensemble(1.0, 0.1, 0.6, 60),
                                                  omega=1.3, picture="schroedinger"),
        "sigma_x": lambda: sigma_x_model(
            nm.rate_ensemble([0.5, 1.0, 2.0, 3.0, 4.0, 6.0], np.full(6, 1.0 / 6.0)), omega=1.7),
        "qutrit_decay": lambda: qutrit_decay_model(
            nm.rate_ensemble(*TestBlockedVolterra.THREE_RATES)),
        "generic": lambda: random_generic_model(
            nm.rate_ensemble(*TestBlockedVolterra.THREE_RATES)),
    }
    GRIDS = {"1": lambda B: 1, "2": lambda B: 2, "B-1": lambda B: B - 1, "B": lambda B: B,
             "B+1": lambda B: B + 1, "3B+5": lambda B: 3 * B + 5}

    @pytest.fixture(scope="class", params=sorted(MODELS))
    def case(self, request):
        model = self.MODELS[request.param]()
        return model, 1 << (model.ensemble.n - 1).bit_length()

    def state_and_map(self, model, steps):
        tg = nm.time_grid(self.H * steps, steps)
        v0 = qops.vectorize(random_density(np.random.default_rng(5), model.dim))
        _, states = dynamics._volterra_run(model, v0, tg)
        maps = dynamics.volterra_propagator_series(model, tg)
        return tg, ((states, v0), (maps, np.eye(v0.size, dtype=complex)))

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_state_and_map_match_stepped_loop(self, case, grid):
        model, B = case
        tg, runs = self.state_and_map(model, self.GRIDS[grid](B))
        for out, x0 in runs:
            ref = volterra_stepped(model, x0, tg)
            assert out.shape == ref.shape
            # out[0] = sum_R P_R x0, and the weights sum to 1 to round-off
            assert np.max(np.abs(out[0] - x0)) <= 1e-15
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_state_and_map_match_pole_basis(self, case, grid):
        # the same memory-kernel equation from the kernel poles: one memory
        # variable per pole, stepped with a dense expm
        model, B = case
        tg, runs = self.state_and_map(model, self.GRIDS[grid](B))
        for out, x0 in runs:
            ref = volterra_pole_basis(model, x0, tg)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_per_set_maps_are_blocks_of_unsplit_map(self, case):
        # the scaling and the Taylor cut come from the whole operators, so
        # each set's map is the rows and columns of the unsplit map.  Where
        # an operator entry has both a real and an imaginary part (the lone
        # coherences of qutrit decay, -1 - 1.1j), the k-component product
        # and the whole one may take BLAS kernels that round differently
        # (fused or separate multiply-add), by a few units in the last place
        model, _ = case
        L, L_H = model.L, model.L_H
        D, eps = L.shape[0], np.finfo(float).eps
        whole = unsplit_expm1(model, self.H)
        offsets = D * np.arange(model.ensemble.n)[:, None]
        for group in qops.coupled_sets((L != 0) | (L_H != 0)):
            maps = dynamics._embedding_expm1(model, self.H, group)
            for phi, members in zip(maps, group):
                idx = (offsets + members).reshape(-1)
                block = whole[np.ix_(idx, idx)]
                if model.dim == 3:
                    assert np.max(np.abs(phi - block)) <= 4 * eps * np.max(np.abs(whole))
                else:
                    assert np.array_equal(phi, block)

    @pytest.mark.parametrize("picture", ["interaction", "schroedinger"])
    def test_dephasing_builds_only_one_component_maps(self, monkeypatch, picture):
        seen = []
        build = dynamics._embedding_expm1

        def spy(model, h, sets):
            seen.append(sets.shape)
            return build(model, h, sets)

        monkeypatch.setattr(dynamics, "_embedding_expm1", spy)
        model = nm.dephasing_model(nm.manifold_ensemble(1.0, 0.2, 0.3, 20), omega=1.3,
                                   picture=picture)
        tg = nm.time_grid(5.0, 50)
        nm.evolve_volterra(model, RHO_XY, tg)
        dynamics.volterra_propagator_series(model, tg)
        assert seen == [(4, 1), (4, 1)]

    @pytest.mark.parametrize("edges,expected", [
        # (entries of L, entries of L_H); x_0 <- x_1 <- x_2 with no direct entry x_0 <- x_2
        (([(0, 1), (1, 2)], []), [[0, 1, 2], [3]]),
        # x_1 feeds both x_0 and x_2, which never feed each other
        (([(0, 1), (2, 1)], []), [[0, 1, 2], [3]]),
        (([], []), [[0], [1], [2], [3]]),
        # only the coherent part couples x_2 and x_3
        (([], [(3, 2)]), [[0], [1], [2, 3]]),
        (([(1, 0)], [(2, 3)]), [[0, 1], [2, 3]]),
    ])
    def test_coupled_sets_partition_the_components(self, edges, expected):
        L, L_H = -np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)
        for op, entries in zip((L, L_H), edges):
            for a, b in entries:
                op[a, b] = 0.5
        groups = qops.coupled_sets((L != 0) | (L_H != 0))
        assert sorted(s.tolist() for g in groups for s in g) == expected

    def test_short_grid_forms_no_power_past_its_end(self):
        # a step map growing by e^60 per step with S = 64 D: the 10-step
        # solution (about e^600) and Phi^8 are finite, but Phi^16 y0 and
        # Phi^64, the power for the uncapped block length, overflow; the cap
        # at B = 8 runs it
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
        phi = np.exp(60.0) * q
        y0 = rng.normal(size=(1, 64, 2)) + 0j
        rows = rng.normal(size=(1, 64))
        with np.errstate(over="raise", invalid="raise"):
            out = qops.block_powers((phi - np.eye(64))[None], y0, 10, rows)
        y, ref = y0[0], [rows @ y0[0]]
        for _ in range(10):
            y = phi @ y
            ref.append(rows @ y)
        ref = np.array(ref)[:, None]
        assert np.max(np.abs(ref)) > 1e200
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_growing_mode_refused_for_maps(self, monkeypatch):
        grow_volterra_steps(monkeypatch)
        model = nm.dephasing_model(single_rate_ensemble(1.0))
        with pytest.raises(nm.SolverError, match="not finite"):
            dynamics.volterra_propagator_series(model, nm.time_grid(10.0, 100))

    def test_growing_mode_exits_3_from_cli(self, tmp_path, monkeypatch, capsys):
        grow_volterra_steps(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ensemble.type = custom\nensemble.rates = 1.0\nensemble.weights = 1.0\n"
                       "grid.t_max = 10.0\ngrid.steps = 100\nsolver.methods = volterra\n")
        for command in ("evolve", "cpcheck"):
            code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
            err = capsys.readouterr().err
            assert code == 3 and err.startswith("runtime error") and err.count("\n") == 1


class TestExactMemorySuperop:
    def test_single_rate_is_rate_times_dissipator(self):
        gamma = 1.3
        model = nm.dephasing_model(single_rate_ensemble(gamma))
        L = model.L
        for u in (0.5, 2.0 + 1.0j):
            assert np.max(np.abs(exact_memory_superop(model, u) - gamma * L)) < 1e-10

    def test_dephasing_full_kernel_identity(self):
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens, omega=0.9, picture="schroedinger")
        L = model.L
        LH = model.L_H
        dec = nm.kernel_decompose(ens)
        for u in (1.0, 2.0 + 1.0j):
            M = u * np.eye(4) - LH
            K_of_M = dec.markov_weight * np.eye(4)
            for c, p in zip(dec.amplitudes, dec.poles):
                K_of_M = K_of_M + c * np.linalg.inv(M - p * np.eye(4))
            lhs = exact_memory_superop(model, u)
            assert np.max(np.abs(lhs - K_of_M @ L)) < 1e-9

    def test_high_frequency_limit(self):
        ens = nm.rate_ensemble([0.7, 1.9, 3.1], [0.3, 0.4, 0.3])
        model = nm.dephasing_model(ens)
        st = nm.stats(ens)
        L = model.L
        LL = exact_memory_superop(model, 1e6)
        assert np.max(np.abs(LL - st.mean_rate * L)) < 1e-4


class TestMonteCarlo:
    def test_single_rate_both_schemes(self):
        gamma = 1.1
        model = nm.dephasing_model(single_rate_ensemble(gamma))
        tg = nm.time_grid(4.0, 40)
        exact = nm.evolve_ensemble(model, RHO_XY, tg)
        for scheme in ("frozen_rate", "renewal"):
            mc = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(10000, 11, scheme))
            assert max_z(mc, exact.states) < 3.0

    def test_dephasing_two_state(self):
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(5.0, 50)
        exact = nm.evolve_ensemble(model, RHO_XY, tg)
        for scheme in ("frozen_rate", "renewal"):
            mc = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(20000, 23, scheme))
            assert max_z(mc, exact.states) < 3.0

    def test_noncommuting_schemes_split(self):
        # frozen tracks the exact average, renewal tracks the effective
        # (Volterra) evolution, and the two targets are distinguishable
        ens = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])
        model = sigma_x_model(ens)
        tg = nm.time_grid(6.0, 60)
        exact = nm.evolve_ensemble(model, RHO_PLUS, tg)
        vol = nm.evolve_volterra(model, RHO_PLUS, tg)
        n = 200000
        frozen = nm.mc_trajectories(model, RHO_PLUS, tg, nm.MCConfig(n, 31, "frozen_rate"))
        renewal = nm.mc_trajectories(model, RHO_PLUS, tg, nm.MCConfig(n, 31, "renewal"))
        assert max_z(frozen, exact.states) < 4.0
        assert max_z(renewal, vol.states) < 4.0
        split = np.abs(frozen.states - renewal.states) / (
            frozen.stderr + renewal.stderr + 1e-12)
        assert np.max(split) > 5.0

    def test_seed_determinism(self):
        model = nm.dephasing_model(nm.two_state_ensemble(0.5, 2.0, 1.0))
        tg = nm.time_grid(3.0, 30)
        a = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(3000, 5))
        b = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(3000, 5))
        assert np.array_equal(a.states, b.states)
        c = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(3000, 6))
        assert not np.array_equal(a.states, c.states)

    def test_schroedinger_dephasing(self):
        # H != 0 with commuting jumps takes the eigenbasis route
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens, omega=1.3, picture="schroedinger")
        tg = nm.time_grid(5.0, 50)
        exact = nm.evolve_ensemble(model, RHO_XY, tg)
        for scheme in ("frozen_rate", "renewal"):
            mc = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(20000, 29, scheme))
            assert mc.meta["route"] == "eigenbasis"
            assert max_z(mc, exact.states) < 3.0

    def test_hamiltonian_times_identity_takes_count_histogram(self):
        # H = 0.7 I gives L_H = 0: nothing evolves between events
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        tg = nm.time_grid(3.0, 30)
        shifted, bare = (nm.ModelSpec(c * IDENTITY_2, nm.dephasing_jumps(), ens, "schroedinger")
                         for c in (0.7, 0.0))
        for scheme in ("frozen_rate", "renewal"):
            a = nm.mc_trajectories(shifted, RHO_XY, tg, nm.MCConfig(3000, 5, scheme))
            b = nm.mc_trajectories(bare, RHO_XY, tg, nm.MCConfig(3000, 5, scheme))
            assert a.meta["route"] == b.meta["route"] == "count_histogram"
            assert np.array_equal(a.states, b.states) and np.array_equal(a.stderr, b.stderr)

    def test_stderr_scaling(self):
        model = nm.dephasing_model(nm.two_state_ensemble(0.5, 2.0, 1.0))
        tg = nm.time_grid(4.0, 40)
        small = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(10000, 13))
        large = nm.mc_trajectories(model, RHO_XY, tg, nm.MCConfig(40000, 13))
        mask = small.stderr > 1e-4
        ratio = np.median(large.stderr[mask] / small.stderr[mask])
        assert 0.45 < ratio < 0.55

    def test_rejects_unnormalized_jumps(self):
        model = nm.ModelSpec(0.5 * SIGMA_Z, (SIGMA_Z / 2.0,),
                             single_rate_ensemble(1.0), "interaction")
        with pytest.raises(ValueError, match="not normalized"):
            nm.mc_trajectories(model, RHO_PLUS, nm.time_grid(1.0, 10), nm.MCConfig(10, 1))

    def test_random_normalized_jumps_cp(self):
        rng = np.random.default_rng(3)
        jumps = random_normalized_jumps(rng)
        total = sum(V.conj().T @ V for V in jumps)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


def splitmix_events(seed, n, t_max, rates, weights, renewal):
    """The sampling contract, one trajectory at a time in scalar splitmix64 arithmetic.

    Trajectory i owns the stream seeded mix((seed + i * golden) mod 2^64),
    i >= 1, with mix the splitmix64 finalizer: the i-th output of a splitmix64
    generator seeded at ``seed``.  Each draw advances it by golden and mixes
    it to a uniform in (0, 1).  The frozen scheme draws the level once; the
    renewal scheme draws it before every wait.  A wait is -log(u) / rate; a
    zero rate waits forever.
    """
    mask, golden = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def draw(state):
        state = (state + golden) & mask
        return state, ((mix(state) >> 11) + 0.5) * 2.0**-53

    cum = np.cumsum(weights)

    def level(u):
        return rates[min(int(np.searchsorted(cum, u, side="right")), len(rates) - 1)]

    times, offsets = [], [0]
    for i in range(1, n + 1):
        state, t = mix((seed + i * golden) & mask), 0.0
        if not renewal:
            state, u = draw(state)
            rate = level(u)
        while True:
            if renewal:
                state, u = draw(state)
                rate = level(u)
            state, u = draw(state)
            if rate == 0.0:
                break
            t += -np.log(u) / rate
            if t > t_max:
                break
            times.append(t)
        offsets.append(len(times))
    return np.array(times), np.array(offsets)


class TestEventSampling:
    """Both schemes against the per-trajectory splitmix64 reference."""

    @pytest.mark.parametrize("rates,weights", [([2.2, 0.9], [0.5, 0.5]),
                                               ([2.0, 0.0, 0.7], [0.3, 0.4, 0.3])],
                             ids=["two_levels", "zero_rate_level"])
    @pytest.mark.parametrize("seed", [3, 2**64 - 5])
    def test_matches_scalar_reference(self, rates, weights, seed):
        rates, weights = np.array(rates), np.array(weights)
        for renewal, sample in ((False, _mc.sample_frozen_events),
                                (True, _mc.sample_renewal_events)):
            times, offsets = sample(seed, 300, 2.5, rates, weights)
            ref_times, ref_offsets = splitmix_events(seed, 300, 2.5, rates, weights, renewal)
            assert offsets.dtype == np.int64 and np.array_equal(offsets, ref_offsets)
            assert np.array_equal(times, ref_times)
            counts = np.diff(offsets)
            assert counts.min() == 0 and counts.max() > 1

    @pytest.mark.parametrize("rates,weights", [([2.2, 0.9], [0.5, 0.5]),
                                               ([2.0, 0.0, 0.7], [0.3, 0.4, 0.3]),
                                               ([1.5, 1e-310], [0.6, 0.4])],
                             ids=["two_levels", "zero_rate_level", "overflowing_wait"])
    @pytest.mark.parametrize("n", [1, 2, 777])
    def test_compacted_streams_match_the_gather_scatter_loop(self, rates, weights, n):
        rates, weights = np.array(rates), np.array(weights)
        for seed in (1, 3, 99, 2**64 - 5):
            for renewal in (False, True):
                times, offsets = _mc._sample_events(seed, n, 2.5, rates, weights, renewal)
                ref_times, ref_offsets = gather_scatter_events(seed, n, 2.5, rates, weights,
                                                               renewal)
                assert np.array_equal(offsets, ref_offsets)
                assert np.array_equal(times, ref_times)

    def test_no_trajectories(self):
        # n = 0 draws no round at all
        for sample in (_mc.sample_frozen_events, _mc.sample_renewal_events):
            times, offsets = sample(3, 0, 2.5, np.array([2.2]), np.array([1.0]))
            assert times.size == 0 and np.array_equal(offsets, [0])

    def test_streams_share_no_state(self):
        # the states of the first 64 draws of 1000 trajectories are all distinct
        states = _mc._stream_init(3, 1000)[:, None] + np.arange(1, 65, dtype=np.uint64) * _mc._GOLDEN
        assert np.unique(states).size == states.size

    def test_neighbouring_event_counts_are_uncorrelated(self):
        rates, weights = np.array([2.2, 0.9]), np.array([0.5, 0.5])
        for sample in (_mc.sample_frozen_events, _mc.sample_renewal_events):
            counts = np.diff(sample(3, 20000, 2.5, rates, weights)[1]).astype(float)
            assert abs(np.corrcoef(counts[:-1], counts[1:])[0, 1]) < 0.03

    def test_spread_of_the_mean_matches_the_reported_stderr(self):
        # rho_11 = 0.7^N under partial decay events: the spread of its mean over
        # 200 seeds against the mean standard error that each run reports
        kraus = [np.diag([1.0, np.sqrt(0.7)]).astype(complex),
                 np.sqrt(0.3) * np.array([[0, 1], [0, 0]], dtype=complex)]
        E = qops.jump_superoperator(kraus)
        v0 = qops.vectorize(np.diag([0.0, 1.0]).astype(complex))
        tg = nm.time_grid(3.0, 4)
        rates, weights = np.array([2.0, 1.0]), np.array([0.5, 0.5])
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            means, stderrs = [], []
            for seed in range(1, 201):
                times, off = sample(seed, 400, tg[-1], rates, weights)
                mean, stderr = _mc.run_trajectories(v0, tg, times, off, None, E,
                                                    composition=composition)
                means.append(mean[-1, 3].real)
                stderrs.append(stderr[-1, 3])
            assert abs(np.std(means, ddof=1) / np.mean(stderrs) - 1.0) < 0.15

    def test_rates_below_the_double_range_end_their_trajectories(self):
        # a wait of -log(u) / 1e-310 overflows; under the CLI's error state
        # it must end the trajectory, not raise
        rates, weights = np.array([1.5, 1e-310, 0.0]), np.array([0.4, 0.3, 0.3])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for sample in (_mc.sample_frozen_events, _mc.sample_renewal_events):
                times, offsets = sample(9, 400, 3.0, rates, weights)
                assert np.all(np.isfinite(times)) and np.all(times <= 3.0)
                assert offsets[-1] == times.size > 0


EDGE_GRID = np.linspace(0.0, 1.0, 11)
_EDGE_TIMES = [0.0, EDGE_GRID[3], 0.55, EDGE_GRID[7], EDGE_GRID[7], EDGE_GRID[10], 0.05, 1.5]
# no events; events at t = 0 and exactly on grid times; two at one time; one
# past the grid; then a single trajectory and none with events
EDGE_STREAMS = ((_EDGE_TIMES, [0, 0, 6, 6, 7, 8]), (_EDGE_TIMES[:6], [0, 6]), ([], [0, 0]))


@pytest.mark.parametrize("t_max", [1e-3, 0.037, 0.1, 1.0, 6.0, 20.0, 333.3, 1e4])
def test_grid_rows_equal_searchsorted(t_max):
    rng = np.random.default_rng(11)
    for steps in (1, 2, 3, 7, 200, 400, 999, 1000, 2000, 4099, 20000):
        tg = nm.time_grid(t_max, steps)
        times = np.concatenate([tg, np.nextafter(tg, -np.inf), np.nextafter(tg, np.inf),
                                [0.0, t_max, 5e-324], rng.uniform(0.0, 1.2 * t_max, 1000)])
        np.testing.assert_array_equal(_mc._grid_rows(tg, times),
                                      np.searchsorted(tg, times, side="left"))


class TestCountHistogram:
    """Without coherent evolution the moments come from event-count histograms."""

    V0 = qops.vectorize(RHO_XY)

    def random_event_map(self):
        return qops.jump_superoperator(random_normalized_jumps(np.random.default_rng(8)))

    def assert_matches_reference(self, tg, times, off, E, composition):
        times, off = np.asarray(times, dtype=float), np.asarray(off, dtype=np.int64)
        mean, stderr = _mc.run_trajectories(self.V0, tg, times, off, None, E,
                                            composition=composition)
        ref_mean, ref_stderr = trajectory_moments(self.V0, tg, times, off,
                                                  np.zeros((4, 4)), E, composition)
        assert np.max(np.abs(mean - ref_mean)) < 1e-12
        assert np.max(np.abs(stderr - ref_stderr)) < 1e-9

    @pytest.mark.parametrize("rates,weights", [([2.0, 1.0], [0.5, 0.5]),
                                               ([0.0, 1.5], [0.4, 0.6])])
    def test_sampled_streams_both_schemes(self, rates, weights):
        rates, weights = np.array(rates), np.array(weights)
        tg = nm.time_grid(3.0, 30)
        E_deph = nm.dephasing_model(single_rate_ensemble(1.0)).E
        frozen = _mc.sample_frozen_events(3, 5000, tg[-1], rates, weights)
        renewal = _mc.sample_renewal_events(3, 5000, tg[-1], rates, weights)
        for E in (E_deph, self.random_event_map()):
            self.assert_matches_reference(tg, *frozen, E, "forward")
            self.assert_matches_reference(tg, *renewal, E, "reversed")

    def test_edge_streams(self):
        tg = EDGE_GRID
        E = self.random_event_map()
        for composition in ("forward", "reversed"):
            for times, off in EDGE_STREAMS:
                self.assert_matches_reference(tg, times, off, E, composition)
        _, stderr = _mc.run_trajectories(self.V0, tg, *EDGE_STREAMS[1], None, E)
        assert not np.any(stderr)

    def test_stderr_at_start_is_zero(self):
        # every trajectory is still at v0 at t = 0: no round-off left in the variance
        rates, weights = np.array([2.0, 1.0]), np.array([0.5, 0.5])
        tg = nm.time_grid(3.0, 30)
        E = self.random_event_map()
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(3, 5000, tg[-1], rates, weights)
            mean, stderr = _mc.run_trajectories(self.V0, tg, times, off, None, E,
                                                composition=composition)
            assert np.array_equal(mean[0], self.V0) and not np.any(stderr[0])
            assert np.all(stderr[1:].max(axis=1) > 0)

    def test_blocks_of_grid_times(self, monkeypatch):
        rates, weights = np.array([2.0, 1.0]), np.array([0.5, 0.5])
        tg = nm.time_grid(3.0, 30)
        times, off = _mc.sample_renewal_events(4, 3000, tg[-1], rates, weights)
        E = self.random_event_map()
        whole = _mc.run_trajectories(self.V0, tg, times, off, None, E)
        monkeypatch.setattr(_mc, "HIST_CELLS", 1)
        rowwise = _mc.run_trajectories(self.V0, tg, times, off, None, E)
        for a, b in zip(whole, rowwise):
            assert np.max(np.abs(a - b)) < 1e-14

    @pytest.mark.parametrize("cells", [None, 40, 1], ids=["one_block", "blocks", "rowwise"])
    def test_one_bincount_matches_two(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(_mc, "HIST_CELLS", cells)
        rates, weights = np.array([2.0, 1.0]), np.array([0.5, 0.5])
        tg = nm.time_grid(3.0, 30)
        # events at t = 0, exactly at grid times and past the grid end
        edge = [0.0, 0.0, tg[1], tg[1], tg[7], tg[-1], 3.5, 9.0], [0, 0, 3, 5, 8]
        streams = [(tg, *_mc.sample_renewal_events(4, 500, tg[-1], rates, weights)),
                   (tg, *edge), *((EDGE_GRID, *stream) for stream in EDGE_STREAMS)]
        for grid, times, off in streams:
            times, off = np.asarray(times, dtype=float), np.asarray(off, dtype=np.int64)
            ncol = int(np.diff(off).max(initial=0)) + 1
            cols = np.random.default_rng(ncol).normal(size=(ncol, 5))
            got = _mc._count_histogram_sums(cols, grid, times, off,
                                            _mc._grid_rows(grid, times))
            ref = count_histogram_two_bincounts(cols, grid, times, off, _mc.HIST_CELLS)
            assert np.array_equal(got, ref)

    def test_route_in_meta(self):
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        tg = nm.time_grid(3.0, 30)
        for model, rho, route in ((nm.dephasing_model(ens), RHO_XY, "count_histogram"),
                                  (sigma_x_model(ens), RHO_PLUS, "eigenbasis")):
            for scheme in ("frozen_rate", "renewal"):
                res = nm.mc_trajectories(model, rho, tg, nm.MCConfig(2000, 9, scheme))
                assert res.meta["route"] == route
                assert type(res.meta["events"]) is int and res.meta["events"] > 0
                assert 0 < res.meta["events_max_per_traj"] <= res.meta["events"]


class TestEigenbasisRoute:
    """With coherent evolution the moments are event-driven sums in the eigenbasis of L_H."""

    # initial state by system dimension
    V0 = {2: qops.vectorize(RHO_XY), 3: qops.vectorize(random_density(np.random.default_rng(13), 3))}
    ENSEMBLE = nm.rate_ensemble([1.5, 3.0, 0.7], [0.3, 0.3, 0.4])

    CASES = ["sigma_x", "random", "qutrit", "degenerate_qutrit", "dense_w"]

    def models(self):
        """sigma_x events with precession, random event maps under random H (d = 2 and 3),
        a qutrit whose spectrum is degenerate, and a qubit whose eigenbasis W is dense."""
        rng = np.random.default_rng(12)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        models = [sigma_x_model(self.ENSEMBLE, omega=1.7),
                  nm.ModelSpec(A + A.conj().T, random_normalized_jumps(rng), self.ENSEMBLE,
                               "schroedinger")]
        # D = 9 with 7 distinct frequencies
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        models.append(nm.ModelSpec(A + A.conj().T, random_normalized_jumps(rng, d=3),
                                   self.ENSEMBLE, "schroedinger"))
        # frequencies 0 (five columns) and +-2 (two each)
        models.append(nm.ModelSpec(np.diag([1.0, 1.0, -1.0]),
                                   random_normalized_jumps(rng, d=3, count=3),
                                   self.ENSEMBLE, "schroedinger"))
        # H along sigma_x: every entry of W = kron(conj(U), U) is nonzero
        return models + [nm.ModelSpec(0.8 * SIGMA_X, random_normalized_jumps(rng),
                                      self.ENSEMBLE, "schroedinger")]

    def moments(self, model, tg, times, off, composition):
        return _mc.run_trajectories(self.V0[model.dim], tg, times, off,
                                    model.hamiltonian,
                                    model.E, composition=composition)

    def assert_matches_reference(self, model, tg, times, off, composition):
        mean, stderr = self.moments(model, tg, times, off, composition)
        ref_mean, ref_stderr = trajectory_moments(
            self.V0[model.dim], tg, times, off, model.L_H,
            model.E, composition)
        assert np.max(np.abs(mean - ref_mean)) < 1e-12
        assert np.max(np.abs(stderr - ref_stderr)) < 1e-9

    @pytest.mark.parametrize("case", CASES)
    def test_sampled_streams_both_schemes(self, case):
        model = self.models()[self.CASES.index(case)]
        tg = nm.time_grid(3.0, 30)
        rates, weights = self.ENSEMBLE.rates, self.ENSEMBLE.weights
        frozen = _mc.sample_frozen_events(3, 200, tg[-1], rates, weights)
        renewal = _mc.sample_renewal_events(3, 200, tg[-1], rates, weights)
        self.assert_matches_reference(model, tg, *frozen, "forward")
        self.assert_matches_reference(model, tg, *renewal, "reversed")

    def test_edge_streams(self):
        for model in self.models():
            for composition in ("forward", "reversed"):
                for times, off in EDGE_STREAMS:
                    self.assert_matches_reference(model, EDGE_GRID, times, off, composition)
                _, stderr = self.moments(model, EDGE_GRID, *EDGE_STREAMS[1], composition)
                assert not np.any(stderr)

    @pytest.mark.parametrize("case", CASES)
    def test_stderr_at_start_is_zero(self, case):
        # every trajectory is still at v0 at t = 0: no round-off left in the variance
        model = self.models()[self.CASES.index(case)]
        tg = nm.time_grid(3.0, 30)
        rates, weights = self.ENSEMBLE.rates, self.ENSEMBLE.weights
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(3, 200, tg[-1], rates, weights)
            mean, stderr = self.moments(model, tg, times, off, composition)
            assert np.max(np.abs(mean[0] - self.V0[model.dim])) < 1e-15
            assert not np.any(stderr[0]) and np.all(stderr[1:].max(axis=1) > 0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_frequencies_match_the_count_histogram(self, d):
        # H = c I: every frequency is 0, and a trajectory is E^N(t) v0
        E = qops.jump_superoperator(random_normalized_jumps(np.random.default_rng(31), d=d))
        tg = nm.time_grid(3.0, 30)
        rates, weights = self.ENSEMBLE.rates, self.ENSEMBLE.weights
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(3, 200, tg[-1], rates, weights)
            ref_mean, ref_stderr = _mc.run_trajectories(self.V0[d], tg, times, off, None, E,
                                                        composition=composition)
            for H in (0.7 * np.eye(d), np.zeros((d, d))):
                mean, stderr = _mc.run_trajectories(self.V0[d], tg, times, off, H, E,
                                                    composition=composition)
                assert np.array_equal(mean, ref_mean) and np.array_equal(stderr, ref_stderr)

    def test_blocks_of_trajectories(self, monkeypatch):
        model = self.models()[1]
        tg = nm.time_grid(3.0, 30)
        rates, weights = self.ENSEMBLE.rates, self.ENSEMBLE.weights
        streams = ((_mc.sample_frozen_events(4, 1000, tg[-1], rates, weights), "forward"),
                   (_mc.sample_renewal_events(4, 1000, tg[-1], rates, weights), "reversed"))
        whole = [self.moments(model, tg, *s, c) for s, c in streams]
        monkeypatch.setattr(_mc, "HIST_CELLS", 1)
        for (times, off), composition in streams:
            one_each = self.moments(model, tg, times, off, composition)
            for a, b in zip(whole.pop(0), one_each):
                assert np.max(np.abs(a - b)) < 1e-14

    def test_blocks_split_count_groups(self, monkeypatch):
        # blocks of 7 trajectories in count order: ragged, and tied counts straddle blocks
        model = self.models()[1]
        tg = nm.time_grid(3.0, 30)
        rates, weights = self.ENSEMBLE.rates, self.ENSEMBLE.weights
        # cells per trajectory: forward, one row of 4 entries and 4 + 10 features;
        # reversed, the 3 rows i <= j of 4 entries and the same 4 + 10 features
        for sample, seed, composition, cells in ((_mc.sample_frozen_events, 14, "forward", 18),
                                                 (_mc.sample_renewal_events, 5, "reversed", 54)):
            times, off = sample(seed, 1000, tg[-1], rates, weights)
            groups = np.bincount(np.diff(off))
            assert 1000 % 7 and np.all(groups[groups > 0] % 7)
            whole = self.moments(model, tg, times, off, composition)
            monkeypatch.setattr(_mc, "HIST_CELLS", 7 * cells)
            sevens = self.moments(model, tg, times, off, composition)
            monkeypatch.undo()
            for a, b in zip(whole, sevens):
                assert np.max(np.abs(a - b)) < 1e-14

    def test_feature_widths_of_the_bench_model(self, monkeypatch):
        # sigma_z precession with sigma_x events: W is a permutation, the
        # populations are a coupled set of frequency 0 and only the coherence
        # pair {rho_01, rho_10} precesses.  Event rounds: the forward string
        # sums the one entry y_01 that a row reads and its square; the
        # reversed string, for the one row that reads rho_01, the 2 entries
        # of its row of B that c0 reads and their 3 pairs.  The count
        # histogram takes the 2 still population rows as complex columns
        # (Re, Im pairs) on both strings: the 2 populations and their squares
        widths, hist = [], []
        event_sums, count_histogram_sums = _mc._event_sums, _mc._count_histogram_sums

        def spy(*args):
            sums = event_sums(*args)
            widths.append(sums.shape[1])
            return sums

        def hist_spy(cols, *args):
            hist.append(cols.shape[1])
            return count_histogram_sums(cols, *args)

        monkeypatch.setattr(_mc, "_event_sums", spy)
        monkeypatch.setattr(_mc, "_count_histogram_sums", hist_spy)
        model = sigma_x_model(self.ENSEMBLE)
        tg = nm.time_grid(3.0, 30)
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            self.moments(model, tg, *sample(3, 50, tg[-1], self.ENSEMBLE.rates,
                                            self.ENSEMBLE.weights), composition)
        assert widths == [2, 5]
        assert hist == [8, 8]


class TestPerSetRoute:
    """Coupled sets of E' with one frequency take the count histogram; the rest take event rounds.

    The reference carries every column through the event rounds on the same
    events (:func:`helpers.event_round_moments`).
    """

    ENSEMBLE = TestEigenbasisRoute.ENSEMBLE
    SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
    SHIFT = np.roll(np.eye(3), 1, axis=0)

    CASES = ["bench", "sigma_pm", "ladder", "cyclic", "measured", "dense"]

    def model(self, case):
        rng = np.random.default_rng(70)
        if case == "bench":
            return sigma_x_model(self.ENSEMBLE, omega=1.7)
        if case == "sigma_pm":
            # the coherences are sets of one column each, of frequency w or -w
            # but not both, and E' takes them to 0
            return nm.ModelSpec(0.6 * SIGMA_Z, (self.SIGMA_PLUS, self.SIGMA_PLUS.T),
                                self.ENSEMBLE, "schroedinger")
        if case == "ladder":
            # lowering |0><1| + |1><2| and |2><0| on unequal steps: rho_12
            # (frequency -1.5) and rho_01 (frequency -1) are one set
            wrap = np.zeros((3, 3))
            wrap[2, 0] = 1.0
            return nm.ModelSpec(np.diag([0.0, 1.0, 2.5]), (np.diag([1.0, 1.0], k=1), wrap),
                                self.ENSEMBLE, "schroedinger")
        if case == "cyclic":
            # {rho_01, rho_12, rho_20}: frequencies -1, -1 and 2
            return nm.ModelSpec(np.diag([0.0, 1.0, 2.0]), (self.SHIFT,), self.ENSEMBLE,
                                "schroedinger")
        if case == "measured":
            # eigenstates |+->, mixtures of |0> and |1>, and |2>; the event
            # measures whether the state is in {|0>, |1>}, so E' takes rho_+2
            # and rho_-2 to 0: sets of one column each, of different
            # frequencies, which the row rho_02 reads together
            H = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
            return nm.ModelSpec(H, (np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])),
                                self.ENSEMBLE, "schroedinger")
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return nm.ModelSpec(A + A.conj().T, random_normalized_jumps(rng, d=3), self.ENSEMBLE,
                            "schroedinger")

    def v0(self, d):
        return qops.vectorize(random_density(np.random.default_rng(71), d))

    def both(self, model, tg, times, off, composition):
        args = (self.v0(model.dim), tg, times, off, model.hamiltonian, model.E, composition)
        return _mc.run_trajectories(*args), event_round_moments(*args)

    @pytest.mark.parametrize("case", CASES)
    def test_matches_event_rounds(self, case):
        model = self.model(case)
        tg = nm.time_grid(3.0, 30)
        ens = self.ENSEMBLE
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(6, 500, tg[-1], ens.rates, ens.weights)
            (mean, stderr), (ref_mean, ref_stderr) = self.both(model, tg, times, off, composition)
            if case == "dense":
                # one coupled set: the event rounds of every column, bit for bit
                assert np.array_equal(mean, ref_mean) and np.array_equal(stderr, ref_stderr)
            assert np.max(np.abs(mean - ref_mean)) < 1e-14
            assert np.max(np.abs(stderr - ref_stderr)) < 1e-14
            assert np.all(stderr[1:].max(axis=1) > 0)

    @pytest.mark.parametrize("case", ["bench", "sigma_pm", "ladder", "cyclic", "measured"])
    def test_still_rows_do_not_depend_on_the_string(self, case):
        # a row that reads only sets of one frequency is at W E'^N c0 under
        # both orderings: on one event stream both strings give the same bits
        model = self.model(case)
        W, lam = _mc._eigenbasis(model.hamiltonian)
        static = np.zeros(lam.size, dtype=bool)
        for sets in qops.coupled_sets(W.conj().T @ model.E @ W != 0):
            static[sets] = np.all(lam[sets] == lam[sets[:, :1]], axis=1)[:, None]
        still = np.all(static | (W == 0), axis=1)
        assert still.any() and (case != "sigma_pm" or still.all())
        tg = nm.time_grid(3.0, 30)
        ens = self.ENSEMBLE
        times, off = _mc.sample_frozen_events(6, 500, tg[-1], ens.rates, ens.weights)
        forward, reversed_ = (_mc.run_trajectories(self.v0(model.dim), tg, times, off,
                                                   model.hamiltonian, model.E, composition)
                              for composition in ("forward", "reversed"))
        for a, b in zip(forward, reversed_):
            assert np.array_equal(a[:, still], b[:, still])

    def test_pair_joins_a_static_and_a_moving_set(self, monkeypatch):
        # (W, lam) given directly, with 0/1 entries so that E' = W^T E W is
        # exact: E' swaps columns 1 and 2 (frequency 0) and columns 0 and 3
        # (frequencies -1 and 1), and output row 0 reads columns 0 and 1
        # together, so the forward string must carry both in event rounds
        W = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        swap = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
        Winv = np.rint(np.linalg.inv(W.real))
        E = Winv.T @ swap @ Winv
        monkeypatch.setattr(_mc, "_eigenbasis", lambda H: (W, 1j * np.array([-1.0, 0, 0, 1])))
        assert np.array_equal(W.T @ E @ W, swap)
        tg = nm.time_grid(3.0, 30)
        ens = self.ENSEMBLE
        v0 = self.v0(2)
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(9, 500, tg[-1], ens.rates, ens.weights)
            args = (v0, tg, times, off, np.eye(2), E, composition)
            for a, b in zip(_mc.run_trajectories(*args), event_round_moments(*args)):
                assert np.max(np.abs(a - b)) < 1e-14

    @pytest.mark.parametrize("case", ["ladder", "cyclic"])
    def test_precessing_sets_of_uneven_spectrum(self, case):
        # the moving sets hold w without -w: the event rounds against dense
        # propagators between events
        model = self.model(case)
        tg = nm.time_grid(3.0, 30)
        ens = self.ENSEMBLE
        v0 = self.v0(model.dim)
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(10, 200, tg[-1], ens.rates, ens.weights)
            mean, stderr = _mc.run_trajectories(v0, tg, times, off, model.hamiltonian, model.E,
                                                composition)
            ref_mean, ref_stderr = trajectory_moments(v0, tg, times, off, model.L_H, model.E,
                                                      composition)
            assert np.max(np.abs(mean - ref_mean)) < 1e-12
            assert np.max(np.abs(stderr - ref_stderr)) < 1e-9

    def test_sigma_pm_coherences_vanish_after_one_event(self):
        # E' is 0 on the coherences: every trajectory with an event has rho_01 = 0
        model = self.model("sigma_pm")
        v0 = self.v0(2)
        tg = nm.time_grid(3.0, 30)
        times, off = np.array([0.0, 1.0]), np.array([0, 1, 2])
        for composition in ("forward", "reversed"):
            mean, _ = _mc.run_trajectories(v0, tg, times, off, model.hamiltonian, model.E,
                                           composition)
            assert not np.any(mean[-1, 1:3])

    def test_diagonal_start_leaves_the_coherences_unread(self):
        # c0 vanishes on the precessing set {rho_01, rho_10}: the reversed
        # readout of its rows touches no column, and they stay on a(t)
        model = sigma_x_model(self.ENSEMBLE)
        v0 = qops.vectorize(np.diag([0.7, 0.3]))
        tg = nm.time_grid(3.0, 30)
        ens = self.ENSEMBLE
        for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                    (_mc.sample_renewal_events, "reversed")):
            times, off = sample(11, 200, tg[-1], ens.rates, ens.weights)
            mean, stderr = _mc.run_trajectories(v0, tg, times, off, model.hamiltonian, model.E,
                                                composition)
            ref_mean, ref_stderr = trajectory_moments(v0, tg, times, off, model.L_H, model.E,
                                                      composition)
            assert np.max(np.abs(mean - ref_mean)) < 1e-12
            assert np.max(np.abs(stderr - ref_stderr)) < 1e-9

    @pytest.mark.parametrize("case", CASES)
    def test_edge_streams_and_blocks(self, case, monkeypatch):
        # one trajectory, trajectories without events, events on grid times;
        # then blocks small enough to split the histogram and the event rounds
        model = self.model(case)
        tg = nm.time_grid(3.0, 30)
        ens = self.ENSEMBLE
        for composition in ("forward", "reversed"):
            for times, off in EDGE_STREAMS:
                times, off = np.asarray(times, dtype=float), np.asarray(off)
                (mean, stderr), (ref_mean, ref_stderr) = self.both(
                    model, EDGE_GRID, times, off, composition)
                assert np.max(np.abs(mean - ref_mean)) < 1e-14
                assert np.max(np.abs(stderr - ref_stderr)) < 1e-14
            times, off = _mc.sample_renewal_events(8, 300, tg[-1], ens.rates, ens.weights)
            whole = self.both(model, tg, times, off, composition)[1]
            monkeypatch.setattr(_mc, "HIST_CELLS", 7)
            blocks = self.both(model, tg, times, off, composition)[0]
            monkeypatch.undo()
            for a, b in zip(whole, blocks):
                assert np.max(np.abs(a - b)) < 1e-14


@pytest.mark.parametrize("route", ["count_histogram", "eigenbasis"])
@pytest.mark.parametrize("d", [2, 3])
def test_mean_is_hermitian(route, d):
    # entry (j, i) is the conjugate of entry (i, j) bit for bit, with the same
    # standard error, and the diagonal is real
    rng = np.random.default_rng(21)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    model = nm.ModelSpec(A + A.conj().T, random_normalized_jumps(rng, d=d),
                         TestEigenbasisRoute.ENSEMBLE, "schroedinger")
    H = model.hamiltonian if route == "eigenbasis" else None
    v0 = qops.vectorize(random_density(rng, d))
    tg = nm.time_grid(3.0, 30)
    ens = model.ensemble
    for sample, composition in ((_mc.sample_frozen_events, "forward"),
                                (_mc.sample_renewal_events, "reversed")):
        times, off = sample(5, 300, tg[-1], ens.rates, ens.weights)
        mean, stderr = _mc.run_trajectories(v0, tg, times, off, H, model.E,
                                            composition=composition)
        mean, stderr = (a.reshape(-1, d, d, order="F") for a in (mean, stderr))
        assert np.array_equal(mean, mean.conj().transpose(0, 2, 1))
        assert np.array_equal(stderr, stderr.transpose(0, 2, 1))
        assert not np.any(np.diagonal(mean, axis1=1, axis2=2).imag)
        assert np.all(stderr[1:].max(axis=(1, 2)) > 0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sorted_frequencies_are_odd(d):
    # _eigenbasis sorts the frequencies of L_H ascending, so that equal values
    # are contiguous for _runs and _event_sums, and omega[::-1] == -omega
    # exactly, degenerate spectra included
    rng = np.random.default_rng(40 + d)
    A = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    hamiltonians = [*(A + A.conj().transpose(0, 2, 1)),
                    *(np.diag(rng.integers(-2, 3, size=d)).astype(float) for _ in range(10))]
    for H in hamiltonians:
        W, lam = _mc._eigenbasis(H)
        assert np.all(np.diff(lam.imag) >= 0)
        assert np.array_equal(lam.imag[::-1], -lam.imag)
        assert np.allclose(W @ np.diag(np.exp(0.3 * lam)) @ W.conj().T,
                           scipy.linalg.expm(0.3 * qops.hamiltonian_liouvillian(H)), atol=1e-12)


class TestInvariants:
    def test_complete_positivity_of_reconstructed_maps(self):
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(6.0, 300)
        for maps in (dynamics.ensemble_propagator_series(model, tg),
                     dynamics.volterra_propagator_series(model, tg)):
            mins = np.array([qops.choi_min_eigenvalue(m) for m in maps[::20]])
            assert np.min(mins) >= -1e-8

    def test_nonlocality_witness(self):
        # beta > 0: no time-independent generator reproduces the flow
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        model = nm.dephasing_model(ens)
        tg = nm.time_grid(8.0, 800)
        res = nm.evolve_ensemble(model, RHO_PLUS, tg)
        vecs = np.array([qops.vectorize(s) for s in res.states])
        h = tg[1] - tg[0]
        deriv = (vecs[2:] - vecs[:-2]) / (2 * h)
        mid = vecs[1:-1]
        X, *_ = np.linalg.lstsq(mid, deriv, rcond=None)
        resid = np.max(np.abs(deriv - mid @ X))
        assert resid > 1e-3

    def test_markov_case_is_local(self):
        # contrast: a single rate admits an exact time-independent generator
        model = nm.dephasing_model(single_rate_ensemble(1.5))
        tg = nm.time_grid(8.0, 800)
        res = nm.evolve_ensemble(model, RHO_PLUS, tg)
        vecs = np.array([qops.vectorize(s) for s in res.states])
        h = tg[1] - tg[0]
        deriv = (vecs[2:] - vecs[:-2]) / (2 * h)
        mid = vecs[1:-1]
        X, *_ = np.linalg.lstsq(mid, deriv, rcond=None)
        resid = np.max(np.abs(deriv - mid @ X))
        assert resid < 1e-3

    def test_grid_validation(self):
        model = nm.dephasing_model(single_rate_ensemble(1.0))
        with pytest.raises(ValueError, match="uniform"):
            nm.evolve_ensemble(model, RHO_PLUS, np.array([0.0, 0.1, 0.3]))
        with pytest.raises(ValueError):
            nm.time_grid(-1.0, 10)


class TestNoEigensolverPerGridTime:
    """Qubit states and dephasing maps take their smallest eigenvalues without LAPACK."""

    EVOLVE_CFG = ("ensemble.type = two_state\ngrid.t_max = 5.0\ngrid.steps = 200\n"
                  "solver.methods = ensemble,volterra,mc_frozen,mc_renewal\n"
                  "solver.trajectories = 2000\nsolver.seed = 3\n")
    CPCHECK_CFG = ("ensemble.type = two_state\ngrid.t_max = 5.0\ngrid.steps = 200\n"
                   "solver.methods = ensemble,volterra\n")

    @staticmethod
    def refuse_stacks(monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def single_matrices_only(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise AssertionError(f"eigvalsh on a stack of shape {np.shape(a)}")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", single_matrices_only)

    @pytest.mark.parametrize("command", ["evolve", "cpcheck"])
    def test_dephasing_qubit_commands(self, tmp_path, monkeypatch, command):
        self.refuse_stacks(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.EVOLVE_CFG if command == "evolve" else self.CPCHECK_CFG)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_values_match_the_stacked_eigensolver(self, monkeypatch):
        model = nm.dephasing_model(nm.two_state_ensemble(0.5, 2.0, 1.0), picture="schroedinger")
        tg = nm.time_grid(5.0, 200)
        eigvalsh = np.linalg.eigvalsh
        self.refuse_stacks(monkeypatch)
        results = [nm.evolve_ensemble(model, RHO_XY, tg), nm.evolve_volterra(model, RHO_XY, tg)]
        maps = dynamics.ensemble_propagator_series(model, tg)
        mins = qops.choi_min_eigenvalue(maps)
        monkeypatch.undo()
        for res in results:
            herm = 0.5 * (res.states + np.conj(np.swapaxes(res.states, 1, 2)))
            assert np.max(np.abs(res.min_eigenvalue - eigvalsh(herm)[:, 0])) <= 1e-15
        choi = qops.choi_matrix(maps)
        ref = eigvalsh(0.5 * (choi + np.conj(np.swapaxes(choi, 1, 2))))[:, 0]
        assert np.max(np.abs(mins - ref)) <= 1e-15

    @pytest.mark.parametrize("start", ["random", "diagonal"])
    def test_qutrit_matches_the_stacked_eigensolver(self, start):
        # decay |2> -> |1> -> |0> with a dense start (one 3 x 3 block) or a
        # diagonal one (populations only, blocks of one row)
        ens = nm.two_state_ensemble(0.5, 2.0, 1.0)
        jump = np.diag([1.0, 1.0], k=1).astype(complex)
        model = nm.ModelSpec(np.diag([1.0, 0.0, -1.0]).astype(complex), (jump,), ens,
                             "schroedinger")
        rho0 = (random_density(np.random.default_rng(8), 3) if start == "random"
                else np.diag([0.1, 0.3, 0.6]).astype(complex))
        tg = nm.time_grid(4.0, 100)
        for res in (nm.evolve_ensemble(model, rho0, tg), nm.evolve_volterra(model, rho0, tg)):
            herm = 0.5 * (res.states + np.conj(np.swapaxes(res.states, 1, 2)))
            ref = np.linalg.eigvalsh(herm)[:, 0]
            assert np.max(np.abs(res.min_eigenvalue - ref)) <= 1e-13
