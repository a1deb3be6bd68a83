import numpy as np
import pytest

import nmbath as nm
from nmbath import dynamics, qops, qrt
from nmbath.qops import SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2

from helpers import (apply_superop, dephasing_analytic, expectation_series, heisenberg_generator,
                     observable_propagator, propagate, qrt_prediction, single_rate_ensemble,
                     stationary_state)

RHO_PLUS = 0.5 * (IDENTITY_2 + SIGMA_X)
RHO_Y = 0.5 * (IDENTITY_2 + SIGMA_Y)
BASIS = qrt.pauli_basis()

TWO_RATE = nm.rate_ensemble([1.0, 2.0], [0.5, 0.5])


def random_density(rng):
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def raw_sigma_z_model(gamma):
    """Explicit V = sigma_z: coherences decay at 2*gamma."""
    return nm.ModelSpec(0.5 * SIGMA_Z, (SIGMA_Z,), single_rate_ensemble(gamma),
                        "interaction")


class TestExpectationSeries:
    def test_dephasing_survival_envelope(self):
        model = nm.dephasing_model(TWO_RATE)
        tg = np.linspace(0.0, 6.0, 13)
        series = expectation_series(model, RHO_PLUS, BASIS, tg)
        p0 = nm.survival(TWO_RATE, tg)
        assert np.max(np.abs(series[0] - p0)) < 1e-12
        assert np.max(np.abs(series[2])) < 1e-12
        assert np.max(np.abs(series[3] - 1.0)) < 1e-12

    def test_maximally_mixed(self):
        model = nm.dephasing_model(TWO_RATE)
        series = expectation_series(model, 0.5 * IDENTITY_2, BASIS,
                                        np.linspace(0.0, 4.0, 9))
        assert np.max(np.abs(series[:3])) < 1e-13

    def test_raw_sigma_z_rate(self):
        gamma = 0.8
        tg = np.linspace(0.0, 3.0, 7)
        series = expectation_series(raw_sigma_z_model(gamma), RHO_PLUS, BASIS, tg)
        assert np.max(np.abs(series[0] - np.exp(-2 * gamma * tg))) < 1e-12

    def test_matches_evolution_trace(self):
        model = nm.dephasing_model(TWO_RATE)
        tg = nm.time_grid(4.0, 50)
        rng = np.random.default_rng(2)
        rho0 = random_density(rng)
        series = expectation_series(model, rho0, BASIS, tg)
        res = nm.evolve_ensemble(model, rho0, tg)
        direct = np.array([[np.trace(A @ s) for s in res.states] for A in BASIS])
        assert np.max(np.abs(series - direct)) < 1e-10


class TestObservablePropagator:
    def test_dephasing_diagonal_form(self):
        model = nm.dephasing_model(TWO_RATE)
        taug = np.linspace(0.0, 5.0, 11)
        G = observable_propagator(model, BASIS, taug)
        p0 = nm.survival(TWO_RATE, taug)
        expected = np.zeros_like(G)
        for k in range(taug.size):
            expected[k] = np.diag([p0[k], p0[k], 1.0, 1.0])
        assert np.max(np.abs(G - expected)) < 1e-12

    def test_identity_at_zero(self):
        model = nm.dephasing_model(TWO_RATE)
        G = observable_propagator(model, BASIS, [0.0])
        assert np.max(np.abs(G[0] - np.eye(4))) < 1e-12

    def test_gram_condition_guard(self):
        bad_basis = (SIGMA_X, SIGMA_X + 1e-9 * SIGMA_Y, SIGMA_Z, IDENTITY_2)
        with pytest.raises(ValueError, match="ill-conditioned"):
            observable_propagator(nm.dephasing_model(TWO_RATE), bad_basis, [0.0])


class TestTwoTimeCorrelation:
    def test_tau_zero_equal_time(self):
        model = nm.dephasing_model(TWO_RATE)
        out = qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, 1.3, 0.0)
        # direct rate-resolved equal-time average
        expect = np.zeros(4, dtype=complex)
        for rate, weight in zip(TWO_RATE.rates, TWO_RATE.weights):
            gen = dynamics.generator(model, rate)
            rho_t = apply_superop(propagate(gen, 1.3), RHO_Y)
            expect += weight * np.array([np.trace(A @ rho_t @ SIGMA_Z) for A in BASIS])
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_markov_qrt_value(self):
        gamma = 1.3
        out = qrt.two_time_correlation(raw_sigma_z_model(gamma), 0.5 * IDENTITY_2,
                                       SIGMA_X, BASIS, 1.0, 0.8)
        assert abs(out[0] - np.exp(-2 * gamma * 0.8)) < 1e-12

    def test_grids_match_scalar_calls(self):
        model = nm.ModelSpec(0.65 * SIGMA_Z, (SIGMA_X,), TWO_RATE, "schroedinger")
        tg, taug = np.array([0.2, 0.65, 1.1]), np.array([0.0, 0.75, 1.5, 2.25])
        grid = qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, tg, taug)
        assert grid.shape == (4, 3, 4)
        assert qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, tg, 0.5).shape == (4, 3)
        for k, t in enumerate(tg):
            for s, tau in enumerate(taug):
                point = qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, t, tau)
                assert np.max(np.abs(grid[:, k, s] - point)) < 1e-14

    @pytest.mark.parametrize("t,tau", [([0.0, 0.4, 1.3], 0.5), (0.5, [0.0, 0.5, 2.0, 3.0])])
    def test_non_arithmetic_grids_refused(self, t, tau):
        model = nm.ModelSpec(0.65 * SIGMA_Z, (SIGMA_X,), TWO_RATE, "schroedinger")
        with pytest.raises(ValueError, match="uniform"):
            qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, t, tau)

    def test_two_rate_memory_correction(self):
        model = nm.dephasing_model(TWO_RATE)
        surf = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, BASIS, [1.0], [1.0])
        h11 = qrt.dephasing_h(TWO_RATE, 1.0, 1.0)
        assert abs(abs(surf.residual[0, 0, 0]) - h11) < 1e-12
        assert abs(abs(surf.residual[0, 0, 0]) - 0.013520) < 1e-6


class TestPrediction:
    def test_single_rate_prediction_exact(self):
        model = nm.dephasing_model(single_rate_ensemble(1.5))
        taug = np.linspace(0.0, 4.0, 9)
        pred = qrt_prediction(model, RHO_Y, SIGMA_Z, BASIS, 0.9, taug)
        actual = qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, 0.9, taug)
        assert np.max(np.abs(pred - actual)) < 1e-12

    def test_tau_zero_anchored(self):
        model = nm.dephasing_model(TWO_RATE)
        pred = qrt_prediction(model, RHO_Y, SIGMA_Z, BASIS, 0.7, [0.0])
        actual = qrt.two_time_correlation(model, RHO_Y, SIGMA_Z, BASIS, 0.7, 0.0)
        assert np.max(np.abs(pred[:, 0] - actual)) < 1e-12


class TestResidualSurface:
    def test_single_rate_zero(self):
        model = nm.dephasing_model(single_rate_ensemble(1.5))
        tg = np.linspace(0.0, 4.0, 9)
        surf = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, BASIS, tg, tg)
        assert np.max(np.abs(surf.residual)) < 1e-10

    def test_tau_zero_column_vanishes(self):
        model = nm.dephasing_model(TWO_RATE)
        tg = np.linspace(0.0, 4.0, 5)
        surf = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, BASIS, tg, tg)
        assert np.max(np.abs(surf.residual[:, 0, :])) < 1e-13

    def test_closed_form_surface(self):
        model = nm.dephasing_model(TWO_RATE)
        tg = np.linspace(0.0, 5.0, 20)
        taug = np.linspace(0.0, 5.0, 20)
        surf = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, BASIS, tg, taug)
        closed = qrt.dephasing_residual_closed_form(TWO_RATE, RHO_Y, SIGMA_Z, BASIS, tg, taug)
        assert np.max(np.abs(surf.residual - closed)) < 1e-8

    def test_stationary_initial_state_no_residual(self):
        model = nm.dephasing_model(TWO_RATE)
        rho_inf = np.diag([0.3, 0.7]).astype(complex)
        tg = np.linspace(0.0, 3.0, 7)
        surf = qrt.qrt_residual(model, rho_inf, SIGMA_Z, BASIS, tg, tg)
        assert np.max(np.abs(surf.residual)) < 1e-12

    def test_envelope_decay(self):
        model = nm.dephasing_model(TWO_RATE)
        st = nm.stats(TWO_RATE)
        t_late = 20.0 / st.mean_rate
        taug = np.linspace(0.0, 4.0, 41)
        surf = qrt.qrt_residual(model, RHO_Y, SIGMA_Z, BASIS, [0.0, t_late], taug)
        scale = np.max(np.abs(surf.actual[0, 0, :]))
        envelope = surf.max_residual_per_t()
        assert envelope[-1] < 1e-6 * scale


class TestDephasingClosedForms:
    def test_h_values(self):
        p0 = lambda t: nm.survival(TWO_RATE, t)
        assert abs(qrt.dephasing_h(TWO_RATE, 1.0, 1.0) - (p0(2.0) - p0(1.0) ** 2)) < 1e-14
        assert abs(qrt.dephasing_h(TWO_RATE, 0.0, 1.7)) < 1e-14

    def test_analytic_map_limits(self):
        rho = dephasing_analytic(TWO_RATE, RHO_Y, 0.0)
        assert np.max(np.abs(rho - RHO_Y)) < 1e-14
        rho_inf = dephasing_analytic(TWO_RATE, RHO_Y, 1e6)
        assert np.max(np.abs(rho_inf - np.diag(np.diag(RHO_Y)))) < 1e-12

    def test_g_plus_value(self):
        rho = dephasing_analytic(TWO_RATE, RHO_PLUS, 1.0)
        g_plus = 0.5 * (1.0 + nm.survival(TWO_RATE, 1.0))
        assert abs(g_plus - 0.625804) < 5e-7
        assert abs(rho[0, 1] - (2 * g_plus - 1.0) * RHO_PLUS[0, 1]) < 1e-14

    def test_analytic_matches_solver(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            rates = np.sort(rng.uniform(0.2, 3.0, n))
            weights = rng.uniform(0.1, 1.0, n)
            weights /= weights.sum()
            ens = nm.rate_ensemble(rates, weights)
            model = nm.dephasing_model(ens)
            rho0 = random_density(rng)
            tg = nm.time_grid(5.0, 50)
            res = nm.evolve_ensemble(model, rho0, tg)
            for k in (0, 17, 50):
                direct = dephasing_analytic(ens, rho0, tg[k])
                assert np.max(np.abs(res.states[k] - direct)) < 1e-8


class TestStationaryState:
    def test_dephasing_keeps_populations(self):
        model = nm.dephasing_model(TWO_RATE)
        rho_inf = stationary_state(model, RHO_Y)
        assert np.max(np.abs(rho_inf - np.diag(np.diag(RHO_Y)))) < 1e-12
        assert abs(np.trace(rho_inf) - 1.0) < 1e-12


class TestHeisenbergGenerator:
    def test_adjoint_relation(self):
        model = nm.dephasing_model(TWO_RATE)
        rng = np.random.default_rng(5)
        for rate in TWO_RATE.rates:
            M = heisenberg_generator(model, rate, BASIS)
            gen = dynamics.generator(model, rate)
            for _ in range(20):
                S = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                lhs = np.array([np.trace(A @ apply_superop(gen, S)) for A in BASIS])
                rhs = M @ np.array([np.trace(A @ S) for A in BASIS])
                assert np.max(np.abs(lhs - rhs)) < 1e-10
