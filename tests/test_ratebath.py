import math

import numpy as np
import pytest

import nmbath.ratebath as rb

from helpers import f_of_u, p0_of_u, single_rate_ensemble


def random_ensemble(rng, max_n=6):
    n = int(rng.integers(1, max_n))
    rates = np.sort(rng.uniform(0.2, 3.0, n))
    while np.any(np.diff(rates) < 1e-3):
        rates = np.sort(rng.uniform(0.2, 3.0, n))
    weights = rng.uniform(0.1, 1.0, n)
    weights /= weights.sum()
    return rb.rate_ensemble(rates, weights)


def renewal_equation_oracle(ens, tgrid):
    """Quadrature solution of f = w + w * f (trapezoid, Richardson-extrapolated).

    Independent of the partial-fraction route: only the waiting density is
    shared input.
    """

    def solve(tg):
        h = tg[1] - tg[0]
        w = rb.waiting_density(ens, tg)
        f = np.empty(tg.size)
        f[0] = w[0]
        for k in range(1, tg.size):
            hist = np.dot(w[k - 1:0:-1], f[1:k]) if k > 1 else 0.0
            rhs = w[k] + h * (0.5 * w[k] * f[0] + hist)
            f[k] = rhs / (1.0 - 0.5 * h * w[0])
        return f

    coarse = solve(tgrid)
    fine_grid = np.linspace(tgrid[0], tgrid[-1], 2 * (tgrid.size - 1) + 1)
    fine = solve(fine_grid)[::2]
    return (4.0 * fine - coarse) / 3.0


class TestEnsembleConstruction:
    def test_two_state_stats(self):
        st = rb.stats(rb.two_state_ensemble(0.5, 2.0, 1.0))
        assert math.isclose(st.mean_rate, 1.5)
        assert math.isclose(st.second_moment, 2.5)
        assert math.isclose(st.fluctuation_rate, 1.0 / 6.0)
        assert math.isclose(st.eta, 1.5)
        assert math.isclose(st.mean_waiting_time, 0.75)

    def test_two_state_degenerate_weight(self):
        ens = rb.two_state_ensemble(1.0, 1.7, 0.4)
        assert ens.n == 1
        st = rb.stats(ens)
        assert math.isclose(st.mean_rate, 1.7)
        assert st.fluctuation_rate == 0.0

    def test_two_state_identity(self):
        st = rb.stats(rb.two_state_ensemble(0.5, 2.0, 1.0))
        lhs = st.eta * (1.0 - 1.0 / (st.mean_rate * st.mean_waiting_time))
        assert math.isclose(lhs, st.fluctuation_rate, rel_tol=0, abs_tol=1e-14)

    def test_two_state_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            rb.two_state_ensemble(1.2, 1.0, 1.0)

    def test_manifold_small_case(self):
        ens = rb.manifold_ensemble(1.0, math.log(2), math.log(2), 2)
        assert np.allclose(ens.weights, [2 / 3, 1 / 3])
        assert np.allclose(ens.rates, [1.0, 0.5])
        st = rb.stats(ens)
        assert math.isclose(st.mean_rate, 5.0 / 6.0)
        assert math.isclose(st.mean_waiting_time, 4.0 / 3.0)

    def test_manifold_closed_forms(self):
        # product formulas for <gamma> and <tau> of the geometric family
        gamma, a, b, n = 1.3, 0.4, 0.7, 12
        ens = rb.manifold_ensemble(gamma, a, b, n)
        st = rb.stats(ens)
        mg = gamma * (1 - np.exp(-a)) / (1 - np.exp(-(a + b))) \
            * (1 - np.exp(-(a + b) * n)) / (1 - np.exp(-a * n))
        mt = (1 / gamma) * (1 - np.exp(-a)) / (1 - np.exp(-(a - b))) \
            * (1 - np.exp(-(a - b) * n)) / (1 - np.exp(-a * n))
        assert math.isclose(st.mean_rate, mg, rel_tol=1e-12)
        assert math.isclose(st.mean_waiting_time, mt, rel_tol=1e-12)

    def test_manifold_alpha(self):
        assert math.isclose(rb.manifold_ensemble(1.0, 0.25, 0.5, 400).alpha, 0.5)
        st = rb.stats(rb.manifold_ensemble(1.0, 0.25, 0.5, 400))
        assert math.isclose(st.alpha, 0.5)

    def test_manifold_b_zero(self):
        ens = rb.manifold_ensemble(2.0, 0.7, 0.0, 5)
        st = rb.stats(ens)
        assert ens.n == 1
        assert math.isclose(st.mean_rate, 2.0)
        assert st.fluctuation_rate == 0.0

    def test_manifold_rejects_negative_b(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rb.manifold_ensemble(1.0, 0.3, -0.2, 10)

    def test_manifold_n_one(self):
        ens = rb.manifold_ensemble(1.5, 0.3, 0.4, 1)
        assert ens.n == 1
        with pytest.raises(ValueError):
            rb.manifold_ensemble(1.0, 0.3, 0.4, 0)

    def test_single_rate_product(self):
        st = rb.stats(single_rate_ensemble(2.3))
        assert math.isclose(st.mean_rate * st.mean_waiting_time, 1.0)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            st = rb.stats(random_ensemble(rng))
            assert st.mean_rate * st.mean_waiting_time >= 1.0 - 1e-12
            assert st.fluctuation_rate >= -1e-12

    def test_zero_rate_gives_infinite_tau(self):
        st = rb.stats(rb.rate_ensemble([1.0, 0.0], [0.5, 0.5]))
        assert math.isinf(st.mean_waiting_time)

    @pytest.mark.parametrize("build", [
        lambda: rb.rate_ensemble([math.nan, 1.0], [0.5, 0.5]),
        lambda: rb.rate_ensemble([math.inf, 1.0], [0.5, 0.5]),
        lambda: rb.rate_ensemble([2.0, 1.0], [math.nan, 0.5]),
        lambda: rb.manifold_ensemble(1.0, math.nan, 0.4, 5),
        lambda: rb.manifold_ensemble(1.0, 0.3, math.inf, 5),
        lambda: rb.manifold_ensemble(math.inf, 0.3, 0.4, 5),
        lambda: rb.two_state_ensemble(0.5, math.inf, 1.0),
        lambda: rb.two_state_ensemble(0.5, 2.0, math.nan),
        lambda: rb.fractional_model(0.5, math.nan, 1.0, 5.0),
        lambda: rb.fractional_model(0.5, 1.0, math.inf, 5.0),
        lambda: rb.fractional_model(0.5, 1.0, 1.0, math.nan),
        lambda: rb.fractional_model(0.5, 1.0, 1.0, -math.inf),
    ], ids=["rate_nan", "rate_inf", "weight_nan", "manifold_a_nan", "manifold_b_inf",
            "manifold_gamma_inf", "gamma_up_inf", "gamma_down_nan", "mean_rate_nan",
            "beta_inf", "tau_nan", "tau_minus_inf"])
    def test_non_finite_parameters_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_duplicate_rates_merge(self):
        ens = rb.rate_ensemble([1.0, 1.0 + 1e-12, 2.0], [0.3, 0.3, 0.4])
        assert ens.n == 2
        assert math.isclose(ens.weights[ens.rates < 1.5][0], 0.6)


class TestSurvival:
    def test_single_rate(self):
        ens = single_rate_ensemble(1.4)
        t = np.linspace(0, 5, 11)
        assert np.allclose(rb.survival(ens, t), np.exp(-1.4 * t), atol=1e-14)
        assert np.allclose(rb.waiting_density(ens, t), 1.4 * np.exp(-1.4 * t), atol=1e-14)

    def test_two_rate_value(self):
        ens = rb.rate_ensemble([1.0, 2.0], [0.5, 0.5])
        assert math.isclose(rb.survival(ens, 1.0), 0.5 * (np.exp(-1) + np.exp(-2)))
        assert math.isclose(rb.survival(ens, 1.0), 0.251607, rel_tol=0, abs_tol=5e-7)

    def test_normalization_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ens = random_ensemble(rng)
            t = np.linspace(0, 30, 400)
            p0 = rb.survival(ens, t)
            assert p0[0] == 1.0
            assert np.all(np.diff(p0) <= 0)
            assert np.all(rb.waiting_density(ens, t) >= 0)
            # quadrature normalization of w
            tt = np.linspace(0, 200.0 / rb.stats(ens).mean_rate, 200001)
            total = np.trapezoid(rb.waiting_density(ens, tt), tt)
            assert abs(total - 1.0) < 1e-6

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rb.survival(single_rate_ensemble(1.0), -0.1)


class TestSpectral:
    def test_single_rate_w(self):
        u = np.linspace(0.1, 10, 25)
        w = rb.w_of_u(single_rate_ensemble(1.3), u)
        assert np.allclose(w, 1.3 / (u + 1.3), atol=1e-14)

    def test_w_at_zero_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ens = random_ensemble(rng)
            assert abs(rb.w_of_u(ens, 0.0) - 1.0) < 1e-12

    def test_p0_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ens = random_ensemble(rng)
            u = np.linspace(0.05, 12.0, 40)
            p0 = p0_of_u(ens, u)
            assert np.max(np.abs(p0 - (1.0 - rb.w_of_u(ens, u)) / u)) < 1e-12

    def test_two_state_closed_form(self):
        # w(u) = <g> / (u + <g> + beta sigma(u)), sigma = u / (u + eta/(<g><tau>))
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.uniform(0.05, 0.95)
            g_up, g_down = np.sort(rng.uniform(0.2, 4.0, 2))[::-1]
            if g_up - g_down < 1e-3:
                continue
            ens = rb.two_state_ensemble(p, g_up, g_down)
            st = rb.stats(ens)
            u = np.linspace(0.05, 8.0, 20)
            sigma = u / (u + st.eta / (st.mean_rate * st.mean_waiting_time))
            closed = st.mean_rate / (u + st.mean_rate + st.fluctuation_rate * sigma)
            assert np.max(np.abs(rb.w_of_u(ens, u) - closed)) < 1e-10

    def test_high_frequency_limit(self):
        ens = rb.two_state_ensemble(0.5, 2.0, 1.0)
        st = rb.stats(ens)
        u = 1e6
        assert abs(u * rb.w_of_u(ens, u) - st.mean_rate) < 1e-4

    def test_low_frequency_expansion(self):
        # w(u) = 1 - u <tau> + O(u^2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            ens = random_ensemble(rng)
            st = rb.stats(ens)
            u = 1e-7
            w = rb.w_of_u(ens, u)
            assert abs((1.0 - w) / u - st.mean_waiting_time) < 1e-4


class TestKernelDecomposition:
    def test_single_rate_markov(self):
        ens = single_rate_ensemble(0.9)
        dec = rb.kernel_decompose(ens)
        assert dec.poles.size == 0
        assert math.isclose(dec.markov_weight, 0.9)
        assert dec.of_u(2.0) == 0.9 and isinstance(dec.of_u(2.0), complex)
        assert np.array_equal(dec.of_u(np.array([1.0, 2.0j])), [0.9, 0.9])
        # with no modes, events come at the one rate: f = gamma and K_reg = 0
        for t in (np.linspace(0.0, 3.0, 7), np.linspace(0.5, 3.0, 6), 1.0):
            f, k_reg = rb.renewal_series(ens, t)
            assert np.array_equal(f, np.full(np.size(t), 0.9))
            assert np.array_equal(k_reg, np.zeros(np.size(t)))
        with pytest.raises(ValueError, match="nonnegative"):
            rb.renewal_series(ens, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            rb.renewal_series(ens, np.linspace(-1.0, 1.0, 5))

    def test_of_u_sums_every_mode(self):
        dec = rb.kernel_decompose(rb.manifold_ensemble(1.0, 0.3, 0.4, 8))
        u = np.array([[0.5, 1.0 + 2.0j], [3.0, 10.0j]])
        direct = dec.markov_weight + sum(c / (u - p) for c, p in zip(dec.amplitudes, dec.poles))
        got = dec.of_u(u)
        assert got.shape == u.shape
        assert np.max(np.abs(got - direct) / np.abs(direct)) < 1e-14
        assert dec.of_u(0.5) == pytest.approx(direct[0, 0], rel=1e-14)

    def test_two_state_mode(self):
        dec = rb.kernel_decompose(rb.two_state_ensemble(0.5, 2.0, 1.0))
        assert math.isclose(dec.markov_weight, 1.5)
        assert np.allclose(dec.poles, [-1.5], atol=1e-12)
        assert np.allclose(dec.amplitudes, [-0.25], atol=1e-12)

    def test_two_state_closed_forms_random(self):
        # pole -eta, amplitude -<gamma> beta, within 1e-10
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = rng.uniform(0.05, 0.95)
            g_up, g_down = np.sort(rng.uniform(0.2, 4.0, 2))[::-1]
            if g_up - g_down < 1e-3:
                continue
            ens = rb.two_state_ensemble(p, g_up, g_down)
            st = rb.stats(ens)
            dec = rb.kernel_decompose(ens)
            assert abs(dec.poles[0] + st.eta) < 1e-10
            assert abs(dec.amplitudes[0] + st.mean_rate * st.fluctuation_rate) < 1e-10

    def test_interlacing(self):
        ens = rb.manifold_ensemble(1.0, 0.3, 0.6, 5)
        dec = rb.kernel_decompose(ens)
        neg = np.sort(-ens.rates)[::-1]
        for j, pole in enumerate(np.sort(dec.poles)[::-1]):
            assert neg[j + 1] < pole < neg[j]

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ens = random_ensemble(rng)
            dec = rb.kernel_decompose(ens)
            u = np.linspace(0.1, 10.0, 50) * rb.stats(ens).mean_rate
            exact = rb.w_of_u(ens, u) / p0_of_u(ens, u)
            assert np.max(np.abs(dec.of_u(u) - exact)) < 1e-8

    @pytest.mark.parametrize("n", [10, 40, 200])
    @pytest.mark.parametrize("a,b", [(0.1, 0.1), (0.3, 0.2), (0.3, 0.5)])
    def test_secular_poles_many_levels(self, n, a, b):
        # companion-matrix roots lost these manifolds from n = 12, 22 and 31
        ens = rb.manifold_ensemble(1.0, a, b, n)
        dec = rb.kernel_decompose(ens)
        assert dec.poles.size == ens.n - 1
        # poles descend, one strictly inside each gap of the negated rates
        neg = -ens.rates[::-1]
        assert np.all((neg[1:] < dec.poles) & (dec.poles < neg[:-1]))
        u = np.geomspace(1e-3, 1e3, 200) * rb.stats(ens).mean_rate
        exact = rb.kernel_of_u(ens, u)
        assert np.max(np.abs(dec.of_u(u) - exact) / np.abs(exact)) < 1e-12

    @pytest.mark.parametrize("n", [200, 400])
    def test_deflates_levels_below_round_off(self, n):
        # slow levels weighted near 1e-39 put a zero of P0 closer to their
        # rate than double precision resolves; without deflation the
        # interlacing gate refuses these manifolds
        ens = rb.manifold_ensemble(1.0, 0.5, 0.1, n)
        dec = rb.kernel_decompose(ens)
        assert 0 < dec.poles.size < ens.n - 1
        u = np.geomspace(1e-3, 1e3, 200) * rb.stats(ens).mean_rate
        exact = rb.kernel_of_u(ens, u)
        assert np.max(np.abs(dec.of_u(u) - exact) / np.abs(exact)) < 1e-12
        # the time domain agrees with numerical inversion of the full ensemble
        t = np.linspace(0.1, 20.0, 40) / rb.stats(ens).mean_rate
        got = rb.talbot_invert(lambda s: f_of_u(ens, s), t)
        assert np.max(np.abs(got - rb.renewal_series(ens, t)[0])) < 1e-9

    def test_markov_weight_is_mean_rate(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ens = random_ensemble(rng)
            assert math.isclose(rb.kernel_decompose(ens).markov_weight,
                                rb.stats(ens).mean_rate, rel_tol=1e-14)

    def test_rejects_zero_rates(self):
        with pytest.raises(ValueError):
            rb.kernel_decompose(rb.rate_ensemble([1.0, 0.0], [0.5, 0.5]))


class TestSprinkling:
    def test_single_rate_constant(self):
        ens = single_rate_ensemble(1.7)
        t = np.linspace(0, 10, 21)
        assert np.allclose(rb.renewal_series(ens, t)[0], 1.7, atol=1e-12)

    def test_two_state_closed_form(self):
        ens = rb.two_state_ensemble(0.5, 2.0, 1.0)
        st = rb.stats(ens)
        t = np.linspace(0.0, 10.0, 50)
        closed = st.mean_rate - (st.mean_rate - 1.0 / st.mean_waiting_time) * (
            1.0 - np.exp(-st.eta * t))
        assert np.max(np.abs(rb.renewal_series(ens, t)[0] - closed)) < 1e-10

    def test_limits(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ens = random_ensemble(rng)
            st = rb.stats(ens)
            dec = rb.kernel_decompose(ens)
            slowest = abs(dec.poles.max()) if dec.poles.size else st.mean_rate
            t_long = 40.0 / slowest
            assert abs(rb.renewal_series(ens, 0.0)[0] - st.mean_rate) < 1e-6 * st.mean_rate
            assert abs(rb.renewal_series(ens, t_long)[0] - 1.0 / st.mean_waiting_time) \
                < 1e-6 / st.mean_waiting_time

    def test_kernel_is_sprinkling_rate(self):
        # K_reg(t) = df/dt, checked with central finite differences
        ens = rb.two_state_ensemble(0.3, 2.5, 0.7)
        t = np.linspace(0.05, 8.0, 200)
        h = 1e-5
        f_plus, f_minus = rb.renewal_series(ens, t + h)[0], rb.renewal_series(ens, t - h)[0]
        dfdt = (f_plus - f_minus) / (2 * h)
        assert np.max(np.abs(dfdt - rb.renewal_series(ens, t)[1])) < 1e-4

    def test_renewal_equation_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ens = random_ensemble(rng)
            st = rb.stats(ens)
            tg = np.linspace(0.0, 20.0 / st.mean_rate, 2001)
            f_oracle = renewal_equation_oracle(ens, tg)
            assert np.max(np.abs(f_oracle - rb.renewal_series(ens, tg)[0])) < 1e-5


def pole_series(ens, t):
    """f(t) = 1/<tau> + sum_j (c_j/p_j) e^{p_j t} and K_reg(t) = sum_j c_j e^{p_j t} from the poles."""
    dec = rb.kernel_decompose(ens)
    modes = np.exp(np.multiply.outer(t, dec.poles))
    return (1.0 / rb.stats(ens).mean_waiting_time + modes @ (dec.amplitudes / dec.poles),
            modes @ dec.amplitudes)


def extended_precision_f(ens, t, digits=30):
    """f(t) = v^T e^{tA} v with A = -diag(gamma) + v v^T, v = sqrt(gamma P), by mpmath's eigsy."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(digits):
        v = [mp.sqrt(mp.mpf(g) * mp.mpf(p)) for g, p in zip(ens.rates, ens.weights)]
        n = len(v)
        A = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                A[i, j] = v[i] * v[j] - (mp.mpf(ens.rates[i]) if i == j else 0)
        eig, vecs = mp.eigsy(A)
        amps = [mp.fsum(vecs[i, k] * v[i] for i in range(n)) ** 2 for k in range(n)]
        return np.array([float(mp.fsum(c * mp.exp(e * mp.mpf(s)) for c, e in zip(amps, eig)))
                         for s in t])


def manifold_levels(a, b, n):
    """The n levels of a manifold as given, none merged."""
    levels = np.arange(n)
    weights = np.exp(-a * levels)
    return rb.RateEnsemble(np.exp(-b * levels), weights / weights.sum())


class TestRenewalSeries:
    @staticmethod
    def ensembles():
        rng = np.random.default_rng(11)
        yield from (random_ensemble(rng) for _ in range(10))
        yield rb.two_state_ensemble(0.5, 2.0, 1.0)
        yield rb.two_state_ensemble(0.3, 2.5, 0.7)
        for n in (200, 400):
            yield rb.manifold_ensemble(1.0, 0.5, 0.1, n)

    def test_matches_pole_sums(self):
        # the chain forms no pole: it checks the partial fractions independently
        for ens in self.ensembles():
            st = rb.stats(ens)
            for t in (np.linspace(0.0, 20.0, 201), np.linspace(0.1, 20.0, 40)):
                t = t / st.mean_rate
                for got, ref in zip(rb.renewal_series(ens, t), pole_series(ens, t)):
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_start_values(self):
        # f(0) = P^T gamma = <gamma>; K_reg(0) = <gamma>^2 - <gamma^2> = -<gamma> beta
        for ens in self.ensembles():
            st = rb.stats(ens)
            f, k_reg = rb.renewal_series(ens, np.linspace(0.0, 1.0, 3))
            assert abs(f[0] - st.mean_rate) <= 4 * np.spacing(st.mean_rate)
            expected = -st.mean_rate * st.fluctuation_rate
            assert abs(k_reg[0] - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("ens", [
        rb.RateEnsemble(np.array([1000.0, 2e-6, 1e-6]), np.full(3, 1.0 / 3.0)),
        manifold_levels(0.279, 0.581, 54)], ids=["custom", "manifold_n54"])
    def test_unmerged_slow_levels_match_extended_precision(self, ens):
        # rates down to 4.2e-14, where the kernel poles escape their intervals
        t = np.linspace(0.0, 1e6, 2001)
        f = rb.renewal_series(ens, t)[0]
        ref = extended_precision_f(ens, t[::20])
        assert np.max(np.abs(f[::20] - ref) / ref) <= 1e-12


class TestFractionalModel:
    def test_cutoff_solution(self):
        # alpha (beta/gc)^(1-alpha) = <g><tau> - 1 with everything at 1 gives gc = 1
        model = rb.fractional_model(0.5, 1.0, 1.0, 1.5)
        assert abs(model.cutoff - 1.0) < 1e-12
        lhs = model.alpha * (model.fluctuation_rate / model.cutoff) ** (1 - model.alpha)
        assert abs(lhs - 0.5) < 1e-12

    def test_infinite_tau(self):
        model = rb.fractional_model(0.5, 1.0, 1.0, math.inf)
        assert model.cutoff == 0.0
        assert math.isclose(model.amplitude, 1.0)

    def test_w_normalization_limit(self):
        model = rb.fractional_model(0.4, 1.2, 0.8, 2.0)
        assert abs(model.w_of_u(1e-10).real - 1.0) < 1e-5

    def test_w_decreasing_on_real_axis(self):
        model = rb.fractional_model(0.5, 1.0, 1.0, 1.5)
        u = np.linspace(1e-3, 50.0, 500)
        w = model.w_of_u(u).real
        assert np.all(w > 0) and np.all(w < 1)
        assert np.all(np.diff(w) < 0)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            rb.fractional_model(1.2, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="exceed 1"):
            rb.fractional_model(0.5, 1.0, 1.0, 0.9)
        with pytest.raises(ValueError, match="no root"):
            rb.fractional_model(0.5, 1.0, 1.0, 1e7)


    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.8])
    @pytest.mark.parametrize("beta,tau", [(0.5, 5.0), (1.3, 12.0), (2.0, 50.0)])
    def test_cutoff_solves_its_relation(self, alpha, beta, tau):
        model = rb.fractional_model(alpha, 1.0, beta, tau)
        residual = alpha * (beta / model.cutoff) ** (1.0 - alpha) - (tau - 1.0)
        assert abs(residual) <= 1e-13

    @pytest.mark.parametrize("alpha,tau", [(0.5, 1.001), (0.999, 1.001), (0.5, 1e7)],
                             ids=["above", "overflow", "below"])
    def test_cutoff_outside_range_refused(self, alpha, tau):
        with pytest.raises(ValueError, match=r"no root in \[1e-12, 1e3\]: residual\(1e-12\)"):
            rb.fractional_model(alpha, 1.0, 1.0, tau)

class TestTalbot:
    def test_simple_pole(self):
        t = np.linspace(0.1, 4.0, 20)
        got = rb.talbot_invert(lambda u: 1.0 / (u + 1.0), t)
        assert np.max(np.abs(got - np.exp(-t)) / np.exp(-t)) < 1e-8

    def test_two_state_waiting_density(self):
        ens = rb.two_state_ensemble(0.5, 2.0, 1.0)
        t = np.linspace(0.1, 5.0, 30)
        got = rb.talbot_invert(lambda u: rb.w_of_u(ens, u), t)
        exact = rb.waiting_density(ens, t)
        assert np.max(np.abs(got - exact) / exact) < 1e-8

    def test_sprinkling_long_window(self):
        # f has a positive floor, so pointwise relative accuracy holds far out
        ens = rb.two_state_ensemble(0.5, 2.0, 1.0)
        t = np.linspace(0.1, 50.0 / 1.5, 60)
        got = rb.talbot_invert(lambda u: f_of_u(ens, u), t)
        exact = rb.renewal_series(ens, t)[0]
        assert np.max(np.abs(got - exact) / exact) < 1e-8

    def test_node_doubling_self_convergence(self):
        ens = rb.two_state_ensemble(0.5, 2.0, 1.0)
        t = np.linspace(0.1, 30.0, 40)
        a = rb.talbot_invert(lambda u: f_of_u(ens, u), t, nodes=32)
        b = rb.talbot_invert(lambda u: f_of_u(ens, u), t, nodes=64)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_fractional_tail(self):
        model = rb.fractional_model(0.5, 1.0, 1.0, math.inf)
        t = np.geomspace(0.5, 50.0, 40)
        w = rb.talbot_invert(model.w_of_u, t)
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            rb.talbot_invert(lambda u: 1.0 / u, 0.0)

    @pytest.mark.parametrize("tau", [12.0, math.inf])
    def test_stack_equals_per_row_calls(self, tau):
        model = rb.fractional_model(0.4, 1.0, 1.3, tau)
        rows = (
            model.w_of_u,
            lambda u: (1.0 - model.w_of_u(u)) / u,
            lambda u: model.w_of_u(u) / (1.0 - model.w_of_u(u)),
            lambda u: model.kernel_of_u(u) - model.mean_rate,
        )
        t = np.linspace(0.05, 20.0, 37)
        stacked = rb.talbot_invert(model.series_of_u, t)
        assert stacked.shape == (4, t.size)
        for k, row in enumerate(rows):
            assert np.array_equal(stacked[k], rb.talbot_invert(row, t)), k
        at_one = rb.talbot_invert(model.series_of_u, t[5])
        assert at_one.shape == (4,) and np.array_equal(at_one, stacked[:, 5])

    @pytest.mark.parametrize("tau", [12.0, math.inf])
    def test_series_shares_sigma_bit_for_bit(self, tau):
        # one sigma(u) per node, the four transforms written in place
        model = rb.fractional_model(0.4, 1.0, 1.3, tau)
        assert (model.cutoff > 0) == (tau < math.inf)
        rng = np.random.default_rng(21)
        u = rng.uniform(-3.0, 3.0, (5, 16)) + 1j * rng.uniform(0.01, 3.0, (5, 16))
        u[0, :4] = [1e-8, 250.0 + 1e3j, 0.3 - 2j, 4.0]
        w = model.w_of_u(u)
        expected = np.stack([w, (1.0 - w) / u, w / (1.0 - w),
                             model.kernel_of_u(u) - model.mean_rate])
        got = model.series_of_u(u)
        assert got.shape == (4,) + u.shape
        assert got.tobytes() == expected.tobytes()

    def test_scalar_time_returns_scalar(self):
        got = rb.talbot_invert(lambda u: 1.0 / (u + 1.0), 2.0)
        assert isinstance(got, float)
        assert got == rb.talbot_invert(lambda u: 1.0 / (u + 1.0), np.array([2.0]))[0]

    def test_stack_names_the_time_a_row_overflows(self):
        def good(u):
            return 1.0 / (u + 1.0)

        def bad(u):
            # infinite on the nodes of t = 0.05, whose contour reaches u = 256
            return np.where(u.real > 100.0, np.inf, good(u))

        t = np.array([2.0, 0.05, 1.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError) as per_row:
                rb.talbot_invert(bad, t)
            with pytest.raises(FloatingPointError) as stacked:
                rb.talbot_invert(lambda u: np.stack([good(u), bad(u)]), t)
        assert "t = 0.05" in str(per_row.value)
        assert str(stacked.value) == str(per_row.value)


class TestPowerLawFit:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 100.0, 60)
        fit = rb.fit_power_law(t, t**-1.5, (1.0, 100.0))
        assert abs(fit.slope + 1.5) < 1e-9
        assert fit.r_squared > 1.0 - 1e-12

    def test_manifold_intermediate_regime(self):
        ens = rb.manifold_ensemble(1.0, 0.25, 0.5, 400)
        t = np.geomspace(5.0, 500.0, 200)
        fit = rb.fit_power_law(t, rb.waiting_density(ens, t), (5.0, 500.0))
        assert abs(fit.slope + 1.5) < 0.1
        assert fit.r_squared >= 0.999

    def test_exponential_rejected(self):
        t = np.geomspace(1.0, 10.0, 50)
        fit = rb.fit_power_law(t, np.exp(-1.3 * t), (1.0, 10.0))
        assert fit.r_squared < 0.95

    def test_too_few_points(self):
        t = np.geomspace(1.0, 100.0, 50)
        with pytest.raises(ValueError, match="need >= 10"):
            rb.fit_power_law(t, t**-2.0, (1.0, 1.05))

    def test_default_window(self):
        ens = rb.two_state_ensemble(0.5, 2.0, 1.0)
        lo, hi = rb.default_power_law_window(ens)
        assert lo < hi
        lo1, hi1 = rb.default_power_law_window(single_rate_ensemble(1.0))
        assert lo1 < hi1
