import numpy as np
import pytest
import scipy.integrate

from nmbath import qops
from nmbath.qops import SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2

from helpers import (apply_superop, devectorize, hermiticity_defect, propagate, resolvent,
                     trace_defect, union_find_sets)


def random_hermitian(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (M + M.conj().T)


def random_density(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def dephasing_generator(gamma):
    """Raw sigma_z dissipator: coherences decay at 2*gamma."""
    return gamma * qops.lindblad_dissipator([SIGMA_Z])


class TestVectorize:
    def test_identity_column_major(self):
        v = qops.vectorize(IDENTITY_2)
        assert np.array_equal(v, np.array([1, 0, 0, 1], dtype=complex))
        assert np.array_equal(devectorize(v), IDENTITY_2)

    def test_zero(self):
        assert np.all(qops.vectorize(np.zeros((3, 3))) == 0)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(devectorize(qops.vectorize(M)), M)

    def test_product_rule(self):
        # vec(A X B) = kron(B.T, A) vec(X), the package-wide convention
        rng = np.random.default_rng(8)
        A, X, B = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        lhs = qops.vectorize(A @ X @ B)
        rhs = np.kron(B.T, A) @ qops.vectorize(X)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qops.vectorize(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            devectorize(np.zeros(5))


class TestHamiltonianLiouvillian:
    def test_pauli_commutator(self):
        omega = 1.7
        LH = qops.hamiltonian_liouvillian(0.5 * omega * SIGMA_Z)
        out = apply_superop(LH, SIGMA_X)
        assert np.allclose(out, omega * SIGMA_Y, atol=1e-12)

    def test_identity_hamiltonian(self):
        LH = qops.hamiltonian_liouvillian(IDENTITY_2)
        assert np.max(np.abs(LH)) < 1e-14

    def test_diagonal_state(self):
        LH = qops.hamiltonian_liouvillian(SIGMA_Z)
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(apply_superop(LH, ket0))) < 1e-14

    def test_traceless_image(self):
        rng = np.random.default_rng(3)
        LH = qops.hamiltonian_liouvillian(random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        assert abs(np.trace(apply_superop(LH, rho))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qops.hamiltonian_liouvillian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestLindbladDissipator:
    def test_sigma_z_on_sigma_x(self):
        L = qops.lindblad_dissipator([SIGMA_Z])
        assert np.allclose(apply_superop(L, SIGMA_X), -2 * SIGMA_X, atol=1e-12)

    def test_sigma_z_on_diagonal(self):
        L = qops.lindblad_dissipator([SIGMA_Z])
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.max(np.abs(apply_superop(L, rho))) < 1e-14

    def test_identity_jump_is_zero(self):
        L = qops.lindblad_dissipator([IDENTITY_2])
        assert np.max(np.abs(L)) < 1e-14

    def test_empty_jump_list(self):
        L = qops.lindblad_dissipator([], dim=2)
        assert L.shape == (4, 4) and np.max(np.abs(L)) == 0

    def test_annihilates_trace(self):
        rng = np.random.default_rng(11)
        V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        L = qops.lindblad_dissipator([V])
        tr_vec = qops.vectorize(np.eye(3)).conj()
        assert np.max(np.abs(tr_vec @ L)) < 1e-10


class TestJumpSuperoperator:
    def test_sigma_z_conjugation(self):
        E = qops.jump_superoperator([SIGMA_Z])
        assert np.allclose(apply_superop(E, SIGMA_X), -SIGMA_X, atol=1e-12)

    def test_dissipator_identity(self):
        E = qops.jump_superoperator([SIGMA_Z])
        L = qops.lindblad_dissipator([SIGMA_Z])
        assert np.max(np.abs(L - (E - np.eye(4)))) < 1e-10

    def test_identity_jump(self):
        E = qops.jump_superoperator([IDENTITY_2])
        assert np.allclose(E, np.eye(4), atol=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            qops.jump_superoperator([SIGMA_Z / np.sqrt(2.0)])

    def test_normalized_pair_identity(self):
        jumps = [SIGMA_Z / np.sqrt(2.0), IDENTITY_2 / np.sqrt(2.0)]
        E = qops.jump_superoperator(jumps)
        L = qops.lindblad_dissipator(jumps)
        assert np.max(np.abs(L - (E - np.eye(4)))) < 1e-10


class TestPropagate:
    def test_zero_time(self):
        gen = dephasing_generator(1.0)
        assert np.allclose(propagate(gen, 0.0), np.eye(4), atol=1e-14)

    def test_coherent_phase(self):
        # under H = (omega/2) sigma_z the 01 coherence rotates as exp(-i omega t)
        omega, t = 1.3, 0.7
        LH = qops.hamiltonian_liouvillian(0.5 * omega * SIGMA_Z)
        rho0 = 0.5 * (IDENTITY_2 + SIGMA_X)
        rho_t = apply_superop(propagate(LH, t), rho0)
        assert np.allclose(rho_t[0, 1], 0.5 * np.exp(-1j * omega * t), atol=1e-12)

    def test_dephasing_mode(self):
        omega, gamma, t = 1.0, 0.8, 0.9
        gen = qops.hamiltonian_liouvillian(0.5 * omega * SIGMA_Z) + dephasing_generator(gamma)
        rho0 = 0.5 * (IDENTITY_2 + SIGMA_X)
        rho_t = apply_superop(propagate(gen, t), rho0)
        expected = 0.5 * np.exp(-2 * gamma * t) * np.exp(-1j * omega * t)
        assert np.allclose(rho_t[0, 1], expected, atol=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        gen = qops.hamiltonian_liouvillian(random_hermitian(rng, 2)) + dephasing_generator(0.5)
        for s, t in [(0.3, 0.9), (1.1, 0.2), (2.0, 2.0)]:
            lhs = propagate(gen, s + t)
            rhs = propagate(gen, s) @ propagate(gen, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(np.zeros((4, 4)), -1.0)


def random_generators(rng, count, d=2):
    """Lindblad generators of random H and one random jump, stacked (count, d^2, d^2)."""
    return np.array([qops.hamiltonian_liouvillian(random_hermitian(rng, d))
                     + qops.lindblad_dissipator([rng.normal(size=(d, d))])
                     for _ in range(count)])


class TestRateStack:
    """Step maps in blocked powers against one dense expm per rate and time."""

    GENS = random_generators(np.random.default_rng(11), 3)
    WEIGHTS = np.array([0.2, 0.5, 0.3])

    def dense(self, times, X):
        return np.array([[propagate(g, t) @ x for g, x in zip(self.GENS, X)] for t in times])

    @pytest.mark.parametrize("times", [[0.0], [2.5], np.linspace(0.0, 6.0, 101),
                                       0.7 + 0.3 * np.arange(20)],
                             ids=["zero", "single", "from_zero", "from_t0"])
    def test_per_rate_and_average(self, times):
        X = np.random.default_rng(4).normal(size=(3, 4, 2)) + 0j
        stack = qops.generator_factorization(self.GENS, self.WEIGHTS)
        ref = self.dense(times, X)
        assert np.max(np.abs(stack.per_rate(times, X) - ref)) < 1e-13
        mean = np.einsum("r,trdc->tdc", self.WEIGHTS, ref)
        assert np.max(np.abs(stack.average(times, X) - mean)) < 1e-13
        shared = np.einsum("r,trdc->tdc", self.WEIGHTS, self.dense(times, X[[0, 0, 0]]))
        assert np.max(np.abs(stack.average(times, X[:1]) - shared)) < 1e-13

    def test_round_off_does_not_grow_with_the_step_count(self):
        # powers held as Phi^m - I round relative to Phi^m - I, not to
        # Phi^m ~ I, so the error stays near round-off over thousands of steps
        times = np.linspace(0.0, 6.0, 8001)
        stack = qops.generator_factorization(self.GENS, self.WEIGHTS)
        out = stack.per_rate(times, np.eye(4)[None])
        for k in (1000, 4000, 8000):
            ref = np.array([propagate(g, times[k]) for g in self.GENS])
            assert np.max(np.abs(out[k] - ref)) < 4e-15

    def test_slow_rate_keeps_its_accuracy_in_a_fast_stack(self):
        # the fast rates set a scaling of 2^-3 for the whole stack; squared as
        # Phi - I, the slow rate's Phi - I (about 1e-6) keeps its own accuracy
        gens = self.GENS * np.array([1.0, 1e-6, 1.0])[:, None, None]
        times = np.linspace(0.0, 4000.0, 8001)
        out = qops.generator_factorization(gens, self.WEIGHTS).per_rate(times, np.eye(4)[None])
        for k in (1000, 4000, 8000):
            assert np.max(np.abs(out[k, 1] - propagate(gens[1], times[k]))) < 4e-15

    @pytest.mark.parametrize("times", [[0.0, 0.4, 1.3], [1.0, 0.5], [0.0, np.nan], []])
    def test_other_times_refused(self, times):
        stack = qops.generator_factorization(self.GENS, self.WEIGHTS)
        with pytest.raises(ValueError):
            stack.average(times, np.eye(4)[None])

    def test_real_generator_stays_real(self):
        # the renewal chain's generator is real, and so are its step map and powers
        G = np.random.default_rng(9).normal(size=(1, 5, 5))
        step = qops.expm1(lambda X: G @ X, 0.3, 0.3 * np.abs(G).sum(axis=1).max(), G.shape)
        assert step.dtype == np.float64
        assert np.max(np.abs(step[0] - (propagate(G[0], 0.3) - np.eye(5)))) < 1e-14
        y0 = np.ones((1, 5, 1))
        out = qops.block_powers(step, y0, 7, np.eye(5)[:2])
        assert out.dtype == np.float64
        ref = [np.linalg.matrix_power(np.eye(5) + step[0], k)[:2] @ y0[0] for k in range(8)]
        assert np.max(np.abs(out[:, 0] - np.array(ref))) < 1e-13

    @pytest.mark.parametrize("nt", [0, 1, 2, 3, 8, 100])
    def test_block_powers_match_plain_loop(self, nt):
        # S == D, as for the rate stack: the block is still longer than one step
        phi = np.array([propagate(g, 0.05) for g in self.GENS])
        products = []

        class Step(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape)
                return np.ndarray.__matmul__(self, other)

        y0 = np.random.default_rng(6).normal(size=(3, 4, 2)) + 0j
        out = qops.block_powers((phi - np.eye(4)).view(Step), y0, nt, np.eye(4))
        y, ref = y0, [y0]
        for _ in range(nt):
            y = phi @ y
            ref.append(y)
        assert np.max(np.abs(out - np.array(ref))) < 1e-13
        weighted = qops.block_powers(phi - np.eye(4), y0, nt, np.eye(4), self.WEIGHTS)
        assert np.max(np.abs(weighted - np.einsum("r,trdc->tdc", self.WEIGHTS, ref))) < 1e-13
        if nt >= 8:
            assert len(products) < nt


class TestResolvent:
    def test_zero_generator(self):
        R = resolvent(np.zeros((4, 4), dtype=complex), 2.0)
        assert np.allclose(R, 0.5 * np.eye(4), atol=1e-14)

    def test_dephasing_eigenmode(self):
        gamma, u = 0.7, 1.5
        gen = dephasing_generator(gamma)
        out = devectorize(resolvent(gen, u) @ qops.vectorize(SIGMA_X))
        assert np.allclose(out, SIGMA_X / (u + 2 * gamma), atol=1e-12)

    def test_matches_laplace_quadrature(self):
        # resolvent = int_0^inf exp(-u t) exp(t G) dt, checked by quadrature
        gen = dephasing_generator(1.0)
        u = 1.0
        tt = np.linspace(0.0, 60.0, 20001)
        props = qops.generator_factorization(gen[None], [1.0]).average(tt, np.eye(4)[None])
        integrand = np.exp(-u * tt)[:, None, None] * props
        quad = scipy.integrate.simpson(integrand, x=tt, axis=0)
        assert np.max(np.abs(quad - resolvent(gen, u))) < 1e-6

    def test_singular_point(self):
        with pytest.raises(ValueError, match="spectrum"):
            resolvent(np.zeros((4, 4), dtype=complex), 0.0)


class TestChoi:
    def test_identity_map(self):
        C = qops.choi_matrix(np.eye(4, dtype=complex))
        eig = np.linalg.eigvalsh(C)
        assert np.allclose(eig, [0, 0, 0, 2], atol=1e-12)
        assert qops.choi_min_eigenvalue(np.eye(4, dtype=complex)) >= -1e-12
        assert abs(np.trace(C) - 2.0) < 1e-12

    def test_dephasing_map_spectrum(self):
        # г+ rho + g- sz rho sz has Choi eigenvalues {2 g+, 2 g-}
        g_minus = 0.2
        g_plus = 1.0 - g_minus
        superop = g_plus * np.eye(4) + g_minus * np.kron(SIGMA_Z.conj(), SIGMA_Z)
        eig = np.linalg.eigvalsh(qops.choi_matrix(superop))
        assert np.allclose(sorted(eig)[-2:], [2 * g_minus, 2 * g_plus], atol=1e-12)
        assert qops.choi_min_eigenvalue(superop) >= -1e-12

    def test_kraus_outer_product_form(self):
        rng = np.random.default_rng(13)
        K1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        superop = np.kron(K1.conj(), K1)
        v = qops.vectorize(K1)[:, None]
        assert np.allclose(qops.choi_matrix(superop), v @ v.conj().T, atol=1e-12)
        # a stack of maps gives the stack of their Choi matrices
        kraus = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        stack = np.array([np.kron(K.conj(), K) for K in kraus])
        outer = np.array([np.outer(qops.vectorize(K), qops.vectorize(K).conj()) for K in kraus])
        assert np.allclose(qops.choi_matrix(stack), outer, atol=1e-12)

    def test_transpose_map_not_cp(self):
        perm = np.arange(4).reshape(2, 2, order="F").reshape(-1, order="C")
        transpose_map = np.eye(4)[perm]
        single = qops.choi_min_eigenvalue(transpose_map)
        assert isinstance(single, float) and abs(single + 1.0) < 1e-12
        mins = qops.choi_min_eigenvalue(np.stack([transpose_map, np.eye(4)]))
        assert np.allclose(mins, [-1.0, 0.0], atol=1e-12)


class TestCoupledSets:
    @pytest.mark.parametrize("D", [1, 2, 3, 5, 8, 16])
    def test_match_union_find(self, D):
        rng = np.random.default_rng(D)
        for density in (0.0, 0.05, 0.15, 0.4, 1.0):
            pattern = rng.random((D, D)) < density
            groups = qops.coupled_sets(pattern)
            sets = [row.tolist() for g in groups for row in g]
            assert {frozenset(s) for s in sets} == union_find_sets(pattern)
            assert sum(len(s) for s in sets) == D
            # each set sorted; sets of one size in order of their smallest index
            assert all(s == sorted(s) for s in sets)
            assert [g.shape[1] for g in groups] == sorted({len(s) for s in sets})
            assert all(list(g[:, 0]) == sorted(g[:, 0]) for g in groups)


class TestMinHermitianEigenvalue:
    @staticmethod
    def reference(stack):
        herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
        return np.linalg.eigvalsh(herm)[..., 0]

    def check(self, stack):
        got = qops.min_hermitian_eigenvalue(stack)
        scale = max(np.max(np.abs(stack), initial=0.0), np.finfo(float).tiny)
        assert got.shape == stack.shape[:-2]
        assert np.max(np.abs(got - self.reference(stack)), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dense_stacks(self, d):
        rng = np.random.default_rng(40 + d)
        stack = np.array([random_hermitian(rng, d) for _ in range(50)])
        self.check(stack)
        # a non-Hermitian stack is read through its Hermitian part
        self.check(stack + rng.normal(size=stack.shape))

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1), (2, 2), (1, 2, 3), (3, 1, 2, 2), (4,)])
    def test_planted_blocks_under_permutations(self, sizes, monkeypatch):
        rng = np.random.default_rng(sum(sizes) * 10 + len(sizes))
        D = sum(sizes)
        stack = np.zeros((30, D, D), dtype=complex)
        start = 0
        for k in sizes:
            for M in stack:
                M[start:start + k, start:start + k] = random_hermitian(rng, k)
            start += k
        for _ in range(3):
            perm = rng.permutation(D)
            self.check(stack[:, perm][:, :, perm])
        if max(sizes) <= 2:
            # blocks of up to two rows need no eigensolver
            ref = self.reference(stack)
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
            got = qops.min_hermitian_eigenvalue(stack[:, perm][:, :, perm])
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(stack))

    def test_pattern_is_the_union_over_the_stack(self):
        # index 0 and 2 couple at one time only; every time must see a 2 x 2 block
        rng = np.random.default_rng(3)
        stack = np.array([np.diag(rng.normal(size=3)).astype(complex) for _ in range(8)])
        stack[5, 0, 2] = 0.7 + 0.2j
        stack[5, 2, 0] = 0.7 - 0.2j
        self.check(stack)
        assert qops.min_hermitian_eigenvalue(stack)[5] < np.min(np.diag(stack[5]).real)

    def test_zero_matrices(self):
        for d in (1, 2, 3):
            zeros = np.zeros((4, d, d), dtype=complex)
            assert np.array_equal(qops.min_hermitian_eigenvalue(zeros), np.zeros(4))
        single = qops.min_hermitian_eigenvalue(np.zeros((2, 2)))
        assert isinstance(single, float) and single == 0.0


class TestMapInvariants:
    def test_generated_maps_are_cptp(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            H = random_hermitian(rng, 2)
            V = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gen = qops.hamiltonian_liouvillian(H) + qops.lindblad_dissipator([V])
            for t in np.linspace(0.0, 3.0, 7):
                prop = propagate(gen, t)
                assert trace_defect(prop) < 1e-10
                assert hermiticity_defect(prop) < 1e-10
                assert qops.choi_min_eigenvalue(prop) >= -1e-10

    def test_density_matrix_validation(self):
        qops.require_density_matrix(np.diag([0.25, 0.75]).astype(complex))
        with pytest.raises(ValueError, match="trace"):
            qops.require_density_matrix(np.diag([0.5, 0.75]).astype(complex))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qops.require_density_matrix(np.diag([1.5, -0.5]).astype(complex))
