import numpy as np
import pytest
import scipy.integrate

from nmbath import qops
from nmbath.qops import SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2

from helpers import apply_superop, hermiticity_defect, propagate, trace_defect


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
        assert np.array_equal(qops.devectorize(v), IDENTITY_2)

    def test_zero(self):
        assert np.all(qops.vectorize(np.zeros((3, 3))) == 0)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(qops.devectorize(qops.vectorize(M)), M)

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
            qops.devectorize(np.zeros(5))


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


class TestResolvent:
    def test_zero_generator(self):
        R = qops.resolvent(np.zeros((4, 4), dtype=complex), 2.0)
        assert np.allclose(R, 0.5 * np.eye(4), atol=1e-14)

    def test_dephasing_eigenmode(self):
        gamma, u = 0.7, 1.5
        gen = dephasing_generator(gamma)
        out = qops.devectorize(qops.resolvent(gen, u) @ qops.vectorize(SIGMA_X))
        assert np.allclose(out, SIGMA_X / (u + 2 * gamma), atol=1e-12)

    def test_matches_laplace_quadrature(self):
        # resolvent = int_0^inf exp(-u t) exp(t G) dt, checked by quadrature
        gen = dephasing_generator(1.0)
        u = 1.0
        tt = np.linspace(0.0, 60.0, 20001)
        props = qops.generator_factorization(gen[None], [1.0]).average(tt, np.eye(4)[None])
        integrand = np.exp(-u * tt)[:, None, None] * props
        quad = scipy.integrate.simpson(integrand, x=tt, axis=0)
        assert np.max(np.abs(quad - qops.resolvent(gen, u))) < 1e-6

    def test_singular_point(self):
        with pytest.raises(ValueError, match="spectrum"):
            qops.resolvent(np.zeros((4, 4), dtype=complex), 0.0)


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
        assert abs(qops.choi_min_eigenvalue(transpose_map) + 1.0) < 1e-12
        mins = qops.choi_min_eigenvalue(np.stack([transpose_map, np.eye(4)]))
        assert np.allclose(mins, [-1.0, 0.0], atol=1e-12)


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
