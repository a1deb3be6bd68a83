"""Dense complex operator and superoperator algebra.

Single vectorization convention for the whole package: operators are stacked
column-major (Fortran order), so that

    vec(A @ X @ B) == kron(B.T, A) @ vec(X).

Every superoperator is a d**2 x d**2 complex matrix acting on such vectors.
Units: hbar = 1, rates in units of the base rate, times in inverse rates.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
# largest entry of sum_a V_a^dag V_a - I accepted for an event map
NORMALIZATION_TOL = 1e-10

# condition-number threshold above which propagators fall back from
# eigendecomposition to scaling-and-squaring
EIG_COND_LIMIT = 1e8

# most phase entries exp(lambda_a t) held at once by a rate-stack average
PHASE_CELLS = 1 << 16

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)


def vectorize(op):
    """Column-stack a d x d operator into a length d**2 vector."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    return op.reshape(-1, order="F")


def require_hermitian(op, what="operator"):
    op = np.asarray(op)
    defect = np.max(np.abs(op - op.conj().T))
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian (max |M - M^dag| = {defect:.3e})")


def require_density_matrix(rho):
    """Validate Hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho, "density matrix")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def hamiltonian_liouvillian(H):
    """Superoperator of the coherent part, rho -> -i [H, rho]."""
    H = np.asarray(H, dtype=complex)
    require_hermitian(H, "Hamiltonian")
    d = H.shape[0]
    eye = np.eye(d)
    return -1j * (np.kron(eye, H) - np.kron(H.T, eye))


def lindblad_dissipator(jumps, dim=None):
    """Dissipator 0.5 * sum_a ([V_a, rho V_a^dag] + [V_a rho, V_a^dag]).

    Equivalently sum_a (V_a rho V_a^dag - 0.5 {V_a^dag V_a, rho}).  An empty
    jump list yields the zero superoperator of dimension ``dim``.
    """
    jumps = [np.asarray(V, dtype=complex) for V in jumps]
    if not jumps:
        if dim is None:
            raise ValueError("dim is required when the jump list is empty")
        return np.zeros((dim * dim, dim * dim), dtype=complex)
    d = jumps[0].shape[0]
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for V in jumps:
        if V.shape != (d, d):
            raise ValueError("jump operators must share one square dimension")
        VdV = V.conj().T @ V
        out += np.kron(V.conj(), V)
        out -= 0.5 * (np.kron(eye, VdV) + np.kron(VdV.T, eye))
    return out


def jump_superoperator(jumps):
    """Trace-preserving event map E[rho] = sum_a V_a rho V_a^dag.

    Requires sum_a V_a^dag V_a = I so that the dissipator equals E - I.
    """
    jumps = [np.asarray(V, dtype=complex) for V in jumps]
    if not jumps:
        raise ValueError("need at least one jump operator")
    d = jumps[0].shape[0]
    norm = sum(V.conj().T @ V for V in jumps)
    defect = np.max(np.abs(norm - np.eye(d)))
    if defect > NORMALIZATION_TOL:
        raise ValueError(
            f"jump operators are not normalized: ||sum V^dag V - I|| = {defect:.3e}"
        )
    out = np.zeros((d * d, d * d), dtype=complex)
    for V in jumps:
        out += np.kron(V.conj(), V)
    return out


class _RateStack:
    """Eigendecompositions of a stack of generators G_R with weights P_R.

    One stacked eig, cond and inv serve every time and every operand:
    sum_R P_R exp(t G_R) = sum_a exp(lambda_a t) r_a l_a^T over the modes
    a = (R, j).  A rate whose eigenvector matrix has cond >= EIG_COND_LIMIT
    (an exceptional point) stays out of the mode sum and is evaluated by
    scaling-and-squaring instead.  Operands ``X`` carry a leading rate axis,
    shape (R, D, ...), or (1, D, ...) when every rate shares one.
    """

    def __init__(self, gens, weights):
        self.gens = np.asarray(gens, dtype=complex)
        self.weights = np.asarray(weights, dtype=float)
        w, V = np.linalg.eig(self.gens)
        cond = np.linalg.cond(V)
        self.eigenbasis = np.isfinite(cond) & (cond < EIG_COND_LIMIT)
        self.fallback = np.flatnonzero(~self.eigenbasis)
        self.expm_fallbacks = int(self.fallback.size)
        self.eigvals = w[self.eigenbasis]
        self.right = V[self.eigenbasis]
        self.left = np.linalg.inv(self.right)

    def _operand(self, X):
        """X as (R, D, M), its trailing axes flattened, and the shape of one X_R."""
        X = np.asarray(X, dtype=complex)
        flat = X.reshape(X.shape[:2] + (-1,))
        return np.broadcast_to(flat, (self.weights.size,) + flat.shape[1:]), X.shape[1:]

    def _expm(self, r, times):
        # imported here, the only use of scipy: at module level it costs about
        # 0.35 s on every CLI start
        import scipy.linalg

        return scipy.linalg.expm(times[:, None, None] * self.gens[r])

    def per_rate(self, times, X):
        """exp(t G_R) X_R for every rate and time, shape (R, n_t) + X.shape[1:]."""
        times = np.asarray(times, dtype=float)
        X, shape = self._operand(X)
        out = np.empty((X.shape[0], times.size) + X.shape[1:], dtype=complex)
        phases = np.exp(times[:, None] * self.eigvals[:, None, :])
        coeff = self.left @ X[self.eigenbasis]
        out[self.eigenbasis] = self.right[:, None] @ (phases[..., None] * coeff[:, None])
        for r in self.fallback:
            out[r] = self._expm(r, times) @ X[r]
        return out.reshape(out.shape[:2] + shape)

    def average(self, times, X):
        """sum_R P_R exp(t G_R) X_R for every time, shape (n_t,) + X.shape[1:].

        The mode sum is one phases @ residues product, taken in time blocks
        of at most PHASE_CELLS phase entries.
        """
        times = np.asarray(times, dtype=float)
        X, shape = self._operand(X)
        coeff = self.left @ X[self.eigenbasis]
        # residue of mode a = (R, j): P_R r_a (l_a . X_R), one row per mode
        residues = np.einsum("r,rij,rjm->rjim", self.weights[self.eigenbasis], self.right, coeff)
        residues = residues.reshape(-1, X.shape[1] * X.shape[2])
        lam = self.eigvals.reshape(-1)
        out = np.empty((times.size, residues.shape[1]), dtype=complex)
        rows = max(1, PHASE_CELLS // max(1, lam.size))
        for k in range(0, times.size, rows):
            out[k:k + rows] = np.exp(np.multiply.outer(times[k:k + rows], lam)) @ residues
        out = out.reshape((times.size,) + X.shape[1:])
        for r in self.fallback:
            out += self.weights[r] * (self._expm(r, times) @ X[r])
        return out.reshape((times.size,) + shape)


def generator_factorization(gens, weights):
    """The :class:`_RateStack` of generators ``gens`` (R, D, D) with weights P_R."""
    return _RateStack(gens, weights)


def choi_matrix(superop):
    """Choi matrix sum_ab kron(E_ab, M[E_ab]) of a superoperator or a stack of them.

    With the column-stacking convention this equals
    sum_k vec(K_k) vec(K_k)^dag over any Kraus set {K_k}.  Entry
    [(a,i), (b,j)] is S[i + d j, a + d b], so the Choi matrix is an index
    reshuffle of S: split both indices into (j, i) and (b, a), swap a and j.
    """
    superop = np.asarray(superop, dtype=complex)
    lead, dsq = superop.shape[:-2], superop.shape[-1]
    d = int(round(np.sqrt(dsq)))
    split = superop.reshape(lead + (d, d, d, d))
    return split.swapaxes(-4, -1).reshape(lead + (dsq, dsq))


def choi_min_eigenvalue(superop):
    """Smallest Choi eigenvalue of a map, or of each map in a stack; >= -1e-10 certifies CP."""
    choi = choi_matrix(superop)
    choi = 0.5 * (choi + np.conj(np.swapaxes(choi, -1, -2)))
    out = np.linalg.eigvalsh(choi)[..., 0]
    return out if out.ndim else float(out)
