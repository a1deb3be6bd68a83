"""Dense complex operator and superoperator algebra.

Single vectorization convention for the whole package: operators are stacked
column-major (Fortran order), so that

    vec(A @ X @ B) == kron(B.T, A) @ vec(X).

Every superoperator is a d**2 x d**2 complex matrix acting on such vectors.
Units: hbar = 1, rates in units of the base rate, times in inverse rates.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

# condition-number threshold above which propagators fall back from
# eigendecomposition to scaling-and-squaring
EIG_COND_LIMIT = 1e8

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


def devectorize(vec, dim=None):
    """Invert :func:`vectorize`. ``dim`` is inferred when omitted."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector of length {vec.size} is not a stacked {dim}x{dim} matrix")
    return vec.reshape(dim, dim, order="F")


def is_hermitian(op, tol=HERMITICITY_TOL):
    op = np.asarray(op)
    return np.max(np.abs(op - op.conj().T)) <= tol


def require_hermitian(op, what="operator", tol=HERMITICITY_TOL):
    if not is_hermitian(op, tol):
        defect = np.max(np.abs(np.asarray(op) - np.asarray(op).conj().T))
        raise ValueError(f"{what} is not Hermitian (max |M - M^dag| = {defect:.3e})")


def require_density_matrix(rho, tol_trace=TRACE_TOL, tol_psd=PSD_TOL):
    """Validate Hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho, "density matrix")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < tol_psd:
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


def jump_superoperator(jumps, tol=1e-10):
    """Trace-preserving event map E[rho] = sum_a V_a rho V_a^dag.

    Requires sum_a V_a^dag V_a = I so that the dissipator equals E - I.
    """
    jumps = [np.asarray(V, dtype=complex) for V in jumps]
    if not jumps:
        raise ValueError("need at least one jump operator")
    d = jumps[0].shape[0]
    norm = sum(V.conj().T @ V for V in jumps)
    defect = np.max(np.abs(norm - np.eye(d)))
    if defect > tol:
        raise ValueError(
            f"jump operators are not normalized: ||sum V^dag V - I|| = {defect:.3e}"
        )
    out = np.zeros((d * d, d * d), dtype=complex)
    for V in jumps:
        out += np.kron(V.conj(), V)
    return out


def apply_superop(superop, op):
    """Apply a superoperator matrix to an operator."""
    d = int(round(np.sqrt(superop.shape[0])))
    return devectorize(superop @ vectorize(op), d)


class _GeneratorFactorization:
    """Eigendecomposition of a generator, reused across many times.

    Falls back to scaling-and-squaring (scipy expm) per call when the
    eigenvector matrix is too ill-conditioned.
    """

    def __init__(self, gen):
        self.gen = np.asarray(gen, dtype=complex)
        w, V = np.linalg.eig(self.gen)
        cond = np.linalg.cond(V)
        if np.isfinite(cond) and cond < EIG_COND_LIMIT:
            self.eigvals = w
            self.right = V
            self.left = np.linalg.inv(V)
        else:
            self.eigvals = None
            self.right = None
            self.left = None

    def expm(self, t):
        if self.eigvals is None:
            return scipy.linalg.expm(t * self.gen)
        return (self.right * np.exp(t * self.eigvals)) @ self.left

    def expm_many(self, times):
        times = np.asarray(times, dtype=float)
        if self.eigvals is None:
            return np.array([scipy.linalg.expm(t * self.gen) for t in times])
        phases = np.exp(np.multiply.outer(times, self.eigvals))
        return np.einsum("ij,tj,jk->tik", self.right, phases, self.left)

    def apply_many(self, times, vec0):
        """exp(t * gen) @ vec0 for every t, shape (n_t, d**2)."""
        times = np.asarray(times, dtype=float)
        if self.eigvals is None:
            return np.array([scipy.linalg.expm(t * self.gen) @ vec0 for t in times])
        coeff = self.left @ vec0
        phases = np.exp(np.multiply.outer(times, self.eigvals))
        return (phases * coeff) @ self.right.T


def generator_factorization(gen):
    return _GeneratorFactorization(gen)


def propagate(gen, t):
    """exp(t * gen) for a superoperator generator, t >= 0."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    fac = _GeneratorFactorization(gen)
    out = fac.expm(t)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("matrix exponential overflowed")
    return out


def resolvent(gen, u):
    """(u*I - gen)^-1, defined off the spectrum of gen."""
    gen = np.asarray(gen, dtype=complex)
    n = gen.shape[0]
    A = u * np.eye(n) - gen
    try:
        out = np.linalg.solve(A, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"u = {u} lies on the spectrum of the generator") from exc
    residual = np.max(np.abs(A @ out - np.eye(n)))
    if residual > 1e-9:
        raise ValueError(
            f"resolvent at u = {u} is numerically singular (residual {residual:.3e})"
        )
    return out


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


def trace_defect(superop):
    """Max deviation of the trace functional from invariance under the map."""
    d = int(round(np.sqrt(superop.shape[0])))
    tr_vec = vectorize(np.eye(d)).conj()
    return float(np.max(np.abs(tr_vec @ superop - tr_vec)))


def hermiticity_defect(superop):
    """Max entry of K conj(S) - S K, zero iff the map preserves Hermiticity.

    K is the permutation with K vec(X) = vec(X.T).
    """
    superop = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(superop.shape[0])))
    perm = np.arange(d * d).reshape(d, d, order="F").reshape(-1, order="C")
    K = np.eye(d * d)[perm]
    return float(np.max(np.abs(K @ superop.conj() - superop @ K)))
