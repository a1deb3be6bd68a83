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

# most Taylor terms of a step map; with |h G|_1 <= 1 the truncation error is
# below sum_{k > 18} 1/k! < 1e-17
TAYLOR_DEGREE = 18

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


def arithmetic_grid(times):
    """(t0, h, nt) of the times t0 + k h, k = 0..nt, h > 0; a single time gives (t0, 0, 0)."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be finite and at least one")
    if times.size == 1:
        return float(times[0]), 0.0, 0
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise ValueError("time grid must be strictly increasing")
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise ValueError("time grid must be uniform")
    return float(times[0]), float(h), times.size - 1


def expm1(apply, h, norm, shape):
    """expm(h G) - I for a stack of generators G of ``shape`` (n, S, S), given apply(X) = G X.

    ``norm`` bounds |h G|_1.  The Taylor series of expm(h G / 2^s) - I is cut
    where its terms fall below round-off, and s squarings of expm are taken
    as E <- 2 E + E^2, with s chosen so that |h G / 2^s|_1 <= 1.  Holding
    E = expm - I, not expm = I + E, keeps round-off relative to E: a step map
    close to I rounds its trace-preserving column sums by about eps |E|, not
    eps.  No eigenvectors are formed, so a defective G (an exceptional point)
    costs no accuracy.
    """
    squarings = max(0, int(np.frexp(norm)[1]))
    scale = 2.0 ** -squarings
    # a real identity, which ``apply`` promotes to the dtype of G; ex += term
    # first makes ex the new array 0.0 + term
    term = np.broadcast_to(np.eye(shape[-1]), shape)
    ex = 0.0
    bound = 1.0  # on |term|_1
    for j in range(1, TAYLOR_DEGREE + 1):
        term = apply(term)
        term *= h * scale / j
        ex += term
        bound *= norm * scale / j
        if bound < np.finfo(float).eps:
            break
    for _ in range(squarings):
        ex = 2.0 * ex + ex @ ex
    return ex


def block_powers(step, y0, nt, P, weights=None):
    """x_k = P Phi^k y0 for k <= nt, for a stack of step maps and output rows P (D, S).

    ``step`` is the stack Phi - I, (n, S, S), as :func:`expm1` returns it,
    and ``y0`` is (n, S, c).  In blocks of B steps, x_{jB+i} = R_i z_j with
    the rows R_i = P Phi^i (i < B) and the starts z_j = (Phi^B)^j y0, so
    every time comes from one product of the stacked rows with the stacked
    starts.  The powers are doubled as Phi^m - I, like the squarings of
    :func:`expm1`.  The result is (nt+1, n, D, c), or with ``weights`` the
    weighted sum over the stack, (nt+1, D, c), taken inside that product:
    rows (B D, n S) times starts (n S, J c).  B is the smallest power of two
    with B D >= S, which keeps the starts no larger than the output, and with
    B^2 >= nt/2, which balances the rows against the starts; it is capped at
    nt.
    """
    n, S, c = y0.shape
    D = P.shape[0]
    log_b = max((S // D - 1).bit_length(), nt.bit_length() // 2)
    B = 1 << min(log_b, max(nt.bit_length() - 1, 0))
    # rows by doubling: [R_0..R_{m-1}; (R_0..R_{m-1}) Phi^m], m = 1, 2, .., B/2
    rows = np.tile(P.astype(np.result_type(P, step, y0)), (n, 1, 1))
    while rows.shape[1] < B * D:
        rows = np.concatenate([rows, rows + rows @ step], axis=1)
        step = 2.0 * step + step @ step
    # step is now Phi^B - I
    starts = [y0]
    for _ in range(nt // B):
        starts.append(starts[-1] + step @ starts[-1])
    if weights is not None:
        rows = (weights[:, None, None] * rows).transpose(1, 0, 2).reshape(1, B * D, n * S)
        starts = [z.reshape(1, n * S, c) for z in starts]
    # full blocks in one product; a partial last block uses only its own rows
    m = rows.shape[0]
    full, rest = divmod(nt + 1, B)
    out = (rows @ np.concatenate(starts[:full], axis=2)).reshape(m, B, D, full, c)
    out = [out.transpose(3, 1, 0, 2, 4).reshape(full * B, m, D, c)]
    if rest:
        last = (rows[:, :rest * D] @ starts[full]).reshape(m, rest, D, c)
        out.append(last.transpose(1, 0, 2, 3))
    out = np.concatenate(out)
    return out if weights is None else out[:, 0]


class _RateStack:
    """A stack of generators G_R with weights P_R, propagated by exact step maps.

    At the times t0 + k h, exp((t0 + k h) G_R) X_R = Phi_R^k exp(t0 G_R) X_R
    with Phi_R = expm(h G_R), taken in blocked powers (:func:`block_powers`);
    each map is a Taylor series (:func:`expm1`), with no eigenvectors.
    Operands ``X`` carry a leading rate axis, shape (R, D, ...), or
    (1, D, ...) when every rate shares one.
    """

    def __init__(self, gens, weights):
        self.gens = np.asarray(gens, dtype=complex)
        self.weights = np.asarray(weights, dtype=float)
        # largest column sum of any G_R
        self.norm = np.abs(self.gens).sum(axis=1).max(initial=0.0)

    def _expm1(self, t):
        return expm1(lambda X: self.gens @ X, t, abs(t) * self.norm, self.gens.shape)

    def _powers(self, times, X, weights):
        t0, h, nt = arithmetic_grid(times)
        X = np.asarray(X, dtype=complex)
        y0 = X.reshape(X.shape[:2] + (-1,))
        y0 = np.broadcast_to(y0, (self.weights.size,) + y0.shape[1:])
        if t0 != 0.0:
            y0 = y0 + self._expm1(t0) @ y0
        out = block_powers(self._expm1(h), y0, nt, np.eye(y0.shape[1]), weights)
        return out, X.shape[1:]

    def per_rate(self, times, X):
        """exp(t G_R) X_R for every time and rate, shape (n_t, R) + X.shape[1:]."""
        out, shape = self._powers(times, X, None)
        return out.reshape(out.shape[:2] + shape)

    def average(self, times, X):
        """sum_R P_R exp(t G_R) X_R for every time, shape (n_t,) + X.shape[1:]."""
        out, shape = self._powers(times, X, self.weights)
        return out.reshape(out.shape[:1] + shape)


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
    """Smallest Choi eigenvalue of a map, or of each map in a stack; >= -1e-10 certifies CP.

    By :func:`min_hermitian_eigenvalue`: the reshuffle keeps the zeros of the
    superoperator, so a dephasing map splits into blocks of one and two rows
    and needs no eigensolver.
    """
    return min_hermitian_eigenvalue(choi_matrix(superop))


def coupled_sets(pattern):
    """The sets of indices that a (D, D) boolean ``pattern`` couples, directly or through one another.

    Index i and j are coupled when pattern[i, j] or pattern[j, i] holds; the
    sets are the connected components of that graph, each sorted.  Sets of
    one size are stacked in order of their smallest index: the result is one
    (sets, size) index array per size, sizes ascending.
    """
    D = pattern.shape[0]
    reach = pattern | pattern.T | np.eye(D, dtype=bool)
    for _ in range(D.bit_length()):
        reach = reach @ reach
    # each index is labelled by the smallest index of its set
    label = reach.argmax(axis=1)
    order = np.argsort(label, kind="stable")
    size = np.bincount(label, minlength=D)[label[order]]
    return [order[size == k].reshape(-1, k) for k in np.unique(size)]


def min_hermitian_eigenvalue(mats):
    """Smallest eigenvalue of the Hermitian part (M + M^dag)/2 of a matrix, or of each in a stack.

    Small matrices only: the stack (..., D, D) is split along the union of its
    nonzero patterns over the whole stack into the blocks of
    :func:`coupled_sets`, whose spectra together are the matrix's.  A 1 x 1
    block is its real diagonal a; a 2 x 2 block [[a, b], [b*, d]] has the
    smallest eigenvalue (a + d)/2 - hypot((a - d)/2, |b|); larger blocks of
    one size go to one stacked ``eigvalsh``.  So a qubit state needs no
    eigensolver.  A single matrix gives a float.
    """
    mats = np.asarray(mats)
    stack = mats.reshape((-1,) + mats.shape[-2:])
    out = np.full(stack.shape[0], np.inf)
    for sets in coupled_sets(stack.any(axis=0)):
        # (n, sets, k, k)
        block = stack[:, sets[:, :, None], sets[:, None]]
        if sets.shape[1] == 1:
            low = block[..., 0, 0].real
        elif sets.shape[1] == 2:
            a, d = block[..., 0, 0].real, block[..., 1, 1].real
            b = 0.5 * (block[..., 0, 1] + np.conj(block[..., 1, 0]))
            low = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(b))
        else:
            herm = 0.5 * (block + np.conj(np.swapaxes(block, -1, -2)))
            low = np.linalg.eigvalsh(herm)[..., 0]
        np.minimum(out, low.min(axis=1), out=out)
    out = out.reshape(mats.shape[:-2])
    return out if out.ndim else float(out)
