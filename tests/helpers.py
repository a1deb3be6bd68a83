"""Reference routines used only by the test suite.

They evaluate each fixed-rate propagator densely with scipy.linalg.expm (a
Pade approximant), so they stay independent of the Taylor step maps in
blocked powers that the package uses; scipy is a test dependency only.
The Laplace-domain memory superoperator, the pole-basis (pseudomode)
Volterra reference, the resolvent and the small conveniences below are the
test suite's own: no command runs them.
"""

import numpy as np
import scipy.linalg

from nmbath import _mc, dynamics, qops, qrt
from nmbath.qops import SIGMA_Z, vectorize
from nmbath.ratebath import kernel_decompose, rate_ensemble, survival, w_of_u


def single_rate_ensemble(rate):
    return rate_ensemble([rate], [1.0])


def devectorize(vec, dim=None):
    """Invert :func:`nmbath.qops.vectorize`. ``dim`` is inferred when omitted."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector of length {vec.size} is not a stacked {dim}x{dim} matrix")
    return vec.reshape(dim, dim, order="F")


def normalize(cfg):
    """A resolved configuration as canonical sorted text."""
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"


def p0_of_u(ens, u):
    """P0(u) = <1 / (u + gamma_R)> by direct summation."""
    u = np.asarray(u, dtype=complex)
    out = (1.0 / (u[..., None] + ens.rates)) @ ens.weights
    return out if out.ndim else complex(out)


def f_of_u(ens, u):
    """f(u) = w(u) / [1 - w(u)] by direct summation."""
    w = w_of_u(ens, u)
    return w / (1.0 - w)


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


def generator(model, rate):
    """Fixed-rate Lindblad generator L_H + gamma * L; a stack (R, D, D) for an array of rates."""
    return model.L_H + np.multiply.outer(rate, model.L)


def exact_memory_superop(model, u):
    """Memory superoperator in the Laplace domain.

    Solves <G_R(u)> LL(u) = <G_R(u) L_R> for LL(u), with G_R the fixed-rate
    resolvent.  For a single rate this is gamma * L independent of u.
    """
    L = model.L
    avg = np.zeros_like(L)
    avg_rate = np.zeros_like(L)
    for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
        G = resolvent(generator(model, rate), u)
        avg += weight * G
        avg_rate += weight * (G @ (rate * L))
    try:
        out = np.linalg.solve(avg, avg_rate)
    except np.linalg.LinAlgError as exc:
        raise dynamics.SolverError(f"average resolvent is singular at u = {u}") from exc
    resid = np.max(np.abs(avg @ out - avg_rate))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(avg_rate)))):
        raise dynamics.SolverError(
            f"memory superoperator solve at u = {u} left residual {resid:.3e}"
        )
    return out


def observable_propagator(model, basis, taugrid):
    """Matrix G(tau) with <A(tau)> = G(tau) <A(0)> for any initial state, shape (n_tau, k, k)."""
    T, cols, gram_inv = qrt._basis_matrices(basis)
    return T @ dynamics.rate_stack(model).average(taugrid, (cols @ gram_inv)[None])


def propagate(gen, t):
    """exp(t * gen) for a superoperator generator, t >= 0."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    out = scipy.linalg.expm(t * np.asarray(gen, dtype=complex))
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("matrix exponential overflowed")
    return out


def apply_superop(superop, op):
    """Apply a superoperator matrix to an operator."""
    d = int(round(np.sqrt(superop.shape[0])))
    return devectorize(superop @ vectorize(op), d)


def ensemble_propagators(model, tgrid):
    """sum_R P_R exp(t G_R) at every time, one dense expm per rate and time."""
    out = 0.0
    for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
        gen = generator(model, rate)
        out = out + weight * np.array([propagate(gen, t) for t in tgrid])
    return out


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


def expectation_series(model, rho0, basis, tgrid):
    """<A_mu(t)> = Tr(A_mu rho(t)) of the ensemble average, shape (len(basis), len(tgrid))."""
    rho0 = qops.require_density_matrix(rho0)
    T = np.array([vectorize(np.asarray(A, dtype=complex).T) for A in basis])
    return T @ (ensemble_propagators(model, tgrid) @ vectorize(rho0)).T


def qrt_prediction(model, rho0, S, basis, t, taugrid):
    """Regression-rule prediction: G(tau) applied to the measured tau=0 value."""
    anchor = qrt.two_time_correlation(model, rho0, S, basis, t, 0.0)
    G = observable_propagator(model, basis, taugrid)
    return np.einsum("tmn,n->mt", G, anchor)


def heisenberg_generator(model, rate, basis):
    """Matrix M_R with Tr{A (L_H + gamma L)[S]} = M_R Tr{A S} for all S.

    The adjoint (observable-side) form of the fixed-rate generator, expressed
    in the given complete basis.
    """
    T, cols, gram_inv = qrt._basis_matrices(basis)
    return T @ generator(model, rate) @ (cols @ gram_inv)


def stationary_state(model, rho0):
    """Projection of rho0 onto the null space of the average generator.

    Pure dephasing has a conserved population sector, so the stationary state
    is resolved by the initial condition.
    """
    rho0 = qops.require_density_matrix(rho0)
    avg = np.tensordot(model.ensemble.weights,
                       generator(model, model.ensemble.rates), axes=1)
    w, V = np.linalg.eig(avg)
    left = np.linalg.inv(V)
    scale = max(1.0, float(np.max(np.abs(w))))
    null = np.abs(w) <= 1e-12 * scale
    proj = V[:, null] @ left[null, :]
    return devectorize(proj @ vectorize(rho0), model.dim)


def dephasing_analytic(ens, rho0, t):
    """Closed-form dephasing map g+ rho + g- sigma_z rho sigma_z.

    g+- = (1 +- P0(t)) / 2; interaction picture, two-level systems only.
    """
    rho0 = qops.require_density_matrix(rho0)
    if rho0.shape != (2, 2):
        raise ValueError("closed-form dephasing is for two-level systems")
    p0 = survival(ens, t)
    g_plus = 0.5 * (1.0 + p0)
    g_minus = 0.5 * (1.0 - p0)
    return g_plus * rho0 + g_minus * (SIGMA_Z @ rho0 @ SIGMA_Z)


def trajectory_moments(v0, tgrid, times, off, L_H, E, composition):
    """(mean, standard error) of the unraveling, one trajectory at a time.

    Between events a trajectory evolves with a dense expm(gap L_H).  The
    "forward" string applies E at each event in time order; the "reversed"
    string is U(g_1) E U(g_2) E ... E U(t - s_N) v0 with the gaps g_j between
    successive events.  An event at or before a grid time counts at it.  The
    variance is taken about the mean, in a second pass over the trajectories,
    so an entry that no trajectory varies has a standard error of round-off
    size, not its square root.
    """
    dsq = v0.size
    eye = np.eye(dsq)
    n = len(off) - 1
    # expm of zero is the identity; skipping it keeps large event-count tests fast
    U = (lambda gap: scipy.linalg.expm(gap * L_H)) if np.any(L_H) else (lambda gap: eye)
    V = np.empty((n, len(tgrid), dsq), dtype=complex)
    for i in range(n):
        events = iter(times[off[i]:off[i + 1]])
        s = next(events, np.inf)
        # V(t) = prefix U(t - last) v; forward moves v, reversed grows prefix
        prefix, v, last = eye, v0, 0.0
        for k, t in enumerate(tgrid):
            while s <= t:
                if composition == "forward":
                    v = E @ (U(s - last) @ v)
                else:
                    prefix = prefix @ U(s - last) @ E
                last, s = s, next(events, np.inf)
            V[i, k] = prefix @ (U(t - last) @ v)
    mean = V.mean(axis=0)
    if n < 2:
        return mean, np.zeros(mean.shape)
    var = np.sum(np.abs(V - mean) ** 2, axis=0) / (n - 1)
    return mean, np.sqrt(var / n)


def event_round_moments(v0, tgrid, times, off, H, E, composition):
    """:func:`nmbath._mc.run_trajectories` with every column of the eigenbasis in event rounds.

    No column takes the count histogram of a set of one frequency: one call of
    :func:`nmbath._mc._event_sums` carries the whole state on the same events.
    """
    v0, E = np.asarray(v0, dtype=complex), np.asarray(E, dtype=complex)
    times, off = np.asarray(times, dtype=float), np.asarray(off, dtype=np.int64)
    d = int(round(np.sqrt(v0.size)))
    up = _mc._upper(d)[0]
    W, lam = _mc._eigenbasis(H)
    omega, nt = lam.imag, tgrid.size
    E_eig, c0 = W.conj().T @ E @ W, W.conj().T @ v0
    phases = np.exp(np.outer(tgrid, lam))
    Wu = W[up]
    ref = (phases * c0) @ Wu.T
    row = _mc._grid_rows(tgrid, times)
    if composition == "forward":
        lin = np.flatnonzero(np.any(Wu != 0, axis=0))
        Wl = Wu[:, lin]
        ops, pairs = _mc._fold_plan(lin.size, lambda k, g: (
            (k, g) if np.any(Wl[:, g + k] * Wl[:, g].conj()) else None))
        sums = _mc._event_sums(tgrid, times, off, row, c0[None], omega, E_eig,
                               np.eye(v0.size, dtype=complex)[lin], ops, len(pairs))
        Y = Wl * phases[:, None, lin]
        dev_sum = np.einsum("kia,ka->ki", Y, sums[:, :lin.size])
        k, g = np.array(pairs).T
        quad = sums[:, lin.size:] * np.where(k == 0, 1.0, 2.0)
        dev_sq = np.einsum("kic,kc,kic->ki", Y[:, :, g + k], quad, Y[:, :, g].conj()).real
    else:
        starts = _mc._runs(omega)
        nz, w = starts.size, omega[starts]
        P = np.zeros((nz, v0.size), dtype=complex)
        P[np.searchsorted(starts, np.arange(v0.size), side="right") - 1, np.arange(v0.size)] = c0
        ops, pairs = _mc._fold_plan(nz, lambda k, g: w[g + k] - w[g])
        sums = _mc._event_sums(tgrid, times, off, row, Wu, omega, E_eig.T, P, ops,
                               len(pairs)).reshape(nt, up.size, -1)
        dev_sum = np.einsum("kif,kf->ki", sums[:, :, :nz], phases[:, starts])
        k, g = np.array(pairs).T
        quad = np.exp(1j * np.outer(tgrid, w[g + k] - w[g])) * np.where(k == 0, 1.0, 2.0)
        dev_sq = np.einsum("kic,kc->ki", sums[:, :, nz:], quad).real
    return _mc._mirror(d, *_mc._mean_stderr(ref, dev_sum, dev_sq, off.size - 1))


def unsplit_expm1(model, h):
    """Phi - I for the step map Phi of the whole rate-basis embedding, all components in one set."""
    return dynamics._embedding_expm1(model, h, np.arange(model.dim ** 2)[None])[0]


def rate_basis_generator(model):
    """Dense generator of the rate-basis embedding: block (R, R') is
    delta_RR' (L_H - gamma_R) + gamma_R P_R' (L + I)."""
    ens, eye = model.ensemble, np.eye(model.dim ** 2)
    return (np.kron(np.eye(ens.n), model.L_H) - np.kron(np.diag(ens.rates), eye)
            + np.kron(np.outer(ens.rates, ens.weights), model.L + eye))


def volterra_stepped(model, x0, tgrid):
    """x_k = P Phi^k y0 by the plain loop y <- Phi y on the unsplit rate-basis step map."""
    tgrid, h = dynamics._check_grid(tgrid)
    phi = np.eye(model.dim ** 2 * model.ensemble.n) + unsplit_expm1(model, h)
    rows = np.kron(model.ensemble.weights, np.eye(x0.shape[0]))
    y = np.concatenate([x0] * model.ensemble.n)
    out = [x0]
    for _ in range(tgrid.size - 1):
        y = phi @ y
        out.append(rows @ y)
    return np.array(out)


def pseudomode_generator(model):
    """Dense generator of the pole-basis embedding y = (x, m_1..m_n) of the kernel modes:

        x'   = (L_H + kappa L) x + sum_j m_j
        m_j' = c_j L x + (p_j + L_H) m_j

    with K(t) = kappa delta(t) + sum_j c_j exp(p_j t) from :func:`kernel_decompose`.
    """
    kernel = kernel_decompose(model.ensemble)
    L, L_H = model.L, model.L_H
    n, eye = kernel.poles.size, np.eye(L.shape[0])
    return np.block([
        [L_H + kernel.markov_weight * L, np.tile(eye, n)],
        [np.kron(kernel.amplitudes[:, None], L),
         np.kron(np.diag(kernel.poles), eye) + np.kron(np.eye(n), L_H)]])


def volterra_pole_basis(model, x0, tgrid):
    """The memory-kernel solution x_k from the kernel poles: the pseudomode embedding,
    y0 = (x0, 0), stepped with a dense scipy expm."""
    tgrid, h = dynamics._check_grid(tgrid)
    gen = pseudomode_generator(model)
    phi = scipy.linalg.expm(h * gen)
    D = x0.shape[0]
    y = np.zeros((gen.shape[0],) + x0.shape[1:], dtype=complex)
    y[:D] = x0
    out = [x0]
    for _ in range(tgrid.size - 1):
        y = phi @ y
        out.append(y[:D])
    return np.array(out)


def gather_scatter_events(seed, n, t_max, rates, weights, renewal):
    """Event times and offsets by the sampler's earlier round loop.

    Every round gathers the stream state, clock and frozen rate of the live
    trajectories from full-length arrays through their indices and scatters
    them back; :func:`nmbath._mc._sample_events` keeps them compacted.  The
    draws of each stream are the same.
    """
    def mix(state):
        state = state + _mc._GOLDEN
        return state, ((_mc._finalize(state) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    state = _mc._stream_init(seed, n)
    cum = np.cumsum(weights)

    def pick(u):
        return rates[np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)]

    if not renewal:
        state, u = mix(state)
        frozen = pick(u)
    cur = np.zeros(n)
    alive = np.arange(n)
    rounds_idx, rounds_t = [], []
    with np.errstate(divide="ignore", over="ignore"):
        while alive.size:
            s = state[alive]
            if renewal:
                s, u = mix(s)
                gam = pick(u)
            else:
                gam = frozen[alive]
            state[alive], u = mix(s)
            cur[alive] += -np.log(u) / gam
            alive = alive[cur[alive] <= t_max]
            rounds_idx.append(alive)
            rounds_t.append(cur[alive])
    return _mc._assemble(n, rounds_idx, rounds_t)


def count_histogram_two_bincounts(cols, tgrid, ev_times, ev_off, hist_cells):
    """:func:`nmbath._mc._count_histogram_sums` with the event moves counted twice.

    In each block of at most ``hist_cells`` cells, one ``bincount`` adds each
    event at its count and a second takes it from the count before.
    """
    n, nt, ncol = ev_off.size - 1, tgrid.size, cols.shape[0]
    g = np.searchsorted(tgrid, ev_times, side="left")
    after = np.arange(1, ev_times.size + 1) - np.repeat(ev_off[:-1], np.diff(ev_off))
    hist = np.zeros(ncol, dtype=np.int64)
    hist[0] = n
    out = np.empty((nt, cols.shape[1]))
    rows = max(1, hist_cells // ncol)
    for k0 in range(0, nt, rows):
        k1 = min(k0 + rows, nt)
        sel = (g >= k0) & (g < k1)
        cell = (g[sel] - k0) * ncol + after[sel]
        size = (k1 - k0) * ncol
        diff = np.bincount(cell, minlength=size) - np.bincount(cell - 1, minlength=size)
        diff[:ncol] += hist
        block = np.cumsum(diff.reshape(k1 - k0, ncol), axis=0)
        hist = block[-1]
        out[k0:k1] = block @ cols
    return out


def union_find_sets(pattern):
    """The coupled sets of a (D, D) boolean pattern by union-find, as a set of frozensets."""
    parent = list(range(pattern.shape[0]))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(pattern)):
        parent[root(i)] = root(j)
    groups = {}
    for i in range(len(parent)):
        groups.setdefault(root(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}
