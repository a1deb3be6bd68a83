"""Reference routines used only by the test suite.

They evaluate each fixed-rate propagator densely with scipy.linalg.expm, so
they stay independent of the rate-stack eigendecomposition the package uses.
"""

import numpy as np
import scipy.linalg

from nmbath import _mc, dynamics, qops, qrt
from nmbath.qops import SIGMA_Z, devectorize, vectorize
from nmbath.ratebath import survival


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
        gen = dynamics.generator(model, rate)
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
    G = qrt.observable_propagator(model, basis, np.asarray(taugrid, dtype=float))
    return np.einsum("tmn,n->mt", G, anchor)


def heisenberg_generator(model, rate, basis):
    """Matrix M_R with Tr{A (L_H + gamma L)[S]} = M_R Tr{A S} for all S.

    The adjoint (observable-side) form of the fixed-rate generator, expressed
    in the given complete basis.
    """
    T, cols, gram_inv = qrt._basis_matrices(basis)
    return T @ dynamics.generator(model, rate) @ (cols @ gram_inv)


def stationary_state(model, rho0):
    """Projection of rho0 onto the null space of the average generator.

    Pure dephasing has a conserved population sector, so the stationary state
    is resolved by the initial condition.
    """
    rho0 = qops.require_density_matrix(rho0)
    avg = np.tensordot(model.ensemble.weights,
                       dynamics.generator(model, model.ensemble.rates), axes=1)
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
    successive events.  An event at or before a grid time counts at it.
    """
    dsq = v0.size
    eye = np.eye(dsq)
    # expm of zero is the identity; skipping it keeps large event-count tests fast
    U = (lambda gap: scipy.linalg.expm(gap * L_H)) if np.any(L_H) else (lambda gap: eye)
    total = np.zeros((len(tgrid), dsq), dtype=complex)
    total_sq = np.zeros((len(tgrid), dsq))
    V = np.empty((len(tgrid), dsq), dtype=complex)
    for i in range(len(off) - 1):
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
            V[k] = prefix @ (U(t - last) @ v)
        total += V
        total_sq += np.abs(V) ** 2
    return _mc._mean_stderr(total, total_sq, len(off) - 1)
