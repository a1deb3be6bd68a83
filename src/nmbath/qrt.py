"""Observable propagators, two-time correlators, and regression-theorem residuals.

The regression "prediction" propagates the measured equal-time correlator
with the deterministic one-time propagator of expectation values; the
residual against the exact rate-averaged correlator measures how far the
dynamics is from obeying the Markovian regression rule.  For pure dephasing
the residual has the closed form I0 * [P0(t+tau) - P0(t) P0(tau)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qops
from .dynamics import ModelSpec, rate_stack
from .ratebath import RateEnsemble, survival
from .qops import SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2

GRAM_COND_LIMIT = 1e6


def pauli_basis():
    """The default complete observable set {sigma_x, sigma_y, sigma_z, I}."""
    return (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2)


def _basis_matrices(basis):
    """Trace row map T, reconstruction columns A, and the Gram inverse.

    a_mu = Tr(A_mu rho) = T @ vec(rho); vec(rho) = A @ g^-1 @ a for Hermitian
    bases, with g the Hilbert-Schmidt Gram matrix.
    """
    mats = [np.asarray(A, dtype=complex) for A in basis]
    d = mats[0].shape[0]
    if len(mats) != d * d:
        raise ValueError(f"need {d*d} basis operators for dimension {d}, got {len(mats)}")
    T = np.array([qops.vectorize(A.T) for A in mats])
    cols = np.array([qops.vectorize(A) for A in mats]).T
    gram = np.array([[np.trace(A.conj().T @ B) for B in mats] for A in mats])
    cond = np.linalg.cond(gram)
    if cond > GRAM_COND_LIMIT:
        raise ValueError(f"observable basis is ill-conditioned (Gram cond {cond:.3e})")
    gram_inv = np.linalg.inv(gram)
    return T, cols, gram_inv


def _seeds(stack, rho0, S, t, tau):
    """R_S rho_R(t) for every rate and time t, shape (R, D, n_t), with rho_R(t) = exp(G_R t) v0.

    R_S = S^T (x) I is the map rho -> rho S; t and tau must be nonnegative.
    """
    rho0 = qops.require_density_matrix(rho0)
    if np.any(np.asarray(t) < 0) or np.any(np.asarray(tau) < 0):
        raise ValueError("correlation times must be nonnegative")
    S = np.asarray(S, dtype=complex)
    rho_t = stack.per_rate(np.reshape(t, -1), qops.vectorize(rho0)[None])
    return np.kron(S.T, np.eye(S.shape[0])) @ rho_t.transpose(1, 2, 0)


def two_time_correlation(model: ModelSpec, rho0, S, basis, t, tau):
    """Exact <S(t) A_mu(t+tau)> = sum_R P_R T exp(G_R tau) R_S exp(G_R t) v0.

    ``t`` and ``tau`` may each be a scalar or a grid t0 + k h; the result has
    shape (len(basis),) + shape(t) + shape(tau).
    """
    stack = rate_stack(model)
    seeds = _seeds(stack, rho0, S, t, tau)
    T = np.array([qops.vectorize(np.asarray(A, dtype=complex).T) for A in basis])
    corr = T @ stack.average(np.reshape(tau, -1), seeds)
    return np.moveaxis(corr, 0, -1).reshape((len(basis),) + np.shape(t) + np.shape(tau))


@dataclass(frozen=True)
class CorrelationSurface:
    tgrid: np.ndarray
    taugrid: np.ndarray
    actual: np.ndarray      # (n_t, n_tau, n_obs)
    predicted: np.ndarray
    residual: np.ndarray

    def max_residual_per_t(self):
        return np.max(np.abs(self.residual), axis=(1, 2))


def qrt_residual(model: ModelSpec, rho0, S, basis, tgrid, taugrid) -> CorrelationSurface:
    """Actual minus predicted correlators over the full (t, tau) surface.

    One propagation over tau carries both the observable basis, for the
    one-time propagator G(tau), and the operands R_S rho_R(t) of the actual
    correlators.  The equal-time anchor T R_S rho_avg(t), with
    rho_avg = sum_R P_R rho_R, comes from the states already propagated to t.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    taugrid = np.asarray(taugrid, dtype=float)
    T, cols, gram_inv = _basis_matrices(basis)
    stack = rate_stack(model)
    seeds = _seeds(stack, rho0, S, tgrid, taugrid)
    anchor = T @ np.tensordot(stack.weights, seeds, 1)
    k = cols.shape[1]
    obs = np.broadcast_to(cols @ gram_inv, (seeds.shape[0],) + cols.shape)
    out = T @ stack.average(taugrid, np.concatenate([obs, seeds], axis=2))
    actual = out[:, :, k:].transpose(2, 0, 1)
    predicted = np.einsum("smn,nk->ksm", out[:, :, :k], anchor)
    return CorrelationSurface(tgrid, taugrid, actual, predicted, actual - predicted)


def dephasing_h(ens: RateEnsemble, t, tau):
    """Memory witness h(t, tau) = P0(t+tau) - P0(t) P0(tau)."""
    return survival(ens, np.asarray(t) + np.asarray(tau)) - survival(ens, t) * survival(ens, tau)


def dephasing_residual_closed_form(ens: RateEnsemble, rho0, S, basis, tgrid, taugrid):
    """Closed-form residual I0 * h(t, tau) for the dephasing model.

    I0_mu = Tr{(rho0 - rho_inf) S A_mu} masked to the coherence components
    (the sector whose one-time propagator is P0); rho_inf keeps the
    populations of rho0 and erases coherences.  Returns shape
    (n_t, n_tau, n_obs) matching :class:`CorrelationSurface`.
    """
    rho0 = qops.require_density_matrix(rho0)
    S = np.asarray(S, dtype=complex)
    rho_inf = np.diag(np.diag(rho0))
    delta = rho0 - rho_inf
    i0 = np.array([np.trace(delta @ S @ np.asarray(A, dtype=complex)) for A in basis])
    mask = np.array([_is_coherence_observable(A) for A in basis], dtype=float)
    i0 = i0 * mask
    tgrid = np.asarray(tgrid, dtype=float)
    taugrid = np.asarray(taugrid, dtype=float)
    h = dephasing_h(ens, tgrid[:, None], taugrid[None, :])
    return h[:, :, None] * i0[None, None, :]


def _is_coherence_observable(A):
    """True when A lives purely off-diagonal (decays with P0 under dephasing)."""
    A = np.asarray(A, dtype=complex)
    return np.max(np.abs(np.diag(A))) < 1e-12 and np.max(np.abs(A)) > 0
