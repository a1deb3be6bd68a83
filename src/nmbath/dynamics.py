"""Solvers for the reduced density matrix under a random dissipation rate.

Three mutually validating routes:

* ``evolve_ensemble`` - the exact rate average, a weighted sum of fixed-rate
  Lindblad propagations.  Reference for every cross-check.
* ``evolve_volterra`` - integrates the effective memory-kernel equation
  d rho/dt = L_H rho + int K(t-s) exp((t-s) L_H) L rho(s) ds with the kernel
  delta-weight folded into an integrating factor and one auxiliary memory
  variable per exponential kernel mode (exact one-step recursion).
* ``mc_trajectories`` - stochastic unravelings applying the event map E at
  random times: ``frozen_rate`` draws one rate per trajectory (converges to
  the exact average), ``renewal`` draws i.i.d. waiting times from the mixture
  density (converges to the effective equation).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _mc, qops
from .qops import SIGMA_Z, IDENTITY_2
from .ratebath import RateEnsemble, KernelDecomposition, kernel_decompose

PICTURES = ("interaction", "schroedinger")

# largest entry of [L_H, L] for which the interaction picture is accepted
COMMUTATOR_TOL = 1e-10


class SolverError(RuntimeError):
    """Raised when a solver precondition or accuracy contract fails."""


@dataclass(frozen=True)
class ModelSpec:
    """System Hamiltonian, jump operators, and the environment rate ensemble.

    ``picture = "interaction"`` drops the coherent term from all generators.
    That is exact only when the dissipator commutes with L_H (as for
    dephasing), so the picture is refused otherwise.
    """

    hamiltonian: np.ndarray
    jumps: tuple
    ensemble: RateEnsemble
    picture: str = "interaction"

    def __post_init__(self):
        qops.require_hermitian(self.hamiltonian, "Hamiltonian")
        if self.picture not in PICTURES:
            raise ValueError(f"picture must be one of {PICTURES}")
        if self.picture == "interaction":
            L_H = qops.hamiltonian_liouvillian(self.hamiltonian)
            L = dissipator(self)
            defect = np.max(np.abs(L_H @ L - L @ L_H))
            if defect > COMMUTATOR_TOL:
                raise ValueError(
                    f"jumps do not commute with H (max |[L_H, L]| = {defect:.3e}), so the "
                    "interaction picture would drop H; use model.picture = schroedinger"
                )

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


def dephasing_jumps():
    """Jump pair {sigma_z/sqrt(2), I/sqrt(2)}.

    Normalized so that sum V^dag V = I (the event map is trace preserving)
    and coherences decay at exactly the ensemble rate, which makes the
    survival probability the coherence envelope.
    """
    return (SIGMA_Z / np.sqrt(2.0), IDENTITY_2 / np.sqrt(2.0))


def dephasing_model(ensemble, omega=1.0, picture="interaction"):
    return ModelSpec(0.5 * omega * SIGMA_Z, dephasing_jumps(), ensemble, picture)


def coherent_liouvillian(model: ModelSpec):
    """L_H of the model; identically zero in the interaction picture."""
    d = model.dim
    if model.picture == "interaction":
        return np.zeros((d * d, d * d), dtype=complex)
    return qops.hamiltonian_liouvillian(model.hamiltonian)


def dissipator(model: ModelSpec):
    return qops.lindblad_dissipator(model.jumps, dim=model.dim)


def event_map(model: ModelSpec):
    """E with L = E - I; raises when the jumps are not normalized."""
    return qops.jump_superoperator(model.jumps)


def generator(model: ModelSpec, rate):
    """Fixed-rate Lindblad generator L_H + gamma * L."""
    return coherent_liouvillian(model) + rate * dissipator(model)


@dataclass(frozen=True)
class MCConfig:
    trajectories: int
    seed: int
    scheme: str = "frozen_rate"

    def __post_init__(self):
        if self.trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.scheme not in ("frozen_rate", "renewal"):
            raise ValueError(f"unknown MC scheme {self.scheme!r}")


@dataclass(frozen=True)
class EvolutionResult:
    tgrid: np.ndarray
    states: np.ndarray
    solver: str
    trace_drift: np.ndarray
    min_eigenvalue: np.ndarray
    stderr: np.ndarray | None = None
    n_trajectories: int | None = None
    meta: dict = field(default_factory=dict)

    def coherence(self, i=0, j=1):
        return self.states[:, i, j]


def _diagnose(states):
    herm = 0.5 * (states + np.conj(np.swapaxes(states, 1, 2)))
    drift = np.abs(np.einsum("tii->t", states) - 1.0)
    mineig = np.linalg.eigvalsh(herm)[:, 0]
    return drift, mineig


def _check_grid(tgrid):
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.size < 2:
        raise ValueError("time grid must be a 1-d array with at least two points")
    steps = np.diff(tgrid)
    if np.any(steps <= 0):
        raise ValueError("time grid must be strictly increasing")
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise ValueError("time grid must be uniform")
    return tgrid, float(h)


def time_grid(t_max, steps):
    """Uniform grid of ``steps`` intervals on [0, t_max] (steps+1 points)."""
    if steps < 1 or t_max <= 0:
        raise ValueError("need t_max > 0 and at least one step")
    return np.linspace(0.0, float(t_max), int(steps) + 1)


def evolve_ensemble(model: ModelSpec, rho0, tgrid) -> EvolutionResult:
    """Exact solution: weighted average of fixed-rate Lindblad evolutions."""
    rho0 = qops.require_density_matrix(rho0)
    tgrid, _ = _check_grid(tgrid)
    v0 = qops.vectorize(rho0)
    acc = np.zeros((tgrid.size, v0.size), dtype=complex)
    for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
        fac = qops.generator_factorization(generator(model, rate))
        acc += weight * fac.apply_many(tgrid, v0)
    states = acc.reshape(-1, model.dim, model.dim, order="F")
    drift, mineig = _diagnose(states)
    return EvolutionResult(tgrid, states, "ensemble", drift, mineig)


def ensemble_propagator_series(model: ModelSpec, tgrid):
    """Averaged propagator superoperator at every grid time, shape (nt, d^2, d^2)."""
    tgrid, _ = _check_grid(tgrid)
    dsq = model.dim ** 2
    out = np.zeros((tgrid.size, dsq, dsq), dtype=complex)
    for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
        fac = qops.generator_factorization(generator(model, rate))
        out += weight * fac.expm_many(tgrid)
    return out


def _volterra_step_map(model, kernel, h):
    """Constant one-step matrix Phi of the predictor-corrector scheme.

    The scheme acts on y = (x, m_1..m_n), the state and one memory variable
    per kernel mode: an exponential-trapezoidal step with a rectangle-rule
    predictor and two corrector passes.  Every pass is linear with fixed
    coefficients, so a step is y <- Phi y.  With h2 = h/2, U = exp(h (L_H +
    <gamma> L)), mode propagators P_j = exp(p_j h) exp(h L_H), A = h2^2
    (sum c_j) L and Q = sum c_j P_j:

        x'   = [(I + A)(U + h2^2 Q L) + A^2 U] x
               + sum_k [h2 (I + A)(U + P_k) + h A^2 U] m_k
        m_j' = P_j m_j + h2 c_j (P_j L x + L x')
    """
    L = dissipator(model)
    L_H = coherent_liouvillian(model)
    D, h2, c = L.shape[0], 0.5 * h, kernel.amplitudes
    U = scipy.linalg.expm(h * (L_H + kernel.markov_weight * L))
    P = np.exp(kernel.poles * h)[:, None, None] * scipy.linalg.expm(h * L_H)
    A = h2 * h2 * c.sum() * L
    IA = np.eye(D) + A
    AAU = A @ A @ U
    Q = np.tensordot(c, P, axes=1)
    x_row = np.hstack([IA @ (U + h2 * h2 * Q @ L) + AAU,
                       *(h2 * IA @ (U + Pk) + h * AAU for Pk in P)])
    phi = np.vstack([x_row, np.kron((h2 * c)[:, None], L @ x_row)])
    for j, Pj in enumerate(P):
        rows = slice(D * (j + 1), D * (j + 2))
        phi[rows, :D] += h2 * c[j] * Pj @ L
        phi[rows, rows] += Pj
    return phi


def _volterra_run(model, x0, tgrid, kernel, check_step, step_tol):
    """Iterate the step map from (x0, 0); ``x0`` is a state (d^2,) or a map (d^2, d^2)."""
    tgrid, h = _check_grid(tgrid)
    if tgrid[0] != 0.0:
        raise ValueError("Volterra integration must start at t = 0")

    def sweep(n_steps, step):
        phi = _volterra_step_map(model, kernel, step)
        D = x0.shape[0]
        y = np.zeros((phi.shape[0],) + x0.shape[1:], dtype=complex)
        y[:D] = x0
        out = np.empty((n_steps + 1,) + x0.shape, dtype=complex)
        out[0] = x0
        for k in range(1, n_steps + 1):
            y = phi @ y
            out[k] = y[:D]
        return out

    n_steps = tgrid.size - 1
    out = sweep(n_steps, h)
    richardson = None
    if check_step:
        fine = sweep(2 * n_steps, 0.5 * h)[::2]
        richardson = float(np.max(np.abs(out - fine)))
        if richardson > step_tol:
            raise SolverError(
                f"Volterra step size too coarse: Richardson residual {richardson:.3e} "
                f"exceeds {step_tol:g}; refine the grid"
            )
        out = fine
    return tgrid, out, richardson


def evolve_volterra(model: ModelSpec, rho0, tgrid, kernel: KernelDecomposition | None = None,
                    check_step=True, step_tol=1e-4) -> EvolutionResult:
    """Integrate the effective memory-kernel evolution.

    The kernel defaults to the exact partial-fraction decomposition of the
    model ensemble.  With ``check_step`` the integration is repeated at half
    step and the halved-step solution is returned; the Richardson residual is
    stored in ``meta`` and must stay below ``step_tol``.
    """
    rho0 = qops.require_density_matrix(rho0)
    if kernel is None:
        kernel = kernel_decompose(model.ensemble)
    v0 = qops.vectorize(rho0)
    tgrid, vecs, richardson = _volterra_run(model, v0, tgrid, kernel, check_step, step_tol)
    states = vecs.reshape(-1, model.dim, model.dim, order="F")
    drift, mineig = _diagnose(states)
    meta = {} if richardson is None else {"richardson_residual": richardson}
    return EvolutionResult(tgrid, states, "volterra", drift, mineig, meta=meta)


def volterra_propagator_series(model: ModelSpec, tgrid, kernel=None,
                               check_step=False, step_tol=1e-4):
    """Propagate the identity map through the Volterra scheme (for CP checks)."""
    if kernel is None:
        kernel = kernel_decompose(model.ensemble)
    dsq = model.dim ** 2
    x0 = np.eye(dsq, dtype=complex)
    _, maps, _ = _volterra_run(model, x0, tgrid, kernel, check_step, step_tol)
    return maps


def exact_memory_superop(model: ModelSpec, u):
    """Memory superoperator in the Laplace domain.

    Solves <G_R(u)> LL(u) = <G_R(u) L_R> for LL(u), with G_R the fixed-rate
    resolvent.  For a single rate this is gamma * L independent of u.
    """
    L = dissipator(model)
    avg = np.zeros_like(L)
    avg_rate = np.zeros_like(L)
    for rate, weight in zip(model.ensemble.rates, model.ensemble.weights):
        G = qops.resolvent(generator(model, rate), u)
        avg += weight * G
        avg_rate += weight * (G @ (rate * L))
    try:
        out = np.linalg.solve(avg, avg_rate)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"average resolvent is singular at u = {u}") from exc
    resid = np.max(np.abs(avg @ out - avg_rate))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(avg_rate)))):
        raise SolverError(
            f"memory superoperator solve at u = {u} left residual {resid:.3e}"
        )
    return out


def _unitary_factorization(model, h):
    """(U_h, W, W^dag, lam) for exp(t L_H) applied between jump events."""
    H = np.asarray(model.hamiltonian, dtype=complex)
    energies, basis = np.linalg.eigh(H)
    d = H.shape[0]
    lam = -1j * (np.tile(energies, d) - np.repeat(energies, d))
    W = np.kron(basis.conj(), basis)
    U_h = (W * np.exp(lam * h)) @ W.conj().T
    return U_h, W, W.conj().T, lam


def mc_trajectories(model: ModelSpec, rho0, tgrid, cfg: MCConfig, n_threads=None):
    """Monte Carlo unraveling; returns the averaged result with standard errors.

    Standard errors are per matrix entry: sqrt(var/n) with the complex sample
    variance E|z|^2 - |Ez|^2.  ``meta["route"]`` is "count_histogram" when
    nothing evolves between events and "batched" otherwise.  Parallelism of
    the batched route is capped by ``n_threads`` or the NMBATH_THREADS
    environment variable; the average is independent of the thread count.
    """
    rho0 = qops.require_density_matrix(rho0)
    tgrid, _ = _check_grid(tgrid)
    if tgrid[0] != 0.0:
        raise ValueError("MC grids must start at t = 0")
    E = event_map(model)
    rates = model.ensemble.rates
    weights = model.ensemble.weights
    t_max = float(tgrid[-1])

    if cfg.scheme == "frozen_rate":
        ev_times, ev_off = _mc.sample_frozen_events(
            cfg.seed, cfg.trajectories, t_max, rates, weights)
        tag, composition = "mc_frozen", "forward"
    else:
        ev_times, ev_off = _mc.sample_renewal_events(
            cfg.seed, cfg.trajectories, t_max, rates, weights)
        # reversed string: its renewal average solves the effective equation
        tag, composition = "mc_renewal", "reversed"

    if model.picture == "interaction" or np.max(np.abs(model.hamiltonian)) == 0.0:
        unitary = None
    else:
        unitary = _unitary_factorization(model, float(tgrid[1] - tgrid[0]))

    if n_threads is None:
        n_threads = int(os.environ.get("NMBATH_THREADS", "1"))
    n_threads = max(1, n_threads)

    mean, stderr = _mc.run_trajectories(
        qops.vectorize(rho0), tgrid, ev_times, ev_off, unitary, E,
        n_threads=n_threads, composition=composition)
    d = model.dim
    states = mean.reshape(-1, d, d, order="F")
    errs = stderr.reshape(-1, d, d, order="F")
    drift, mineig = _diagnose(states)
    meta = {"scheme": cfg.scheme,
            "route": "count_histogram" if unitary is None else "batched",
            "events": int(ev_off[-1]),
            "events_max_per_traj": int(np.diff(ev_off).max())}
    return EvolutionResult(tgrid, states, tag, drift, mineig, stderr=errs,
                           n_trajectories=cfg.trajectories, meta=meta)
