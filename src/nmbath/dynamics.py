"""Solvers for the reduced density matrix under a random dissipation rate.

Three mutually validating routes:

* ``evolve_ensemble`` - the exact rate average, a weighted sum of fixed-rate
  Lindblad propagations, each in blocked powers of its step map as below.
  Reference for every cross-check.
* ``evolve_volterra`` - solves the effective memory-kernel equation
  d rho/dt = L_H rho + int K(t-s) exp((t-s) L_H) L rho(s) ds.  The kernel
  K(t) = kappa delta(t) + sum_j c_j exp(p_j t) is a sum of exponentials, so
  one auxiliary memory variable per pole makes the equation a Markovian
  embedding (the pseudomode construction): a linear ODE with a constant
  generator on (rho, m_1..m_n).  Each grid step applies its exact
  propagator Phi = expm(h G), so the only error is round-off.  The grid is
  taken in blocks of B steps, rho_{jB+i} = (P Phi^i)(Phi^B)^j y0: about
  2 log2 B + nt/B matrix products and one stacked product replace nt
  matrix-vector steps.
* ``mc_trajectories`` - stochastic unravelings applying the event map E at
  random times: ``frozen_rate`` draws one rate per trajectory (converges to
  the exact average), ``renewal`` draws i.i.d. waiting times from the mixture
  density (converges to the effective equation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

    Its superoperators L, L_H and E (L = E - I for normalized jumps) are
    built on first use, once per model, and are read-only.
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
            defect = np.max(np.abs(L_H @ self.L - self.L @ L_H))
            if defect > COMMUTATOR_TOL:
                raise ValueError(
                    f"jumps do not commute with H (max |[L_H, L]| = {defect:.3e}), so the "
                    "interaction picture would drop H; use model.picture = schroedinger"
                )

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @cached_property
    def L(self):
        """The dissipator."""
        return _read_only(qops.lindblad_dissipator(self.jumps, dim=self.dim))

    @cached_property
    def L_H(self):
        """The coherent generator -i[H, .]; identically zero in the interaction picture."""
        if self.picture == "interaction":
            return _read_only(np.zeros((self.dim ** 2,) * 2, dtype=complex))
        return _read_only(qops.hamiltonian_liouvillian(self.hamiltonian))

    @cached_property
    def E(self):
        """The event map; raises ValueError when the jumps are not normalized."""
        return _read_only(qops.jump_superoperator(self.jumps))


def _read_only(a):
    a.setflags(write=False)
    return a


def dephasing_jumps():
    """Jump pair {sigma_z/sqrt(2), I/sqrt(2)}.

    Normalized so that sum V^dag V = I (the event map is trace preserving)
    and coherences decay at exactly the ensemble rate, which makes the
    survival probability the coherence envelope.
    """
    return (SIGMA_Z / np.sqrt(2.0), IDENTITY_2 / np.sqrt(2.0))


def dephasing_model(ensemble, omega=1.0, picture="interaction"):
    return ModelSpec(0.5 * omega * SIGMA_Z, dephasing_jumps(), ensemble, picture)


def rate_stack(model: ModelSpec):
    """One factorization of the generator stack {G_R} with the ensemble weights."""
    ens = model.ensemble
    return qops.generator_factorization(model.L_H + np.multiply.outer(ens.rates, model.L),
                                        ens.weights)


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


def _diagnose(states):
    herm = 0.5 * (states + np.conj(np.swapaxes(states, 1, 2)))
    drift = np.abs(np.einsum("tii->t", states) - 1.0)
    mineig = np.linalg.eigvalsh(herm)[:, 0]
    return drift, mineig


def _check_grid(tgrid):
    """A grid t0 + k h of at least two times, and its step h."""
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.size < 2:
        raise ValueError("time grid must be a 1-d array with at least two points")
    return tgrid, qops.arithmetic_grid(tgrid)[1]


def time_grid(t_max, steps):
    """Uniform grid of ``steps`` intervals on [0, t_max] (steps+1 points)."""
    if steps < 1 or t_max <= 0:
        raise ValueError("need t_max > 0 and at least one step")
    return np.linspace(0.0, float(t_max), int(steps) + 1)


def evolve_ensemble(model: ModelSpec, rho0, tgrid) -> EvolutionResult:
    """Exact solution: weighted average of fixed-rate Lindblad evolutions."""
    rho0 = qops.require_density_matrix(rho0)
    tgrid, _ = _check_grid(tgrid)
    vecs = rate_stack(model).average(tgrid, qops.vectorize(rho0)[None])
    states = vecs.reshape(-1, model.dim, model.dim, order="F")
    drift, mineig = _diagnose(states)
    return EvolutionResult(tgrid, states, "ensemble", drift, mineig)


def ensemble_propagator_series(model: ModelSpec, tgrid):
    """Averaged propagator superoperator at every grid time, shape (nt, d^2, d^2)."""
    tgrid, _ = _check_grid(tgrid)
    return rate_stack(model).average(tgrid, np.eye(model.dim ** 2)[None])


def _embedding_expm1(L, L_H, kernel, h, sets):
    """expm(h G) - I for the generator G of the Markovian embedding y = (x, m_1..m_n).

    The memory variables m_j(t) = int_0^t c_j exp((t-s)(p_j + L_H)) L x(s) ds
    turn the memory-kernel equation into the linear ODE y' = G y:

        x'   = (L_H + kappa L) x + sum_j m_j
        m_j' = c_j L x + (p_j + L_H) m_j

    ``sets`` is a (sets, k) array of coupled sets of components (see
    :func:`_coupled_sets`); the result is one map (sets, S, S), S = k (n+1),
    for y restricted to each set, summed by :func:`qops.expm1`.  The
    1-norm bound is that of the whole L and L_H, so the scaling and the
    Taylor cut do not depend on the split.  G is applied block by block,
    which costs O(n k^2) per column where a dense product costs O(n^2 k^2).
    """
    A = L_H + kernel.markov_weight * L
    c = np.reshape(kernel.amplitudes, (-1, 1, 1))
    p = np.reshape(kernel.poles, (-1, 1, 1))
    # largest column sum over the x block and the m_j blocks of G
    norm = h * max(np.linalg.norm(A, 1) + np.abs(c).sum() * np.linalg.norm(L, 1),
                   1.0 + np.abs(p).max(initial=0.0) + np.linalg.norm(L_H, 1))
    block = sets[:, :, None], sets[:, None]
    A, L, L_H = A[block], L[block], L_H[block]
    count, k = sets.shape
    size = k * (kernel.n_modes + 1)

    def apply(term):
        term = term.reshape(count, -1, k, size)
        x, m = term[:, 0], term[:, 1:]
        return np.concatenate([(A @ x + m.sum(axis=1))[:, None],
                               c * (L @ x)[:, None] + p * m + L_H[:, None] @ m],
                              axis=1).reshape(count, size, size)

    return qops.expm1(apply, h, norm, (count, size, size))


def _coupled_sets(L, L_H):
    """The sets of components of x that L or L_H couple, directly or through one another.

    The embedding G mixes two components only through an entry of L or L_H,
    so components in different sets never mix, and each set evolves under
    its own step map; under dephasing every component is a set of its own.
    Sets of one size are stacked: the result is one (sets, size) index array
    per size.
    """
    D = L.shape[0]
    reach = (L != 0) | (L_H != 0)
    reach |= reach.T | np.eye(D, dtype=bool)
    for _ in range(D.bit_length()):
        reach = reach @ reach
    sets = [np.flatnonzero(row) for row in np.unique(reach, axis=0)]
    return [np.array([s for s in sets if s.size == size]) for size in {s.size for s in sets}]


def _volterra_run(model, x0, tgrid, kernel):
    """x_k = P Phi^k (x0, 0) at every grid time; ``x0`` is a state (d^2,) or a map (d^2, d^2).

    Each coupled set of components runs on its own step map.
    """
    tgrid, h = _check_grid(tgrid)
    if tgrid[0] != 0.0:
        raise ValueError("Volterra integration must start at t = 0")
    L, L_H = model.L, model.L_H
    nt = tgrid.size - 1
    out = np.empty((nt + 1,) + x0.shape, dtype=complex)
    for group in _coupled_sets(L, L_H):
        # y0 = (x0, 0): the memory variables start at zero
        y0 = np.pad(x0[group].reshape(group.shape + (-1,)),
                    ((0, 0), (0, group.shape[1] * kernel.n_modes), (0, 0)))
        step = _embedding_expm1(L, L_H, kernel, h, group)
        powers = qops.block_powers(step, y0, nt, group.shape[1])
        out[:, group] = powers.reshape((nt + 1,) + x0[group].shape)
    if not np.all(np.isfinite(out)):
        raise SolverError("Volterra solution is not finite; the kernel has a growing mode")
    return tgrid, out


def evolve_volterra(model: ModelSpec, rho0, tgrid,
                    kernel: KernelDecomposition | None = None) -> EvolutionResult:
    """Integrate the effective memory-kernel evolution.

    The kernel defaults to the exact partial-fraction decomposition of the
    model ensemble.
    """
    rho0 = qops.require_density_matrix(rho0)
    if kernel is None:
        kernel = kernel_decompose(model.ensemble)
    v0 = qops.vectorize(rho0)
    tgrid, vecs = _volterra_run(model, v0, tgrid, kernel)
    states = vecs.reshape(-1, model.dim, model.dim, order="F")
    drift, mineig = _diagnose(states)
    return EvolutionResult(tgrid, states, "volterra", drift, mineig)


def volterra_propagator_series(model: ModelSpec, tgrid, kernel=None):
    """Propagate the identity map through the Volterra scheme (for CP checks)."""
    if kernel is None:
        kernel = kernel_decompose(model.ensemble)
    dsq = model.dim ** 2
    x0 = np.eye(dsq, dtype=complex)
    _, maps = _volterra_run(model, x0, tgrid, kernel)
    return maps


def _unitary_factorization(model):
    """(W, lam) with exp(t L_H) = W diag(exp(lam t)) W^dag, for the evolution between events."""
    H = np.asarray(model.hamiltonian, dtype=complex)
    energies, basis = np.linalg.eigh(H)
    d = H.shape[0]
    lam = -1j * (np.tile(energies, d) - np.repeat(energies, d))
    return np.kron(basis.conj(), basis), lam


def mc_trajectories(model: ModelSpec, rho0, tgrid, cfg: MCConfig):
    """Monte Carlo unraveling; returns the averaged result with standard errors.

    Standard errors are per matrix entry: sqrt(var/n) with the complex sample
    variance E|y|^2 - |Ey|^2 of y = z - a(t), where a(t) = exp(t L_H) v0 is
    the trajectory without events.  So an entry that no trajectory has moved
    off a(t), as at t = 0, has a standard error of exactly 0.
    ``meta["route"]`` is "count_histogram" when nothing evolves between
    events (L_H identically zero) and "eigenbasis" otherwise.
    """
    rho0 = qops.require_density_matrix(rho0)
    tgrid, _ = _check_grid(tgrid)
    if tgrid[0] != 0.0:
        raise ValueError("MC grids must start at t = 0")
    E = model.E
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

    unitary = _unitary_factorization(model) if model.L_H.any() else None

    mean, stderr = _mc.run_trajectories(
        qops.vectorize(rho0), tgrid, ev_times, ev_off, unitary, E, composition=composition)
    d = model.dim
    states = mean.reshape(-1, d, d, order="F")
    errs = stderr.reshape(-1, d, d, order="F")
    drift, mineig = _diagnose(states)
    meta = {"scheme": cfg.scheme,
            "route": "count_histogram" if unitary is None else "eigenbasis",
            "events": int(ev_off[-1]),
            "events_max_per_traj": int(np.diff(ev_off).max())}
    return EvolutionResult(tgrid, states, tag, drift, mineig, stderr=errs,
                           n_trajectories=cfg.trajectories, meta=meta)
