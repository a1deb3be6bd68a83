"""Solvers for the reduced density matrix under a random dissipation rate.

Three mutually validating routes:

* ``evolve_ensemble`` - the exact rate average, a weighted sum of fixed-rate
  Lindblad propagations.  Reference for every cross-check.
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

import numpy as np

from . import _mc, qops
from .qops import SIGMA_Z, IDENTITY_2
from .ratebath import RateEnsemble, KernelDecomposition, kernel_decompose

PICTURES = ("interaction", "schroedinger")

# largest entry of [L_H, L] for which the interaction picture is accepted
COMMUTATOR_TOL = 1e-10

# most Taylor terms of the Volterra step map; with |h G|_1 <= 1 the
# truncation error is below sum_{k > 18} 1/k! < 1e-17
TAYLOR_DEGREE = 18


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
    """Fixed-rate Lindblad generator L_H + gamma * L; a stack (R, D, D) for an array of rates."""
    return coherent_liouvillian(model) + np.multiply.outer(rate, dissipator(model))


def rate_stack(model: ModelSpec):
    """One factorization of the generator stack {G_R} with the ensemble weights."""
    ens = model.ensemble
    return qops.generator_factorization(generator(model, ens.rates), ens.weights)


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
    """Exact solution: weighted average of fixed-rate Lindblad evolutions.

    ``meta["expm_fallbacks"]`` counts the rates evaluated without an eigenbasis.
    """
    rho0 = qops.require_density_matrix(rho0)
    tgrid, _ = _check_grid(tgrid)
    stack = rate_stack(model)
    vecs = stack.average(tgrid, qops.vectorize(rho0)[None])
    states = vecs.reshape(-1, model.dim, model.dim, order="F")
    drift, mineig = _diagnose(states)
    return EvolutionResult(tgrid, states, "ensemble", drift, mineig,
                           meta={"expm_fallbacks": stack.expm_fallbacks})


def ensemble_propagator_series(model: ModelSpec, tgrid):
    """Averaged propagator superoperator at every grid time, shape (nt, d^2, d^2)."""
    tgrid, _ = _check_grid(tgrid)
    return rate_stack(model).average(tgrid, np.eye(model.dim ** 2)[None])


def _embedding_step_map(model, kernel, h):
    """Phi = expm(h G) for the generator G of the Markovian embedding y = (x, m_1..m_n).

    The memory variables m_j(t) = int_0^t c_j exp((t-s)(p_j + L_H)) L x(s) ds
    turn the memory-kernel equation into the linear ODE y' = G y:

        x'   = (L_H + kappa L) x + sum_j m_j
        m_j' = c_j L x + (p_j + L_H) m_j

    Phi is the Taylor series of expm(h G / 2^s), cut where its terms fall
    below round-off and squared s times, with s chosen so that
    |h G / 2^s|_1 <= 1.  Each term applies G block by block, which costs
    O(n d^4) per column where a dense product costs O(n^2 d^4).
    scipy.linalg.expm is avoided: its LAPACK solve wakes OpenBLAS worker
    threads, even for 8x8 matrices, and they keep a second core spinning
    after the call returns.
    """
    L = dissipator(model)
    L_H = coherent_liouvillian(model)
    A = L_H + kernel.markov_weight * L
    c = np.reshape(kernel.amplitudes, (-1, 1, 1))
    p = np.reshape(kernel.poles, (-1, 1, 1))
    # largest column sum over the x block and the m_j blocks of G
    norm = h * max(np.linalg.norm(A, 1) + np.abs(c).sum() * np.linalg.norm(L, 1),
                   1.0 + np.abs(p).max(initial=0.0) + np.linalg.norm(L_H, 1))
    squarings = max(0, int(np.frexp(norm)[1]))
    scale = 2.0 ** -squarings
    D = L.shape[0]
    size = D * (kernel.n_modes + 1)
    term = np.eye(size, dtype=complex).reshape(-1, D, size)
    phi = term.copy()
    bound = 1.0  # on |term|_1
    for k in range(1, TAYLOR_DEGREE + 1):
        x, m = term[0], term[1:]
        term = np.concatenate([(A @ x + m.sum(axis=0))[None], c * (L @ x) + p * m + L_H @ m])
        term *= h * scale / k
        phi += term
        bound *= norm * scale / k
        if bound < np.finfo(float).eps:
            break
    phi = phi.reshape(size, size)
    for _ in range(squarings):
        phi = phi @ phi
    return phi


def _coupled_sets(phi, D):
    """The sets of components of x that Phi couples, directly or through one another.

    y = (x, m_1..m_n) stacks D components per block.  Components in different
    sets never mix, so each set evolves under its own block of Phi; under
    dephasing every component is a set of its own.  Sets of one size are
    stacked: the result is one (sets, size) index array per size.
    """
    blocks = phi.shape[0] // D
    reach = (phi.reshape(blocks, D, blocks, D) != 0).any(axis=(0, 2))
    reach |= reach.T | np.eye(D, dtype=bool)
    for _ in range(D.bit_length()):
        reach = reach @ reach
    sets = [np.flatnonzero(row) for row in np.unique(reach, axis=0)]
    return [np.array([s for s in sets if s.size == size]) for size in {s.size for s in sets}]


def _block_powers(phi, x0, nt):
    """x_k = P Phi^k y0 for k <= nt from y0 = (x0, 0), for a stack of step maps.

    ``phi`` is (sets, S, S) and ``x0`` (sets, D) or (sets, D, cols); P keeps
    the first D rows.  In blocks of B steps, x_{jB+i} = R_i z_j with the rows
    R_i = P Phi^i (i < B) and the block starts z_j = (Phi^B)^j y0, so every
    grid time comes from one product of the stacked rows with the stacked
    starts.  B is the smallest power of two with B D >= S, so the starts take
    no more memory than the output; it is capped at nt, so no power of Phi
    past the last grid time is formed.
    """
    sets, S, D = phi.shape[0], phi.shape[1], x0.shape[1]
    c = x0[0].size // D
    B = 1 << min((S // D - 1).bit_length(), nt.bit_length() - 1)
    # rows by doubling: [R_0..R_{m-1}; (R_0..R_{m-1}) Phi^m], m = 1, 2, .., B/2
    rows, power = np.tile(np.eye(D, S, dtype=complex), (sets, 1, 1)), phi
    while rows.shape[1] < B * D:
        rows = np.concatenate([rows, rows @ power], axis=1)
        power = power @ power
    y = np.zeros((sets, S, c), dtype=complex)
    y[:, :D] = x0.reshape(sets, D, c)
    starts = [y]
    for _ in range(nt // B):
        starts.append(power @ starts[-1])
    # full blocks in one product; a partial last block uses only its own rows
    full, rest = divmod(nt + 1, B)
    out = (rows @ np.concatenate(starts[:full], axis=2)).reshape(sets, B, D, full, c)
    out = [out.transpose(3, 1, 0, 2, 4).reshape(full * B, sets, D, c)]
    if rest:
        last = (rows[:, :rest * D] @ starts[full]).reshape(sets, rest, D, c)
        out.append(last.transpose(1, 0, 2, 3))
    return np.concatenate(out).reshape((nt + 1,) + x0.shape)


def _volterra_run(model, x0, tgrid, kernel):
    """x_k = P Phi^k (x0, 0) at every grid time; ``x0`` is a state (d^2,) or a map (d^2, d^2).

    Each coupled set of components runs on its own block of Phi.
    """
    tgrid, h = _check_grid(tgrid)
    if tgrid[0] != 0.0:
        raise ValueError("Volterra integration must start at t = 0")
    phi = _embedding_step_map(model, kernel, h)
    D, nt = x0.shape[0], tgrid.size - 1
    offsets = D * np.arange(phi.shape[0] // D)[:, None]
    out = np.empty((nt + 1,) + x0.shape, dtype=complex)
    for group in _coupled_sets(phi, D):
        idx = (offsets + group[:, None]).reshape(len(group), -1)
        out[:, group] = _block_powers(phi[idx[:, :, None], idx[:, None]], x0[group], nt)
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
    variance E|z|^2 - |Ez|^2.  ``meta["route"]`` is "count_histogram" when
    nothing evolves between events and "eigenbasis" otherwise.
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
        unitary = _unitary_factorization(model)

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
