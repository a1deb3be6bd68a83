"""Non-Markovian open-system dynamics from composite environments.

The environment is a finite ensemble of dissipation rates with weights; the
package provides the exact rate-averaged solver, the effective memory-kernel
(Volterra) solver, Monte Carlo trajectory unravelings, renewal-process
analytics for the kernel, and regression-theorem diagnostics.
"""

from .qops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IDENTITY_2,
    vectorize,
    hamiltonian_liouvillian,
    lindblad_dissipator,
    jump_superoperator,
    choi_matrix,
    choi_min_eigenvalue,
)
from .ratebath import (
    RateEnsemble,
    rate_ensemble,
    two_state_ensemble,
    manifold_ensemble,
    stats,
    survival,
    waiting_density,
    kernel_decompose,
    KernelDecomposition,
    renewal_series,
    fractional_model,
    FractionalKernelModel,
    talbot_invert,
    fit_power_law,
)
from .dynamics import (
    ModelSpec,
    MCConfig,
    EvolutionResult,
    SolverError,
    dephasing_jumps,
    dephasing_model,
    evolve_ensemble,
    evolve_volterra,
    mc_trajectories,
    time_grid,
)
from .qrt import (
    pauli_basis,
    two_time_correlation,
    qrt_residual,
    CorrelationSurface,
    dephasing_h,
)

__version__ = "0.1.0"
