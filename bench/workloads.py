"""Seeded job lists for the benchmark workloads.

A job is one ``nmbath`` CLI call: a subcommand plus the text of the config
file it reads.  The program sees nothing but those files.

Each block of a workload is a fixed-size list drawn from ``(seed, block)``.
Parameters are stratified: within one subcommand, job ``i`` takes stratum
``i`` of the ensemble size (or trajectory count) and fixed permutations of the
strata of the other ranges, and the seed draws every value inside its
stratum.  Every seed therefore covers the whole of each range with the same
mix of cheap, expensive and failing jobs, which keeps the seed-to-seed spread
of the timings small without narrowing any range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Jobs in one block; every subcommand of a workload gets the same share.  The
# _perm strides below must stay coprime to these counts.
JOBS_PER_BLOCK = {
    "sweep_manifold": 60,
    "mc_dephasing": 40,
    "mc_precession": 32,
}

SWEEP_COMMANDS = ("kernel", "evolve", "cpcheck", "correlate", "fitpow")
SWEEP_STEPS = (500, 1000, 2000)
# kernel and fitpow jobs at these positions use the fractional long-tail model
# instead of a manifold (4 of 12, about 30%)
FRACTIONAL_SLOTS = (1, 5, 6, 10)
# Whether a manifold job fails (complex or inaccurate kernel poles) and how
# long it runs depend sharply on (n, a, b); drawing them from the central
# share of each stratum keeps the cost of a block steady from seed to seed.
MANIFOLD_JITTER = 0.3

MC_METHODS = "ensemble,volterra,mc_frozen,mc_renewal"
MC_STEPS = (200, 400)
MC_T_MAX = 6.0
# log-uniform trajectory ranges; mc_precession is shrunk to fit the run time
MC_TRAJECTORIES = {
    "mc_dephasing": (1000, 10000),
    "mc_precession": (1000, 4000),
}

WORKLOADS = tuple(JOBS_PER_BLOCK)


@dataclass(frozen=True)
class Job:
    command: str
    config: str
    label: str


def _rng(workload, seed, block):
    return np.random.default_rng([WORKLOADS.index(workload), int(seed), int(block)])


def _stratum(rng, index, count, lo, hi, jitter=1.0):
    """A draw from stratum ``index`` of ``count`` equal parts of [lo, hi].

    The draw is uniform on the central ``jitter`` share of the stratum.
    """
    return lo + (hi - lo) * (index + 0.5 + jitter * (rng.random() - 0.5)) / count


def _perm(index, count, stride, offset):
    """A fixed permutation of range(count); ``stride`` must be coprime to count."""
    return (stride * index + offset) % count


def _config(entries):
    return "".join(f"{key} = {value}\n" for key, value in entries)


def _manifold(rng, i, m):
    n = int(_stratum(rng, i, m, 2, 61, MANIFOLD_JITTER))
    a = _stratum(rng, _perm(i, m, 5, 3), m, 0.1, 0.5, MANIFOLD_JITTER)
    b = _stratum(rng, _perm(i, m, 7, 1), m, 0.1, 0.6, MANIFOLD_JITTER)
    return [("ensemble.type", "manifold"), ("ensemble.gamma", "1.0"),
            ("ensemble.a", f"{a:.6f}"), ("ensemble.b", f"{b:.6f}"),
            ("ensemble.n", n)], f"manifold n={n} a={a:.3f} b={b:.3f}"


def _fractional(rng, j):
    m = len(FRACTIONAL_SLOTS)
    alpha = _stratum(rng, j, m, 0.3, 0.8)
    beta = _stratum(rng, _perm(j, m, 3, 1), m, 0.5, 2.0)
    # odd slots take the pure power-law tail, even ones a finite <tau>
    tau = "inf" if j % 2 else f"{_stratum(rng, j // 2, (m + 1) // 2, 5.0, 50.0):.6f}"
    return [("ensemble.type", "fractional"), ("ensemble.alpha", f"{alpha:.6f}"),
            ("ensemble.mean_rate", "1.0"), ("ensemble.beta", f"{beta:.6f}"),
            ("ensemble.tau", tau)], f"fractional alpha={alpha:.3f} tau={tau}"


def sweep_manifold(seed, block):
    """The paper's power-law regime: manifold ensembles across all subcommands."""
    rng = _rng("sweep_manifold", seed, block)
    total = JOBS_PER_BLOCK["sweep_manifold"]
    m = total // len(SWEEP_COMMANDS)
    jobs = []
    for k in range(total):
        command = SWEEP_COMMANDS[k % len(SWEEP_COMMANDS)]
        i = k // len(SWEEP_COMMANDS)
        if command in ("kernel", "fitpow") and i in FRACTIONAL_SLOTS:
            entries, label = _fractional(rng, FRACTIONAL_SLOTS.index(i))
        else:
            entries, label = _manifold(rng, i, m)
        steps = SWEEP_STEPS[i % len(SWEEP_STEPS)]
        picture = ("interaction", "schroedinger")[(i // len(SWEEP_STEPS)) % 2]
        omega = _stratum(rng, i % 2, 2, 0.5, 2.0)
        entries += [("model.picture", picture), ("model.omega", f"{omega:.6f}"),
                    ("grid.steps", steps), ("solver.methods", "ensemble,volterra")]
        jobs.append(Job(command, _config(entries),
                        f"{command} {label} steps={steps} {picture}"))
    return jobs


def _monte_carlo(workload, seed, block):
    rng = _rng(workload, seed, block)
    total = JOBS_PER_BLOCK[workload]
    lo, hi = MC_TRAJECTORIES[workload]
    jobs = []
    for i in range(total):
        n_traj = int(round(math.exp(_stratum(rng, i, total, math.log(lo), math.log(hi)))))
        steps = MC_STEPS[i % len(MC_STEPS)]
        # the ranges hold the two-state case 0.5, 2.0, 1.0 and omega = 1
        p_up = _stratum(rng, _perm(i, total, 7, 2), total, 0.2, 0.8)
        gamma_up = _stratum(rng, _perm(i, total, 11, 5), total, 1.5, 3.0)
        gamma_down = _stratum(rng, _perm(i, total, 13, 1), total, 0.5, 1.5)
        entries = [("ensemble.type", "two_state"), ("ensemble.p_up", f"{p_up:.6f}"),
                   ("ensemble.gamma_up", f"{gamma_up:.6f}"),
                   ("ensemble.gamma_down", f"{gamma_down:.6f}"),
                   ("grid.t_max", MC_T_MAX), ("grid.steps", steps),
                   ("solver.methods", MC_METHODS), ("solver.trajectories", n_traj),
                   ("solver.seed", int(rng.integers(1, 2**63)))]
        if workload == "mc_precession":
            omega = _stratum(rng, _perm(i, total, 17, 4), total, 0.5, 2.0)
            entries += [("model.hamiltonian", "sigma_z"), ("model.omega", f"{omega:.6f}"),
                        ("model.jumps", "matrix"), ("model.jump_matrices", "0,1;1,0"),
                        ("model.picture", "schroedinger")]
        jobs.append(Job("evolve", _config(entries),
                        f"evolve two_state p_up={p_up:.3f} traj={n_traj} steps={steps}"))
    return jobs


def jobs_for(workload, seed, block):
    """The job list of one block; the same arguments give the same list."""
    if workload == "sweep_manifold":
        return sweep_manifold(seed, block)
    if workload in MC_TRAJECTORIES:
        return _monte_carlo(workload, seed, block)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
