"""Command-line entry point.

Subcommands: kernel, evolve, correlate, cpcheck, fitpow.  All outputs are
deterministic for a fixed config and seed: CSV with 17 significant digits and
LF endings, JSON with sorted keys.  Exit codes: 0 success, 2 configuration
error, 3 solver/runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from . import qops, qrt
from .config import ConfigError
from .dynamics import (
    MCConfig,
    SolverError,
    dephasing_jumps,
    evolve_ensemble,
    evolve_volterra,
    ensemble_propagator_series,
    mc_trajectories,
    time_grid,
    volterra_propagator_series,
)
from .ratebath import (
    FractionalKernelModel,
    default_power_law_window,
    fit_power_law,
    kernel_decompose,
    sprinkling,
    stats,
    survival,
    talbot_invert,
    waiting_density,
)

_BASIS_LABELS = ("sx", "sy", "sz", "id")

# most cells formatted at once by write_csv, which bounds its temporaries
CSV_CELLS = 1 << 16


def write_csv(path, header, columns):
    """Columns are 1-d arrays of equal length; complex ones split into re/im.

    Every cell is its value as a double in ``%.16e``: ``nan``, ``inf``,
    ``-inf`` and signed zeros included.  Rows are written in blocks of at
    most CSV_CELLS values.  Each distinct bit pattern of a block is
    formatted once, and the row template gathers the strings.
    """
    names, cols = [], []
    for name, col in zip(header, columns):
        col = np.asarray(col)
        if np.iscomplexobj(col):
            names.extend([f"{name}_re", f"{name}_im"])
            cols.extend([col.real, col.imag])
        else:
            names.append(name)
            cols.append(col)
    table = np.column_stack(cols).astype(np.float64, copy=False)
    rows = max(1, CSV_CELLS // table.shape[1])
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, table.shape[0], rows):
            block = table[start:start + rows]
            # bit patterns keep -0.0 apart from 0.0 and one NaN from another
            keys, inv = np.unique(block.ravel().view(np.int64), return_inverse=True)
            text = ("%.16e," * keys.size % tuple(keys.view(np.float64).tolist())).split(",")
            fh.write(row * block.shape[0] % tuple(np.array(text, dtype=object)[inv].tolist()))


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in np.asarray(obj).tolist()] if isinstance(obj, np.ndarray) \
            else [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args):
    raw = cfgmod.load_config(args.config)
    cfg = cfgmod.resolve(raw)
    if args.seed is not None:
        cfg["solver.seed"] = str(args.seed)
    if args.trajectories is not None:
        cfg["solver.trajectories"] = str(args.trajectories)
    out_dir = args.out or cfg["output.directory"]
    os.makedirs(out_dir, exist_ok=True)
    return cfg, out_dir


def _ensemble_summary(ens):
    st = stats(ens)
    out = {
        "rates": ens.rates,
        "weights": ens.weights,
        "mean_rate": st.mean_rate,
        "second_moment": st.second_moment,
        "mean_waiting_time": st.mean_waiting_time,
        "beta": st.fluctuation_rate,
    }
    if st.eta is not None:
        out["eta"] = st.eta
    if st.alpha is not None:
        out["alpha"] = st.alpha
    return out


def cmd_kernel(args):
    cfg, out_dir = _load(args)
    ens = cfgmod.build_ensemble(cfg)
    t_max = cfgmod.grid_t_max(cfg, ens)
    steps = cfgmod.count(cfg, "grid.steps")
    tg = time_grid(t_max, steps)[1:]  # t > 0 so the fractional branch can invert

    if isinstance(ens, FractionalKernelModel):
        w, p0, f, k_reg = talbot_invert(ens.series_of_u, tg)
        summary = {
            "model": "fractional",
            "alpha": ens.alpha,
            "mean_rate": ens.mean_rate,
            "beta": ens.fluctuation_rate,
            "cutoff": ens.cutoff,
            "amplitude": ens.amplitude,
        }
    else:
        st = stats(ens)
        w = waiting_density(ens, tg)
        p0 = survival(ens, tg)
        decomp = kernel_decompose(ens)
        k_reg = decomp.regular_part(tg)
        # one decomposition gives f(t) and, appended last, f(0)
        f = sprinkling(ens, np.append(tg, 0.0))
        f, f0 = f[:-1], f[-1]
        summary = {"model": "finite", **_ensemble_summary(ens),
                   "markov_weight": decomp.markov_weight,
                   "kernel_poles": decomp.poles,
                   "kernel_amplitudes": decomp.amplitudes}
        summary["f_limits"] = {
            "short_time": f0,
            "short_time_expected": st.mean_rate,
            "short_time_rel_error": abs(f0 - st.mean_rate) / st.mean_rate,
            "long_time": f[-1],
            "long_time_expected": 1.0 / st.mean_waiting_time,
            "long_time_rel_error": abs(f[-1] - 1.0 / st.mean_waiting_time)
            * st.mean_waiting_time,
        }
    write_csv(os.path.join(out_dir, "kernel_series.csv"),
              ["t", "w", "p0", "f", "k_reg"], [tg, w, p0, f, k_reg])
    write_json(os.path.join(out_dir, "kernel_summary.json"), summary)
    return 0


def _state_columns(res, d):
    header, cols = ["t"], [res.tgrid]
    for i in range(d):
        for j in range(d):
            header.append(f"rho_{i}{j}")
            cols.append(res.states[:, i, j])
    if d == 2:
        header.extend(["bloch_x", "bloch_y", "bloch_z"])
        cols.append(2.0 * res.states[:, 1, 0].real)
        cols.append(2.0 * res.states[:, 1, 0].imag)
        cols.append((res.states[:, 0, 0] - res.states[:, 1, 1]).real)
    header.extend(["trace_drift", "min_eigenvalue"])
    cols.extend([res.trace_drift, res.min_eigenvalue])
    if res.stderr is not None:
        for i in range(d):
            for j in range(d):
                header.append(f"se_{i}{j}")
                cols.append(res.stderr[:, i, j])
    return header, cols


def _initial_state(model):
    """Deterministic default: full coherence along sigma_y.

    Chosen so that with the default S = sigma_z the regression residual sits
    entirely in the sigma_x row with unit prefactor.
    """
    if model.dim == 2:
        return 0.5 * (np.eye(2, dtype=complex) + qops.SIGMA_Y)
    rho = np.ones((model.dim, model.dim), dtype=complex)
    return rho / np.trace(rho)


def cmd_evolve(args):
    cfg, out_dir = _load(args)
    methods = cfgmod.solver_methods(cfg)
    if not methods:
        print("warning: solver.methods is empty; nothing to do", file=sys.stderr)
        return 0
    model = cfgmod.build_model(cfg)
    if any(m.startswith("mc_") for m in methods):
        try:
            model.E
        except ValueError as exc:
            raise ConfigError(f"key 'model.jump_matrices': {exc}; "
                              "the mc_* solvers need sum V^dag V = I") from None
    rho0 = _initial_state(model)
    tg = time_grid(cfgmod.grid_t_max(cfg, model.ensemble), cfgmod.count(cfg, "grid.steps"))
    seed = cfgmod.seed(cfg)
    n_traj = cfgmod.count(cfg, "solver.trajectories")

    results = {}
    for method in methods:
        if method == "ensemble":
            results[method] = evolve_ensemble(model, rho0, tg)
        elif method == "volterra":
            results[method] = evolve_volterra(model, rho0, tg)
        elif method == "mc_frozen":
            results[method] = mc_trajectories(model, rho0, tg, MCConfig(n_traj, seed, "frozen_rate"))
        else:
            results[method] = mc_trajectories(model, rho0, tg, MCConfig(n_traj, seed, "renewal"))
        header, cols = _state_columns(results[method], model.dim)
        write_csv(os.path.join(out_dir, f"evolve_{method}.csv"), header, cols)

    summary = {"solvers": methods, "trajectories": n_traj, "seed": seed,
               "cross_residuals": {}, "mc_max_z": {}}
    for a in range(len(methods)):
        for b in range(a + 1, len(methods)):
            ra, rb = results[methods[a]], results[methods[b]]
            summary["cross_residuals"][f"{methods[a]}_vs_{methods[b]}"] = float(
                np.max(np.abs(ra.states - rb.states)))
    # each unraveling converges to its own deterministic solver
    for method, ref_method in (("mc_frozen", "ensemble"), ("mc_renewal", "volterra")):
        if method in results and ref_method in results:
            res, ref = results[method], results[ref_method]
            # 1/n floor: when no trajectory populates an entry the estimated
            # standard error collapses to zero while the true error is O(1/n)
            floor = 1.0 / res.n_trajectories
            z = np.abs(res.states - ref.states) / (res.stderr + floor)
            summary["mc_max_z"][method] = float(np.max(z))
    for method in methods:
        meta = results[method].meta
        if meta:
            summary.setdefault("meta", {})[method] = {
                k: v for k, v in meta.items() if isinstance(v, (str, int, float))}
    write_json(os.path.join(out_dir, "evolve_summary.json"), summary)
    return 0


def cmd_correlate(args):
    cfg, out_dir = _load(args)
    model = cfgmod.build_model(cfg)
    if model.dim != 2:
        raise ConfigError(f"keys 'model.h_matrix'/'model.jump_matrices': the model is "
                          f"{model.dim}x{model.dim}, but correlate takes two-level models only")
    S = cfgmod.build_operator(cfg, "correlate.s_operator", "correlate.s_matrix")
    if S.shape != (model.dim, model.dim):
        raise ConfigError(f"key 'correlate.s_matrix': S is {S.shape[0]}x{S.shape[0]} "
                          f"but the model is {model.dim}x{model.dim}")
    basis = qrt.pauli_basis()
    rho0 = _initial_state(model)
    tg = time_grid(cfgmod.grid_t_max(cfg, model.ensemble),
                   cfgmod.count(cfg, "grid.corr_t_steps"))
    taug = time_grid(cfgmod.duration(cfg, "grid.tau_max"), cfgmod.count(cfg, "grid.tau_steps"))
    surf = qrt.qrt_residual(model, rho0, S, basis, tg, taug)

    t_col = np.repeat(surf.tgrid, surf.taugrid.size)
    tau_col = np.tile(surf.taugrid, surf.tgrid.size)
    header, cols = ["t", "tau"], [t_col, tau_col]
    for m, label in enumerate(_BASIS_LABELS):
        header.append(f"actual_{label}")
        cols.append(surf.actual[:, :, m].reshape(-1))
        header.append(f"predicted_{label}")
        cols.append(surf.predicted[:, :, m].reshape(-1))
        header.append(f"residual_{label}")
        cols.append(surf.residual[:, :, m].reshape(-1))
    write_csv(os.path.join(out_dir, "correlate_surface.csv"), header, cols)

    per_t = surf.max_residual_per_t()
    scale = float(np.max(np.abs(surf.actual[0, 0, :])))
    summary = {
        "s_operator": cfg["correlate.s_operator"],
        "max_abs_residual_per_t": per_t,
        "max_abs_residual": float(np.max(per_t)),
        "correlator_scale": scale,
        "asymptotically_valid": bool(per_t[-1] <= 1e-6 * max(scale, 1e-300)),
    }
    if _is_dephasing(model):
        closed = qrt.dephasing_residual_closed_form(
            model.ensemble, rho0, S, basis, tg, taug)
        summary["dephasing_closed_form_max_error"] = float(
            np.max(np.abs(surf.residual - closed)))
    write_json(os.path.join(out_dir, "correlate_summary.json"), summary)
    return 0


def _is_dephasing(model):
    """True when a two-level model runs the dephasing preset's generator: L_H = 0 and its L."""
    return not model.L_H.any() and np.allclose(model.L, qops.lindblad_dissipator(dephasing_jumps()))


def cmd_cpcheck(args):
    cfg, out_dir = _load(args)
    model = cfgmod.build_model(cfg)
    methods = [m for m in cfgmod.solver_methods(cfg) if m in ("ensemble", "volterra")]
    if not methods:
        print("warning: cpcheck needs deterministic solvers; nothing to do", file=sys.stderr)
        return 0
    tg = time_grid(cfgmod.grid_t_max(cfg, model.ensemble), cfgmod.count(cfg, "grid.steps"))
    header, cols = ["t"], [tg]
    summary = {"tolerance": -1e-8, "solvers": {}}
    for method in methods:
        if method == "ensemble":
            maps = ensemble_propagator_series(model, tg)
        else:
            maps = volterra_propagator_series(model, tg)
        mins = qops.choi_min_eigenvalue(maps)
        traces = np.trace(qops.choi_matrix(maps), axis1=1, axis2=2).real
        header.extend([f"min_choi_{method}", f"choi_trace_{method}"])
        cols.extend([mins, traces])
        summary["solvers"][method] = {
            "min_choi_eigenvalue": float(np.min(mins)),
            "completely_positive": bool(np.min(mins) >= -1e-8),
        }
    write_csv(os.path.join(out_dir, "cpcheck.csv"), header, cols)
    write_json(os.path.join(out_dir, "cpcheck_summary.json"), summary)
    return 0


def cmd_fitpow(args):
    cfg, out_dir = _load(args)
    ens = cfgmod.build_ensemble(cfg)
    if isinstance(ens, FractionalKernelModel):
        lo, hi, tg = cfgmod.fit_grid(cfg, (5.0 / ens.mean_rate, 500.0 / ens.mean_rate))
        w = talbot_invert(ens.w_of_u, tg)
    else:
        lo, hi, tg = cfgmod.fit_grid(cfg, default_power_law_window(ens))
        w = waiting_density(ens, tg)
    fit = fit_power_law(tg, w, (lo, hi))
    write_csv(os.path.join(out_dir, "fitpow_series.csv"), ["t", "w"], [tg, w])
    write_json(os.path.join(out_dir, "fitpow_summary.json"), {
        "slope": fit.slope,
        "alpha_estimate": -fit.slope - 1.0,
        "r_squared": fit.r_squared,
        "window": [lo, hi],
        "n_points": fit.n_points,
        "rejected": bool(fit.r_squared < 0.95),
    })
    return 0


_COMMANDS = {
    "kernel": cmd_kernel,
    "evolve": cmd_evolve,
    "correlate": cmd_correlate,
    "cpcheck": cmd_cpcheck,
    "fitpow": cmd_fitpow,
}

_HELP = {
    "kernel": "waiting-time, survival, sprinkling and kernel series + summary",
    "evolve": "run the configured solvers and cross-compare them",
    "correlate": "two-time correlators, regression prediction and residual",
    "cpcheck": "Choi-spectrum complete-positivity check of the propagators",
    "fitpow": "log-log power-law fit of the waiting-time density",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nmbath",
        description="Non-Markovian open-system dynamics with a random dissipation rate",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None, help="override solver.seed")
        p.add_argument("--trajectories", type=int, default=None,
                       help="override solver.trajectories")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # overflow surfaces as FloatingPointError (exit 3), not as a stream of warnings
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, RuntimeError, FloatingPointError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
