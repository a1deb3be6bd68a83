"""Command-line entry point.

Subcommands: kernel, evolve, correlate, cpcheck, fitpow.  All outputs are
deterministic for a fixed config and seed: CSV with 17 significant digits and
LF endings, JSON with sorted keys.  Each command runs numpy's OpenBLAS on one
thread, so they are byte-identical whatever the host's core count.  Exit
codes: 0 success, 2 configuration error, 3 solver/runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
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
    renewal_series,
    stats,
    survival,
    talbot_invert,
    waiting_density,
)

_BASIS_LABELS = ("sx", "sy", "sz", "id")

# most cells formatted at once by write_csv, which bounds its temporaries
CSV_CELLS = 1 << 16
# most Monte Carlo events evolve accepts: trajectories * t_max * largest rate,
# with a run counted as at least MC_MIN_TRAJECTORIES trajectories, since the
# sampler takes one round per event of its busiest trajectory
MC_EVENT_BUDGET = 1e9
MC_MIN_TRAJECTORIES = 10_000
# most cells (rows times columns) of one output table, refused before its
# grid is built: at 25 bytes a cell, a 250 MB CSV
OUTPUT_CELL_BUDGET = 1e7

# %.16e prints a double x != 0 as N * 10**(k - 16), k = floor(log10 |x|) and
# N = round(|x| * 10**(16 - k)) in [10**16, 10**17).  With 10**p held as a
# double-double hi + lo, Dekker's exact product |x| * hi plus |x| * lo gives
# the integer part of |x| * 10**(16 - k) exactly and its fraction to about
# 1e-14 (T. J. Dekker, Numer. Math. 18, 224 (1971)).  Zeros are 1 with the
# first digit 0.  Python formats the rest: nan, inf, |x| > 0 outside FMT_RANGE
# and fractions within 1e-6 of a tie.
FMT_RANGE = (1e-280, 1e280)
_P_MIN, _P_MAX = 16 - 281, 16 + 281  # 10**p for k within one of log10 FMT_RANGE
_SPLIT = 134217729.0  # 2**27 + 1
_FMT_TABLES = None


def _split(v):
    """The high half of each double (26 bits); v minus it is the exact low half."""
    c = _SPLIT * v
    return c - (c - v)


def _fmt_tables():
    """(hi, hi's high half, hi's low half, lo) of 10**p by p - _P_MIN, and the 4-digit groups.

    Built on the first write from exact integers: int-to-float conversion and
    int division round correctly.
    """
    global _FMT_TABLES
    if _FMT_TABLES is None:
        hi, lo = [], []
        for p in range(_P_MIN, _P_MAX + 1):
            ten = 10**abs(p)
            if p >= 0:
                hi.append(float(ten))
                lo.append(float(ten - int(hi[-1])))
            else:
                hi.append(1 / ten)
                num, den = hi[-1].as_integer_ratio()
                lo.append((den - num * ten) / (den * ten))
        hi = np.array(hi)
        h1 = _split(hi)
        # "0000" .. "9999" as uint32, whose four bytes read in order
        num = np.arange(10_000)
        quads = sum((num // 10**(3 - i) % 10 + 48) << 8 * i for i in range(4)).astype("<u4")
        _FMT_TABLES = hi, h1, hi - h1, np.array(lo), quads
    return _FMT_TABLES


def _scaled(a, k):
    """|x| * 10**(16 - k) for |x| = a > 0: its integer part (int64) and fraction."""
    hi, h1, h2, lo = (t[16 - k - _P_MIN] for t in _fmt_tables()[:4])
    a1 = _split(a)
    a2 = a - a1
    p = a * hi
    t = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    whole = np.floor(p)
    t += p - whole
    f = np.floor(t)
    return whole.astype(np.int64) + f.astype(np.int64), t - f


def _records(x):
    """Each double of x as ``%.16e`` in a 25-byte record, NUL where a character is absent.

    The slots: sign, d, '.', 16 digits, 'e', exponent sign, 3 exponent digits,
    and a last one left for the separator.
    """
    a = np.abs(x)
    native = (a >= FMT_RANGE[0]) & (a <= FMT_RANGE[1])
    a = np.where(native, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, k)
    # log10 can be one off next to a power of ten; the integer part before
    # rounding says which way (rounding up to 10**17 is a carry, below)
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], k[redo])
    fallback = ~native | (np.abs(frac - 0.5) < 1e-6)
    n += frac > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    top = n // 10**8
    d0 = top // 10**8
    # the 16 digits after the point: two halves of 8, each two groups of 4
    q = np.empty((x.size, 2, 2), np.int64)
    q[:, 0, 1] = top - d0 * 10**8
    q[:, 1, 1] = n - top * 10**8
    np.floor_divide(q[:, :, 1], 10**4, out=q[:, :, 0])
    q[:, :, 1] -= q[:, :, 0] * 10**4
    quads = _fmt_tables()[4]
    e = np.abs(k)
    rec = np.zeros((x.size, 25), np.uint8)
    rec[:, 0] = np.signbit(x) * ord("-")
    rec[:, 1] = d0 + ord("0")
    rec[:, 2] = ord(".")
    rec[:, 3:19] = quads.take(q.reshape(x.size, 4)).view(np.uint8)
    rec[:, 19] = ord("e")
    rec[:, 20] = np.where(k < 0, ord("-"), ord("+"))
    rec[:, 21:24] = quads.take(e)[:, None].view(np.uint8)[:, 1:]
    rec[:, 21] *= e >= 100
    idx = np.flatnonzero(fallback)
    zero = x[idx] == 0
    rec[idx[zero], 1] = ord("0")
    idx = idx[~zero]
    if idx.size:
        text = np.array(["%.16e" % v for v in x[idx].tolist()], dtype="S24")
        rec[idx, :24] = text.view(np.uint8).reshape(idx.size, 24)
    return rec


def write_csv(path, header, columns):
    """Columns are 1-d arrays of equal length; complex ones split into re/im.

    Every cell is its value as a double in ``%.16e``: ``nan``, ``inf``,
    ``-inf`` and signed zeros included.  Rows are written in blocks of at
    most CSV_CELLS values.  Down each column of a block, each run of equal
    bit patterns is formatted once, into a record that the run's cells repeat.
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
    table = np.stack(cols).astype(np.float64, copy=False)
    rows = max(1, CSV_CELLS // table.shape[0])
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for start in range(0, table.shape[1], rows):
            block = table[:, start:start + rows]
            # bit patterns keep -0.0 apart from 0.0 and one NaN from another;
            # a run starts at the top of each column
            bits = block.view(np.int64)
            head = np.ones(block.shape, dtype=bool)
            np.not_equal(bits[:, 1:], bits[:, :-1], out=head[:, 1:])
            rec = _records(block[head])
            rec[:, 24] = ord(",")
            rec[np.flatnonzero(head) >= block.size - block.shape[1], 24] = ord("\n")
            # each cell's record, gathered once in row order
            run = np.cumsum(head, axis=None).reshape(block.shape)
            run -= 1
            cells = rec.view("V25").ravel()[run.T]
            fh.write(cells.tobytes().translate(None, b"\0"))


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


def _check_cells(keys, rows, columns):
    """Refuse a table of rows x columns cells above OUTPUT_CELL_BUDGET, naming its ``keys``."""
    if rows * columns > OUTPUT_CELL_BUDGET:
        raise ConfigError(f"{keys}: {rows} rows of {columns} columns make {rows * columns:.3g} "
                          f"output cells, above the budget of {OUTPUT_CELL_BUDGET:.0e}")


def _series_grid(cfg, t_max, columns):
    """The ``grid.steps`` time grid of a table of ``columns``, within the output-cell budget."""
    steps = cfgmod.count(cfg, "grid.steps")
    _check_cells("key 'grid.steps'", steps + 1, columns)
    return time_grid(t_max, steps)


def cmd_kernel(args):
    cfg, out_dir = _load(args)
    ens = cfgmod.build_ensemble(cfg)
    t_max = cfgmod.grid_t_max(cfg, ens)
    tg = _series_grid(cfg, t_max, 5)[1:]  # t > 0 so the fractional branch can invert

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
        w, p0 = waiting_density(ens, tg), survival(ens, tg)
        # the poles feed only the summary; a refused ensemble exits before the chain
        decomp = kernel_decompose(ens)
        f, k_reg = renewal_series(ens, tg)
        f0 = 1.0 / st.mean_waiting_time + float(np.sum(decomp.amplitudes / decomp.poles))
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
    monte_carlo = any(m.startswith("mc_") for m in methods)
    if monte_carlo:
        try:
            model.E
        except ValueError as exc:
            raise ConfigError(f"key 'model.jump_matrices': {exc}; "
                              "the mc_* solvers need sum V^dag V = I") from None
    rho0 = _initial_state(model)
    t_max = cfgmod.grid_t_max(cfg, model.ensemble)
    # the widest table: t, re and im of the d^2 entries and their standard
    # errors, the Bloch vector, trace drift and least eigenvalue
    tg = _series_grid(cfg, t_max, 3 * model.dim ** 2 + 6)
    seed = cfgmod.seed(cfg)
    n_traj = cfgmod.count(cfg, "solver.trajectories")
    # no trajectory has more than about t_max * gamma_max events; a product
    # that overflows is left to the sampler, which exits 3
    rate = float(np.max(model.ensemble.rates))
    events = max(n_traj, MC_MIN_TRAJECTORIES) * t_max * rate
    if monte_carlo and math.isfinite(t_max * rate) and events > MC_EVENT_BUDGET:
        raise ConfigError(f"keys 'solver.trajectories'/'grid.t_max': {n_traj} trajectories "
                          f"(counted as at least {MC_MIN_TRAJECTORIES}) over t_max "
                          f"{t_max:.3g} at the largest rate {rate:.3g} may draw {events:.3g} "
                          f"events, above the budget of {MC_EVENT_BUDGET:.0e}")

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
    t_steps, tau_steps = (cfgmod.count(cfg, f"grid.{k}_steps") for k in ("corr_t", "tau"))
    _check_cells("keys 'grid.corr_t_steps'/'grid.tau_steps'", (t_steps + 1) * (tau_steps + 1),
                 2 + 3 * len(_BASIS_LABELS))
    tg = time_grid(cfgmod.grid_t_max(cfg, model.ensemble), t_steps)
    taug = time_grid(cfgmod.duration(cfg, "grid.tau_max"), tau_steps)
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
    tg = _series_grid(cfg, cfgmod.grid_t_max(cfg, model.ensemble), 1 + 2 * len(methods))
    header, cols = ["t"], [tg]
    summary = {"tolerance": -1e-8, "solvers": {}}
    # the Choi diagonal is S[i + d i, a + d a], a outer and i inner
    diag = np.arange(model.dim) * (model.dim + 1)
    for method in methods:
        if method == "ensemble":
            maps = ensemble_propagator_series(model, tg)
        else:
            maps = volterra_propagator_series(model, tg)
        mins = qops.choi_min_eigenvalue(maps)
        traces = maps[:, diag, diag[:, None]].reshape(tg.size, -1).sum(-1).real
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
    _check_cells("key 'fitpow.points'", cfgmod.count(cfg, "fitpow.points"), 2)
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


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
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


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or None.

    The library is found among the files mapped into the process; its entry
    points are named as in numpy 2's wheels (ILP64, prefixed), then as in a
    plain ILP64 or LP64 build.  Other BLAS libraries are left alone.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return None
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            pass
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        for lib in libs:
            try:
                get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def main(argv=None):
    args = _parser().parse_args(argv)
    # one BLAS thread, whatever the host has: outputs then do not depend on
    # its core count, and no OpenBLAS worker is left busy-waiting after the
    # products that would wake it (README "CLI")
    blas = _blas_threads()
    if blas is not None:
        get, put = blas
        threads = get()
        put(1)
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
    finally:
        if blas is not None:
            put(threads)


if __name__ == "__main__":
    sys.exit(main())
