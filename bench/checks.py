"""Output checks for each subcommand, computed from the files a job wrote.

Each check returns None when the outputs are right and a one-line reason
otherwise.  The references are computed here from the job's config, not
taken from the program's own summary, wherever that is possible.
"""

from __future__ import annotations

import json
import os

import numpy as np

# f(0+) = <gamma>: exact from the partial-fraction summary, and from a
# quadratic extrapolation of the sampled series to t = 0 (error O(h^3))
F0_SUMMARY_RTOL = 1e-6
F0_SERIES_RTOL = 1e-3
# the Volterra solver's own Richardson gate; exact for dephasing otherwise
SOLVER_TOL = 1e-4
# largest |MC - reference| / (stderr + 1/n) over all entries and times
Z_MAX = 6.0
CHOI_TOL = -1e-8
CLOSED_FORM_TOL = 1e-10
SURFACE_TOL = 1e-12
RANGE_TOL = 1e-9


def parse_config(text):
    return dict(line.split(" = ", 1) for line in text.splitlines() if line)


def mean_rate(cfg):
    """<gamma> of the configured ensemble."""
    kind = cfg["ensemble.type"]
    if kind == "manifold":
        levels = np.arange(int(cfg["ensemble.n"]))
        rates = float(cfg["ensemble.gamma"]) * np.exp(-float(cfg["ensemble.b"]) * levels)
        weights = np.exp(-float(cfg["ensemble.a"]) * levels)
        return float(rates @ weights / weights.sum())
    if kind == "two_state":
        p_up = float(cfg["ensemble.p_up"])
        return p_up * float(cfg["ensemble.gamma_up"]) + (1 - p_up) * float(cfg["ensemble.gamma_down"])
    return float(cfg["ensemble.mean_rate"])


def read_csv(path):
    """Columns of a CSV file by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _entries(cols):
    """Density-matrix entries (n_t, d*d) and their standard errors, if any."""
    names = sorted(k[:-3] for k in cols if k.startswith("rho_") and k.endswith("_re"))
    rho = np.stack([cols[n + "_re"] + 1j * cols[n + "_im"] for n in names], axis=1)
    se_names = ["se_" + n[4:] for n in names]
    se = np.stack([cols[n] for n in se_names], axis=1) if se_names[0] in cols else None
    return rho, se


def check_kernel(cfg, out):
    cols = read_csv(os.path.join(out, "kernel_series.csv"))
    summary = read_json(os.path.join(out, "kernel_summary.json"))
    if not all(np.all(np.isfinite(c)) for c in cols.values()):
        return "kernel series not finite"
    gamma = mean_rate(cfg)
    f = cols["f"]
    if cfg["ensemble.type"] == "fractional":
        # f(t) approaches <gamma> like t^(1 - alpha): only its bounds are checked
        if np.any(f <= 0) or np.any(f > gamma * (1 + F0_SUMMARY_RTOL)):
            return "fractional f(t) outside (0, <gamma>]"
    else:
        f0 = 3 * f[0] - 3 * f[1] + f[2]
        if abs(f0 - gamma) > F0_SERIES_RTOL * gamma:
            return f"f(0+) from the series {f0:.6g} != <gamma> {gamma:.6g}"
        if "kernel_poles" in summary:
            f0 = float(summary["f_limits"]["short_time"])
            if abs(f0 - gamma) > F0_SUMMARY_RTOL * gamma:
                return f"f(0+) {f0:.12g} != <gamma> {gamma:.12g}"
    p0, w = cols["p0"], cols["w"]
    if np.any(p0 < -RANGE_TOL) or np.any(p0 > 1 + RANGE_TOL) or np.any(w < -RANGE_TOL):
        return "P0 or w out of range"
    return None


def check_evolve(cfg, out):
    methods = cfg["solver.methods"].split(",")
    states, errors = {}, {}
    for method in methods:
        states[method], errors[method] = _entries(read_csv(os.path.join(out, f"evolve_{method}.csv")))
    # the two deterministic solvers agree when the jumps commute with H
    if cfg.get("model.jumps", "dephasing") == "dephasing" and {"ensemble", "volterra"} <= states.keys():
        residual = float(np.max(np.abs(states["ensemble"] - states["volterra"])))
        if residual > SOLVER_TOL:
            return f"ensemble vs volterra residual {residual:.3e}"
    # frozen_rate converges to the ensemble average, renewal to the Volterra solution
    for method, ref in (("mc_frozen", "ensemble"), ("mc_renewal", "volterra")):
        if method in states and ref in states:
            # the 1/n floor is the CLI's: an entry no trajectory moves has stderr 0
            floor = 1.0 / int(cfg["solver.trajectories"])
            z = np.abs(states[method] - states[ref]) / (errors[method] + floor)
            if float(np.max(z)) > Z_MAX:
                return f"{method} vs {ref} max z {float(np.max(z)):.2f}"
    return None


def check_cpcheck(cfg, out):
    cols = read_csv(os.path.join(out, "cpcheck.csv"))
    lowest = float(np.min(cols["min_choi_ensemble"]))
    if not lowest >= CHOI_TOL:
        return f"ensemble min Choi eigenvalue {lowest:.3e}"
    return None


def check_correlate(cfg, out):
    summary = read_json(os.path.join(out, "correlate_summary.json"))
    error = summary.get("dephasing_closed_form_max_error")
    if error is not None:
        return None if error <= CLOSED_FORM_TOL else f"closed-form error {error:.3e}"
    # no closed form outside the interaction picture: check the surface itself
    cols = read_csv(os.path.join(out, "correlate_surface.csv"))
    if not all(np.all(np.isfinite(c)) for c in cols.values()):
        return "correlation surface not finite"
    for b in ("sx", "sy", "sz", "id"):
        for part in ("re", "im"):
            gap = cols[f"actual_{b}_{part}"] - cols[f"predicted_{b}_{part}"] - cols[f"residual_{b}_{part}"]
            if np.max(np.abs(gap)) > SURFACE_TOL:
                return f"residual_{b} != actual - predicted"
    return None


def check_fitpow(cfg, out):
    summary = read_json(os.path.join(out, "fitpow_summary.json"))
    values = [summary["slope"], summary["r_squared"]]
    if not all(isinstance(v, (int, float)) and np.isfinite(v) for v in values):
        return f"fit not finite: slope {summary['slope']}, r2 {summary['r_squared']}"
    return None


CHECKS = {
    "kernel": check_kernel,
    "evolve": check_evolve,
    "cpcheck": check_cpcheck,
    "correlate": check_correlate,
    "fitpow": check_fitpow,
}


def check(command, cfg, out):
    """None when the job's outputs are right, else the reason."""
    try:
        return CHECKS[command](cfg, out)
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
