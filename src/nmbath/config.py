"""Run configuration: a flat ``section.key = value`` text format.

Lines are ``section.key = value`` with ``#`` comments and blank lines
ignored.  Matrices are rows separated by ``;`` with comma-separated complex
entries (Python literal syntax, e.g. ``0.5j`` or ``1+2j``); lists of matrices
are separated by ``|``.  :func:`resolve` applies defaults and drops unused
keys, so a resolved configuration re-parses to the identical run plan.
"""

from __future__ import annotations

import math

import numpy as np

from . import qops
from .dynamics import ModelSpec, dephasing_jumps
from .ratebath import (
    FIT_MIN_SAMPLES,
    fractional_model,
    manifold_ensemble,
    rate_ensemble,
    two_state_ensemble,
)


class ConfigError(ValueError):
    """Configuration problem, reported with the offending line or key."""


_OPERATOR_PRESETS = {
    "sigma_x": qops.SIGMA_X,
    "sigma_y": qops.SIGMA_Y,
    "sigma_z": qops.SIGMA_Z,
    "identity": qops.IDENTITY_2,
}

DEFAULTS = {
    "model.hamiltonian": "sigma_z",
    "model.omega": "1.0",
    "model.jumps": "dephasing",
    "model.picture": "interaction",
    "ensemble.type": "two_state",
    "grid.t_max": "auto",  # 20 / <gamma> of the configured ensemble
    "grid.steps": "2000",
    "grid.tau_max": "5.0",
    "grid.tau_steps": "25",
    "grid.corr_t_steps": "20",
    "solver.methods": "ensemble,volterra",
    "solver.trajectories": "10000",
    "solver.seed": "12345",
    "correlate.s_operator": "sigma_z",
    "fitpow.points": "200",
    "output.directory": "out",
}

_ENSEMBLE_KEYS = {
    "custom": ("ensemble.rates", "ensemble.weights"),
    "two_state": ("ensemble.p_up", "ensemble.gamma_up", "ensemble.gamma_down"),
    "manifold": ("ensemble.gamma", "ensemble.a", "ensemble.b", "ensemble.n"),
    "fractional": ("ensemble.alpha", "ensemble.mean_rate", "ensemble.beta", "ensemble.tau"),
}

_ENSEMBLE_DEFAULTS = {
    "ensemble.p_up": "0.5",
    "ensemble.gamma_up": "2.0",
    "ensemble.gamma_down": "1.0",
}

_OPTIONAL_KEYS = (
    "model.h_matrix",
    "model.jump_matrices",
    "correlate.s_matrix",
    "fitpow.window_lo",
    "fitpow.window_hi",
)


def parse_config(text):
    """Parse the raw key/value map, with line-numbered diagnostics."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {ln}: key {key!r} is missing its section prefix")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def resolve(raw):
    """Apply defaults and keep only recognized keys; values stay strings."""
    cfg = dict(DEFAULTS)
    cfg.update({k: v for k, v in raw.items()})
    etype = cfg.get("ensemble.type", "two_state")
    if etype not in _ENSEMBLE_KEYS:
        raise ConfigError(
            f"key ensemble.type: unknown ensemble {etype!r}; "
            f"choose from {sorted(_ENSEMBLE_KEYS)}"
        )
    recognized = set(DEFAULTS) | set(_OPTIONAL_KEYS) | set(_ENSEMBLE_KEYS[etype])
    for key in raw:
        if key not in recognized:
            raise ConfigError(f"key {key!r} is not recognized for ensemble.type={etype}")
    for key in _ENSEMBLE_KEYS[etype]:
        if key not in cfg:
            if key in _ENSEMBLE_DEFAULTS:
                cfg[key] = _ENSEMBLE_DEFAULTS[key]
            else:
                raise ConfigError(f"key {key!r} is required for ensemble.type={etype}")
    return {k: v for k, v in cfg.items() if k in recognized}


def _get_float(cfg, key):
    try:
        value = cfg[key]
    except KeyError:
        raise ConfigError(f"key {key!r} is missing") from None
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: {value!r} is not a number") from None


def _get_int(cfg, key):
    try:
        return int(cfg[key])
    except KeyError:
        raise ConfigError(f"key {key!r} is missing") from None
    except ValueError:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not an integer") from None


def count(cfg, key):
    """An integer field that must be at least 1: grid sizes, trajectories, fitpow.points."""
    n = _get_int(cfg, key)
    if n < 1:
        raise ConfigError(f"key {key!r}: {n} is not an integer >= 1")
    return n


def seed(cfg):
    return _get_int(cfg, "solver.seed")


def duration(cfg, key):
    """A time field that must be finite and > 0: grid.t_max or grid.tau_max."""
    t = _get_float(cfg, key)
    if not (math.isfinite(t) and t > 0):
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a finite time > 0")
    return t


def fit_grid(cfg, default_window):
    """(lo, hi, t): the power-law fit window and its ``fitpow.points`` log-spaced times.

    ``fitpow.window_lo`` and ``fitpow.window_hi`` fall back to ``default_window``.
    Each must be finite and > 0 with lo < hi, and the times must put at least
    FIT_MIN_SAMPLES samples on the window.
    """
    points = count(cfg, "fitpow.points")
    if points < FIT_MIN_SAMPLES:
        raise ConfigError(f"key 'fitpow.points': {points} is below the fit's "
                          f"minimum of {FIT_MIN_SAMPLES} samples")
    keys = ("fitpow.window_lo", "fitpow.window_hi")
    lo, hi = (duration(cfg, key) if key in cfg else value
              for key, value in zip(keys, default_window))
    if not lo < hi:
        raise ConfigError(f"keys {keys}: window [{lo}, {hi}] needs window_lo < window_hi")
    t = np.geomspace(lo, hi, points)
    selected = np.count_nonzero((t >= lo) & (t <= hi))
    if selected < FIT_MIN_SAMPLES:
        raise ConfigError(f"keys {keys}: window [{lo}, {hi}] selects {selected} samples, "
                          f"the fit needs >= {FIT_MIN_SAMPLES}")
    return lo, hi, t


def _parse_matrix(text, key):
    try:
        rows = [
            [complex(entry.replace(" ", "")) for entry in row.split(",")]
            for row in text.split(";")
        ]
        mat = np.array(rows, dtype=complex)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse matrix {text!r}: {exc}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"key {key!r}: matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"key {key!r}: matrix {text!r} has a non-finite entry")
    return mat


def _ensemble_value(cfg, key):
    """``ensemble.n``, a custom ensemble's list of finite numbers, or one finite number."""
    if key == "ensemble.n":
        return _get_int(cfg, key)
    if cfg["ensemble.type"] == "custom":
        try:
            values = [float(x) for x in cfg[key].split(",")]
        except ValueError:
            raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a list of numbers") from None
    else:
        values = _get_float(cfg, key)
    # ensemble.tau = inf is the pure power-law tail
    if not (np.all(np.isfinite(values)) or (key == "ensemble.tau" and values == math.inf)):
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not finite")
    return values


_ENSEMBLE_BUILDERS = {
    "custom": rate_ensemble,
    "two_state": two_state_ensemble,
    "manifold": manifold_ensemble,
    "fractional": fractional_model,
}


def build_ensemble(cfg):
    """RateEnsemble for finite types, FractionalKernelModel for 'fractional'.

    The builder of each type takes the values of its _ENSEMBLE_KEYS in order.
    """
    etype = cfg["ensemble.type"]
    values = [_ensemble_value(cfg, key) for key in _ENSEMBLE_KEYS[etype]]
    try:
        return _ENSEMBLE_BUILDERS[etype](*values)
    except ValueError as exc:
        raise ConfigError(f"ensemble block invalid: {exc}") from exc


def build_operator(cfg, key, matrix_key):
    name = cfg[key]
    if name == "matrix":
        if matrix_key not in cfg:
            raise ConfigError(f"key {key!r} = matrix requires {matrix_key!r}")
        return _parse_matrix(cfg[matrix_key], matrix_key)
    try:
        return _OPERATOR_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"key {key!r}: unknown operator {name!r}; presets are "
            f"{sorted(_OPERATOR_PRESETS)} or 'matrix'"
        ) from None


def build_model(cfg):
    """ModelSpec from the model block; requires a finite ensemble."""
    ensemble = build_ensemble(cfg)
    if not hasattr(ensemble, "rates"):
        raise ConfigError(
            "solver workflows need a finite ensemble; "
            "ensemble.type=fractional is limited to 'kernel' and 'fitpow'"
        )
    ham_name = cfg["model.hamiltonian"]
    if ham_name == "zero":
        hamiltonian = np.zeros((2, 2), dtype=complex)
    elif ham_name == "sigma_z":
        omega = _get_float(cfg, "model.omega")
        if not math.isfinite(omega):
            raise ConfigError(f"key 'model.omega': {cfg['model.omega']!r} is not finite")
        hamiltonian = 0.5 * omega * qops.SIGMA_Z
    elif ham_name == "matrix":
        if "model.h_matrix" not in cfg:
            raise ConfigError("model.hamiltonian = matrix requires model.h_matrix")
        hamiltonian = _parse_matrix(cfg["model.h_matrix"], "model.h_matrix")
    else:
        raise ConfigError(
            f"model.hamiltonian must be 'sigma_z', 'zero' or 'matrix', got {ham_name!r}"
        )

    jumps_name = cfg["model.jumps"]
    if jumps_name == "dephasing":
        jumps = dephasing_jumps()
    elif jumps_name == "matrix":
        if "model.jump_matrices" not in cfg:
            raise ConfigError("model.jumps = matrix requires model.jump_matrices")
        jumps = tuple(
            _parse_matrix(block.strip(), "model.jump_matrices")
            for block in cfg["model.jump_matrices"].split("|")
        )
    else:
        raise ConfigError(f"model.jumps must be 'dephasing' or 'matrix', got {jumps_name!r}")

    if any(V.shape != hamiltonian.shape for V in jumps):
        key = "model.h_matrix" if ham_name == "matrix" else "model.jump_matrices"
        d = hamiltonian.shape[0]
        sizes = ", ".join(f"{m}x{m}" for m in sorted({V.shape[0] for V in jumps}))
        raise ConfigError(f"{key}: the Hamiltonian is {d}x{d} but the jump operators are {sizes}")

    picture = cfg["model.picture"]
    if picture not in ("interaction", "schroedinger"):
        raise ConfigError(f"model.picture must be interaction|schroedinger, got {picture!r}")
    try:
        return ModelSpec(hamiltonian, tuple(jumps), ensemble, picture)
    except ValueError as exc:
        raise ConfigError(f"model block invalid: {exc}") from exc


def grid_t_max(cfg, ensemble):
    """Resolve grid.t_max; 'auto' means twenty mean waiting periods."""
    raw = cfg["grid.t_max"].strip().lower()
    if raw == "auto":
        if hasattr(ensemble, "rates"):
            mean = float(ensemble.rates @ ensemble.weights)
        else:
            mean = ensemble.mean_rate
        return 20.0 / mean
    return duration(cfg, "grid.t_max")


def solver_methods(cfg):
    raw = cfg["solver.methods"].strip()
    if not raw:
        return []
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    known = ("ensemble", "volterra", "mc_frozen", "mc_renewal")
    for m in methods:
        if m not in known:
            raise ConfigError(f"solver.methods: unknown solver {m!r}; choose from {known}")
    return methods
