"""Per-layer tracing of nmbath, recorded from the benchmark's side.

:class:`Tracer` wraps the public functions at each module boundary of the
package (plus the Volterra integration loop, so that it does not count as
solver self time) and records one span per call: name, layer, start, end and
parent.  Counts are taken at the same boundaries from the arguments and
results.  Nothing inside the package changes; a function that no longer
exists is reported as absent and its layer metrics read zero.

Which end-to-end metric each layer metric should move is listed in
``PER_LAYER``; the layer names are the package's modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

# (name, unit, what it measures and which end-to-end metric it should move)
PER_LAYER = (
    ("cli.write_s", "s", "CSV/JSON writing; job_p50_s on every workload"),
    ("cli.csv_bytes", "bytes", "CSV bytes written; job_p50_s on every workload"),
    ("cli.self_s", "s", "cmd_* time outside every child span"),
    ("config.build_s", "s", "load_config, resolve, build_model/build_ensemble; job_p50_s"),
    ("ratebath.decompose_s", "s", "kernel_decompose; ok_jobs_per_s on sweep_manifold"),
    ("ratebath.decompose_calls", "count", "kernel_decompose calls"),
    ("ratebath.decompose_errors", "count", "kernel_decompose raises; fail_frac on sweep_manifold"),
    ("ratebath.decompose_per_job", "ratio", "calls per job that decomposes (3 for kernel jobs)"),
    ("ratebath.kernel_modes", "count", "kernel modes returned"),
    ("ratebath.talbot_s", "s", "talbot_invert; job_p50_s on sweep_manifold"),
    ("ratebath.talbot_points", "count", "time points inverted"),
    ("qops.factorize_s", "s", "generator_factorization; job_p50_s on sweep_manifold"),
    ("qops.factorize_calls", "count", "factorizations"),
    ("qops.expm_fallbacks", "count", "factorizations without an eigenbasis"),
    ("qops.choi_s", "s", "Choi matrices and spectra; job_tail_s, wall_s on sweep_manifold"),
    ("qops.choi_maps", "count", "propagator maps handed to the CP check"),
    ("qops.choi_per_map", "ratio", "choi_matrix calls per map (2.0 at the seed)"),
    ("dynamics.ensemble_s", "s", "ensemble solver and propagator series"),
    ("dynamics.ensemble_rate_points", "count", "rates x time points of the ensemble solver"),
    ("dynamics.volterra_s", "s", "Volterra solver; job_tail_s, wall_s on sweep_manifold"),
    ("dynamics.volterra_mode_steps", "count", "steps x modes x 3 (main + half-step pass)"),
    ("dynamics.volterra_ns_per_mode_step", "ns", "Volterra time per mode step"),
    ("dynamics.self_s", "s", "solver time outside child spans: diagnostics, devectorize"),
    ("mc.sample_s", "s", "event sampling"),
    ("mc.events", "count", "events drawn"),
    ("mc.events_max_per_traj", "count", "largest event count of one trajectory"),
    ("mc.advance_s", "s", "trajectory advance; wall_s, job_tail_s on the MC workloads"),
    ("mc.traj_steps", "count", "trajectories x time points"),
    ("mc.ns_per_traj_step", "ns", "advance time per trajectory step"),
    ("mc.chunks", "count", "trajectory chunks"),
    ("qrt.residual_s", "s", "qrt_residual; job_p50_s on sweep_manifold"),
    ("qrt.correlation_calls", "count", "two_time_correlation calls"),
    ("trace.overhead_s", "s", "traced minus untraced wall time of the same jobs"),
    ("trace.coverage", "ratio", "share of traced job time inside spans below the commands"),
)

ENSEMBLE = ("dynamics.evolve_ensemble", "dynamics.ensemble_propagator_series")
VOLTERRA = ("dynamics.evolve_volterra", "dynamics.volterra_propagator_series")
# solver entry points whose self time is dynamics.self_s
SOLVERS = ENSEMBLE + VOLTERRA + ("dynamics.mc_trajectories",)
CONFIG = ("config.load_config", "config.resolve", "config.build_model", "config.build_ensemble")
CHOI = ("qops.choi_matrix", "qops.choi_min_eigenvalue")
SAMPLERS = ("mc.sample_frozen_events", "mc.sample_renewal_events")
WRITERS = ("cli.write_csv", "cli.write_json")

# span name -> (module, attribute); "cli.cmd" spans come from cli._COMMANDS
TARGETS = {
    "cli.write_csv": ("nmbath.cli", "write_csv"),
    "cli.write_json": ("nmbath.cli", "write_json"),
    "config.load_config": ("nmbath.config", "load_config"),
    "config.resolve": ("nmbath.config", "resolve"),
    "config.build_model": ("nmbath.config", "build_model"),
    "config.build_ensemble": ("nmbath.config", "build_ensemble"),
    "ratebath.kernel_decompose": ("nmbath.ratebath", "kernel_decompose"),
    "ratebath.talbot_invert": ("nmbath.ratebath", "talbot_invert"),
    "qops.generator_factorization": ("nmbath.qops", "generator_factorization"),
    "qops.choi_matrix": ("nmbath.qops", "choi_matrix"),
    "qops.choi_min_eigenvalue": ("nmbath.qops", "choi_min_eigenvalue"),
    "dynamics.evolve_ensemble": ("nmbath.dynamics", "evolve_ensemble"),
    "dynamics.ensemble_propagator_series": ("nmbath.dynamics", "ensemble_propagator_series"),
    "dynamics.evolve_volterra": ("nmbath.dynamics", "evolve_volterra"),
    "dynamics.volterra_propagator_series": ("nmbath.dynamics", "volterra_propagator_series"),
    "dynamics.volterra_sweep": ("nmbath.dynamics", "_volterra_run"),
    "dynamics.mc_trajectories": ("nmbath.dynamics", "mc_trajectories"),
    "mc.sample_frozen_events": ("nmbath._mc", "sample_frozen_events"),
    "mc.sample_renewal_events": ("nmbath._mc", "sample_renewal_events"),
    "mc.run_trajectories": ("nmbath._mc", "run_trajectories"),
    "qrt.qrt_residual": ("nmbath.qrt", "qrt_residual"),
    "qrt.two_time_correlation": ("nmbath.qrt", "two_time_correlation"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - self.child_time


def _bound(fn, args, kwargs):
    """Call arguments by parameter name, defaults applied."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Spans and counts of the calls made between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self.callers = {}  # span name -> indices of the jobs that made the call
        self._job = 0
        self._stack = []
        self._last_modes = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def start_job(self):
        self._job += 1

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.split(".", 1)[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.seconds
                self.count(name + ".calls")
                self.callers.setdefault(name, set()).add(self._job)
            if hook is not None:
                try:
                    hook(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # the function changed shape: its counts can no longer be taken
                    self._mark_absent(name)
            return result

        return traced

    # hooks run after the span closes; their names follow the span names

    def _on_kernel_decompose(self, fn, args, kwargs, result):
        self._last_modes = len(result.poles)
        self.count("kernel_modes", self._last_modes)

    def _on_talbot_invert(self, fn, args, kwargs, result):
        self.count("talbot_points", int(result.size) if hasattr(result, "size") else 1)

    def _on_generator_factorization(self, fn, args, kwargs, result):
        if getattr(result, "eigvals", 0) is None:
            self.count("expm_fallbacks")

    def _on_write_csv(self, fn, args, kwargs, result):
        path = _bound(fn, args, kwargs).get("path")
        if path is not None:
            self.count("csv_bytes", os.path.getsize(path))

    def _on_evolve_ensemble(self, fn, args, kwargs, result):
        call = _bound(fn, args, kwargs)
        self.count("ensemble_rate_points", call["model"].ensemble.n * len(call["tgrid"]))

    def _on_ensemble_propagator_series(self, fn, args, kwargs, result):
        self._on_evolve_ensemble(fn, args, kwargs, result)
        self.count("choi_maps", len(result))

    def _on_evolve_volterra(self, fn, args, kwargs, result):
        call = _bound(fn, args, kwargs)
        kernel = call.get("kernel")
        modes = len(kernel.poles) if kernel is not None else self._last_modes
        # check_step repeats the integration at half step: three steps' work per step
        passes = 3 if call.get("check_step") else 1
        self.count("volterra_mode_steps", (len(call["tgrid"]) - 1) * modes * passes)

    def _on_volterra_propagator_series(self, fn, args, kwargs, result):
        self._on_evolve_volterra(fn, args, kwargs, result)
        self.count("choi_maps", len(result))

    def _sampled(self, offsets):
        per_traj = offsets[1:] - offsets[:-1]
        self.count("events", int(offsets[-1] - offsets[0]))
        if per_traj.size:
            top = int(per_traj.max())
            self.counts["events_max_per_traj"] = max(self.counts.get("events_max_per_traj", 0), top)

    def _on_sample_frozen_events(self, fn, args, kwargs, result):
        self._sampled(result[-1])

    def _on_sample_renewal_events(self, fn, args, kwargs, result):
        self._sampled(result[-1])

    def _on_run_trajectories(self, fn, args, kwargs, result):
        call = _bound(fn, args, kwargs)
        n = len(call["ev_off"]) - 1
        self.count("traj_steps", n * len(call["tgrid"]))
        chunk = getattr(sys.modules.get("nmbath._mc"), "CHUNK", None)
        if chunk:
            self.count("chunks", math.ceil(n / chunk))

    # -- installing ------------------------------------------------------

    def _mark_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def _patch(self, holder, key, new):
        old = holder[key]
        holder[key] = new
        self._patches.append((holder, key, old))

    def install(self):
        """Wrap every target wherever the package binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "nmbath" or name.startswith("nmbath.")) and m is not None]
        for name, (module_name, attr) in TARGETS.items():
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self._mark_absent(name)
                continue
            traced = self._wrap(name, fn)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is fn:
                        self._patch(namespace, key, traced)
        commands = getattr(sys.modules.get("nmbath.cli"), "_COMMANDS", None)
        if commands is None:
            self._mark_absent("cli.cmd")
        else:
            for key, fn in list(commands.items()):
                self._patch(commands, key, self._wrap("cli.cmd", fn))

    def uninstall(self):
        while self._patches:
            holder, key, old = self._patches.pop()
            holder[key] = old

    # -- metrics ---------------------------------------------------------

    def _outer(self, names):
        """Time in spans of ``names`` that no other span of ``names`` encloses."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent is not None and parent.name not in names:
                parent = parent.parent
            if parent is None:
                total += span.seconds
        return total

    def _self(self, names):
        names = set(names)
        return sum(s.self_seconds for s in self.spans if s.name in names)

    def metrics(self, blocks, untraced_wall, traced_wall):
        """Per-layer values per traced block; ratios are taken over all blocks."""
        c = self.counts.get

        def calls(name):
            return c(name + ".calls", 0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        volterra_s = self._outer(VOLTERRA)
        advance_s = self._outer(("mc.run_trajectories",))
        below = sum(s.seconds for s in self.spans
                    if s.parent is not None and s.parent.name == "cli.cmd")
        totals = {
            "cli.write_s": self._outer(WRITERS),
            "cli.csv_bytes": c("csv_bytes", 0),
            "cli.self_s": self._self(("cli.cmd",)),
            "config.build_s": self._outer(CONFIG),
            "ratebath.decompose_s": self._outer(("ratebath.kernel_decompose",)),
            "ratebath.decompose_calls": calls("ratebath.kernel_decompose"),
            "ratebath.decompose_errors": c("ratebath.kernel_decompose.errors", 0),
            "ratebath.kernel_modes": c("kernel_modes", 0),
            "ratebath.talbot_s": self._outer(("ratebath.talbot_invert",)),
            "ratebath.talbot_points": c("talbot_points", 0),
            "qops.factorize_s": self._outer(("qops.generator_factorization",)),
            "qops.factorize_calls": calls("qops.generator_factorization"),
            "qops.expm_fallbacks": c("expm_fallbacks", 0),
            "qops.choi_s": self._outer(CHOI),
            "qops.choi_maps": c("choi_maps", 0),
            "dynamics.ensemble_s": self._outer(ENSEMBLE),
            "dynamics.ensemble_rate_points": c("ensemble_rate_points", 0),
            "dynamics.volterra_s": volterra_s,
            "dynamics.volterra_mode_steps": c("volterra_mode_steps", 0),
            "dynamics.self_s": self._self(SOLVERS),
            "mc.sample_s": self._outer(SAMPLERS),
            "mc.events": c("events", 0),
            "mc.advance_s": advance_s,
            "mc.traj_steps": c("traj_steps", 0),
            "mc.chunks": c("chunks", 0),
            "qrt.residual_s": self._outer(("qrt.qrt_residual",)),
            "qrt.correlation_calls": calls("qrt.two_time_correlation"),
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        out = {name: value / blocks for name, value in totals.items()}
        out.update({
            "ratebath.decompose_per_job": ratio(
                calls("ratebath.kernel_decompose"),
                len(self.callers.get("ratebath.kernel_decompose", ()))),
            "qops.choi_per_map": ratio(calls("qops.choi_matrix"), c("choi_maps", 0)),
            "dynamics.volterra_ns_per_mode_step": ratio(
                volterra_s, c("volterra_mode_steps", 0), 1e9),
            "mc.events_max_per_traj": c("events_max_per_traj", 0),
            "mc.ns_per_traj_step": ratio(advance_s, c("traj_steps", 0), 1e9),
            "trace.coverage": ratio(below, traced_wall),
        })
        return out
