#!/usr/bin/env python3
"""nmbath benchmark: seeded sweeps of CLI jobs, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sweep_manifold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client: this process, which holds one
workload only, runs generated CLI jobs one after another through
``nmbath.cli.main`` and checks every job's outputs (``checks.py``).  Jobs come
in blocks, each a fixed list (``workloads.py``) run twice over; blocks are run
until ``--seconds`` would be exceeded, at least one.  Every job must write
byte-identical outputs both times, and counts once, at the better of its two
times: on a shared host, machine speed drifts by tens of percent within
seconds, and the better time strips most of that from the figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the second
time through each list with every module boundary wrapped (``layers.py``),
so the byte comparison also shows that tracing changes no output, and reports
the per-layer metrics.  ``--workload all`` runs every workload in its own
process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``report``, holds sample counts, failures by reason and the
environment.  The run exits non-zero without a result when ``src/nmbath`` is
not next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.special

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("ok_jobs_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_LAUNCHES = 7
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Outcome:
    command: str
    label: str
    seconds: float
    cpu: float
    failure: str | None
    digest: str


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _digest(out_dir, code):
    h = hashlib.sha256(f"exit {code}\n".encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_job(main, job, work):
    """Run one job through the CLI entry point and check it; never raises."""
    out = tempfile.mkdtemp(dir=work)
    cfg_path = os.path.join(out, "job.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(job.config)
    err = io.StringIO()
    crash = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main([job.command, "--config", cfg_path, "--out", out])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a result to report, not a reason to stop
        code = None
        crash = f"crash: {type(exc).__name__}"
        print(f"crash in {job.command} ({job.label}):", file=sys.stderr)
        traceback.print_exc()
    seconds = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    if crash is not None:
        failure = crash
    elif code != 0:
        first = (err.getvalue().strip().splitlines() or [""])[0]
        failure = f"exit {code}: {first}"
    else:
        wrong = checks.check(job.command, checks.parse_config(job.config), out)
        failure = None if wrong is None else f"wrong answer: {job.command}: {wrong}"
    digest = _digest(out, code)
    shutil.rmtree(out)
    return Outcome(job.command, job.label, seconds, cpu, failure, digest)


def run_pass(main, jobs, work, tracer=None):
    outcomes = []
    for job in jobs:
        if tracer is not None:
            tracer.start_job()
        outcomes.append(run_job(main, job, work))
    return outcomes


def reason(failure):
    """Failure text with arrays cut and numbers masked, so that like failures group."""
    head, _, message = failure.partition(": ")
    message = re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", message.split("[", 1)[0])
    return f"{head}: {message.strip()}"[:120]


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics.  Job times have gaps (a
    block holds a few heavy jobs), and a single order statistic next to a gap
    jumps across it from seed to seed; this estimate moves smoothly.
    """
    x = np.sort(values)
    n = x.size
    cdf = scipy.special.betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def tail_percentile(jobs_per_block):
    """Highest whole percentile with TAIL_BEYOND jobs of one block beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / jobs_per_block))


def setup_seconds(launches=SETUP_LAUNCHES):
    """Fresh-interpreter ``import nmbath.cli`` times, as every CLI call pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nmbath.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                capture_output=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("NMBATH_") or k.endswith("_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
    }


def import_cli():
    if not (SRC / "nmbath" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'nmbath'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from nmbath import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported nmbath from {cli.__file__}, not {SRC}")
    return cli


def run_block(main, jobs, work, tracer=None):
    """Run the list twice, the second time traced if a tracer is given.

    Returns both repetitions and the labels of jobs whose outputs differ.
    """
    first = run_pass(main, jobs, work)
    if tracer is not None:
        tracer.install()
    try:
        second = run_pass(main, jobs, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    differs = [a.label for a, b in zip(first, second) if a.digest != b.digest]
    return first, second, differs


def measure(workload, seed, seconds, trace):
    """Run the workload; return (result line, report)."""
    main = import_cli().main
    per_block = workloads.JOBS_PER_BLOCK[workload]
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setup = [] if trace else setup_seconds()
        tracer = layers.Tracer() if trace else None
        blocks = []
        start = time.perf_counter()
        while True:
            jobs = workloads.jobs_for(workload, seed, len(blocks))
            blocks.append(run_block(main, jobs, work, tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(blocks) + 1) / len(blocks) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # each job counts once, at the better of its two times
    best = [[min(a, b, key=lambda o: o.seconds) for a, b in zip(first, second)]
            for first, second, _ in blocks]
    flat = [o for block in best for o in block]
    differs = [label for _, _, d in blocks for label in d]
    walls = [sum(o.seconds for o in block) for block in best]
    ok = sum(o.failure is None for o in flat)
    reasons = Counter(reason(o.failure) for o in flat if o.failure is not None)
    broken = [r for r in reasons if r.startswith(("crash", "wrong answer"))]
    q = tail_percentile(per_block)
    times = [o.seconds for o in flat]
    if trace:
        plain = sum(o.seconds for first, _, _ in blocks for o in first)
        traced = sum(o.seconds for _, second, _ in blocks for o in second)
        metrics = tracer.metrics(len(blocks), plain, traced)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "job_p50_s": quantile(times, 0.5),
            "job_tail_s": quantile(times, q / 100),
            "ok_jobs_per_s": ok / sum(walls),
            "ok_frac": ok / len(flat),
            "cpu_s": statistics.median(sum(o.cpu for o in block) for block in best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "blocks": len(blocks),
        "jobs": len(flat),
        "jobs_per_block": per_block,
        "repetitions_per_job": 2,
        "setup_launches": len(setup),
        "tail_percentile": q,
        "fail_frac": (len(flat) - ok) / len(flat),
        "failures": dict(reasons.most_common()),
        "outputs_differ": differs,
        "absent_layers": tracer.absent if trace else [],
        "job_seconds": sorted(round(t, 5) for t in times),
        "job_seconds_by_command": {
            c: round(sum(o.seconds for o in flat if o.command == c), 6)
            for c in dict.fromkeys(o.command for o in flat)},
        "environment": environment(),
    }
    result = {
        "correct": not broken and not differs,
        "attempted": len(flat),
        "failed": len(flat) - ok,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def run_all(seed, seconds, trace):
    """Every workload in its own process; one table of all metrics."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {workload} exited {proc.returncode}")
        report = json.loads(lines[-2][len("report "):])
        results[workload] = (json.loads(lines[-1]), report)
    names = list(results)
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>16s}" for n in names))
    for metric, entry in next(iter(results.values()))[0]["metrics"].items():
        row = " ".join(f"{results[n][0]['metrics'][metric]['value']:16.6g}" for n in names)
        print(f"{metric:36s} {entry['unit']:6s} {row}")
    for n in names:
        result, report = results[n]
        print(f"{n}: correct={result['correct']} jobs={report['jobs']} blocks={report['blocks']} "
              f"failed={result['failed']} fail_frac={report['fail_frac']:.4f} "
              f"setup_launches={report['setup_launches']} tail=p{report['tail_percentile']}")
    print(json.dumps({n: r for n, (r, _) in results.items()}, sort_keys=True))
    return 0 if all(r["correct"] for r, _ in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
