#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the repository root:

    python3 bench/selftest.py

It runs a few cheap jobs rather than a workload (about 15 s) and checks:

* every metric named in BENCHMARK.json comes out, with the unit named there;
* a CLI call that raises is counted as a crash and the run goes on;
* a missing layer function is reported as absent;
* the same seed reproduces the generated configs and another seed changes them;
* without ``src/nmbath`` next to it, the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CHEAP = workloads.Job("fitpow", "ensemble.type = manifold\nensemble.gamma = 1.0\n"
                      "ensemble.a = 0.3\nensemble.b = 0.3\nensemble.n = 8\n", "cheap fitpow")
FAILURES = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def test_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    original = workloads.jobs_for
    workloads.jobs_for = lambda workload, seed, block: [CHEAP, CHEAP]
    try:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, report = run.measure("sweep_manifold", 1, 0.0, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(got == want, f"--trace {trace} reports every {key} metric with its unit")
            expect(result["correct"] and result["attempted"] == 2 and result["failed"] == 0,
                   f"--trace {trace} passes two good jobs")
    finally:
        workloads.jobs_for = original


def test_crash():
    def main(argv):
        if argv[0] == "kernel":
            raise ZeroDivisionError("forced")
        return run.import_cli().main(argv)

    crash = workloads.Job("kernel", CHEAP.config, "forced crash")
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        outcomes = run.run_pass(main, [crash, CHEAP], work)
    finally:
        shutil.rmtree(work)
    expect([o.failure for o in outcomes] == ["crash: ZeroDivisionError", None],
           "a raising CLI call counts as a crash and the next job still runs")


def test_absent_layer():
    run.import_cli()
    tracer = layers.Tracer()
    layers.TARGETS["ratebath.gone"] = ("nmbath.ratebath", "no_such_function")
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        del layers.TARGETS["ratebath.gone"]
    expect(tracer.absent == ["ratebath.gone"], "a missing layer function is reported absent")


def test_seeds():
    for workload in workloads.WORKLOADS:
        first = workloads.jobs_for(workload, 7, 0)
        expect(first == workloads.jobs_for(workload, 7, 0), f"{workload}: same seed, same configs")
        expect(first != workloads.jobs_for(workload, 8, 0), f"{workload}: other seed, other configs")
        expect(len(first) == workloads.JOBS_PER_BLOCK[workload], f"{workload}: full block")


def test_bare_directory():
    bare = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload",
                               "mc_dephasing", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/nmbath the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    test_metrics()
    test_crash()
    test_absent_layer()
    test_seeds()
    test_bare_directory()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
