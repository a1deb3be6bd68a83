"""Check that two checkouts give the same outputs on the benchmark's jobs.

    python3 tools/same_outputs.py OLD_ROOT NEW_ROOT --seed 7 [--workload all] [--blocks 0 1]

Each tree runs every job of the chosen workloads, seed and blocks through its
own ``nmbath.cli.main``, in a fresh interpreter of its own, one job after
another.  The job lists come from OLD_ROOT's ``bench/workloads.py``, which is
only read.  Every job runs in a directory of its own with relative paths, so
the trees see the same arguments.

Reports every job whose output files, exit code or stderr differ and, for each
CSV file that differs, the columns that differ and the largest change of a
cell in each, relative to the largest absolute value in the old file.  For
each JSON file that differs only in its numbers it names every numeric leaf
that differs by its key path, with the largest absolute and relative change.
The last line counts the jobs that differ and gives the largest such relative
change of any CSV cell in the run.  Exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import numpy as np

TOOLS = os.path.dirname(os.path.abspath(__file__))


def load_workloads(root):
    """The ``bench/workloads.py`` module of the checkout at ``root``."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", os.path.join(root, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def job_list(root, workloads, seed, blocks):
    """Every job as a dict with a unique directory name, in workload, block, job order."""
    bench = load_workloads(root)
    names = bench.WORKLOADS if workloads == "all" else workloads.split(",")
    jobs = []
    for workload in names:
        for block in blocks:
            for i, job in enumerate(bench.jobs_for(workload, seed, block)):
                jobs.append({"name": f"{workload}-b{block}-{i:03d}", "label": job.label,
                             "command": job.command, "config": job.config})
    return jobs


def run_tree(root, jobs_path, work):
    """Run the jobs through ``root``'s CLI; each leaves out/, exit and stderr in its directory."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from nmbath import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported nmbath from {cli.__file__}, not from {src}")
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    for job in jobs:
        job_dir = os.path.join(work, job["name"])
        os.makedirs(os.path.join(job_dir, "out"))
        os.chdir(job_dir)
        with open("job.cfg", "w", encoding="utf-8") as fh:
            fh.write(job["config"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([job["command"], "--config", "job.cfg", "--out", "out"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is an outcome to compare
                code = f"crash: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.__stderr__)
        with open("exit", "w", encoding="utf-8") as fh:
            fh.write(f"{code}\n")
        with open("stderr", "w", encoding="utf-8") as fh:
            fh.write(err.getvalue())


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def column_changes(old_path, new_path):
    """Largest |new - old| of each column that differs, over the largest |old| of the file.

    A dict in header order; a cell differs when its value or its sign does.
    None if the layouts differ.
    """
    with open(old_path, encoding="utf-8") as a, open(new_path, encoding="utf-8") as b:
        header = a.readline()
        if header != b.readline():
            return None
        old = np.loadtxt(a, delimiter=",", ndmin=2)
        new = np.loadtxt(b, delimiter=",", ndmin=2)
    if old.shape != new.shape:
        return None
    both_nan = np.isnan(old) & np.isnan(new)
    differs = ~both_nan & ((old != new) | (np.signbit(old) != np.signbit(new)))
    change = np.where(both_nan, 0.0, np.abs(new - old))
    scale = np.max(np.abs(old[np.isfinite(old)]), initial=0.0) or 1.0
    names = header.rstrip("\n").split(",")
    return {names[j]: np.max(change[:, j]) / scale for j in np.flatnonzero(differs.any(axis=0))}


def csv_change(old_path, new_path):
    """Largest |new - old| over the cells, over the largest |old|; None if the layouts differ."""
    changes = column_changes(old_path, new_path)
    return None if changes is None else max(changes.values(), default=0.0)


def _leaves(node, path=""):
    """(key path, value) of every leaf of a JSON value; the entries of a list share its path."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for item in node:
            yield from _leaves(item, path)
    else:
        yield path, node


def json_changes(old_path, new_path):
    """Largest |new - old| and |new - old| / |old| of each numeric leaf that differs, by key path.

    A dict {path: (absolute, relative)} in key order, with the entries of a
    list pooled under the list's path; a leaf differs when its value or its
    sign does.  None if anything but numbers differs: a key, a list's length,
    or a leaf that is not a number on either side.
    """
    with open(old_path, encoding="utf-8") as a, open(new_path, encoding="utf-8") as b:
        old, new = list(_leaves(json.load(a))), list(_leaves(json.load(b)))
    if [path for path, _ in old] != [path for path, _ in new]:
        return None
    changes = {}
    for (path, x), (_, y) in zip(old, new):
        if json.dumps(x) == json.dumps(y):
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            return None
        absolute = abs(y - x)
        relative = absolute / abs(x) if x else (math.inf if absolute else 0.0)
        prev = changes.get(path, (0.0, 0.0))
        changes[path] = (max(prev[0], absolute), max(prev[1], relative))
    return changes


def compare(old_dir, new_dir):
    """What differs between one job's results in the two trees, one line per item,
    and the largest relative change of a cell in its CSV files (0.0 if none)."""
    found, largest = [], 0.0
    for name in ("exit", "stderr"):
        if _read(os.path.join(old_dir, name)) != _read(os.path.join(new_dir, name)):
            found.append(f"{name} differs")
    old_out, new_out = os.path.join(old_dir, "out"), os.path.join(new_dir, "out")
    old_files, new_files = set(os.listdir(old_out)), set(os.listdir(new_out))
    if old_files != new_files:
        found.append(f"files only in old: {sorted(old_files - new_files)}, "
                     f"only in new: {sorted(new_files - old_files)}")
    for name in sorted(old_files & new_files):
        a, b = os.path.join(old_out, name), os.path.join(new_out, name)
        if _read(a) == _read(b):
            continue
        if name.endswith(".json"):
            changes = json_changes(a, b)
            leaves = "; ".join(f"{path} {absolute:.2e} ({relative:.2e} relative)"
                               for path, (absolute, relative) in (changes or {}).items())
            found.append(f"{name} differs" + (f": {leaves}" if leaves else ""))
            continue
        changes = column_changes(a, b) if name.endswith(".csv") else None
        if changes is None:
            found.append(f"{name} differs")
        else:
            change = max(changes.values(), default=0.0)
            largest = max(largest, change)
            columns = ", ".join(f"{col} {value:.2e}" for col, value in changes.items())
            found.append(f"{name} differs, largest change {change:.2e} of its largest value "
                         f"({columns})")
    return found, largest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="root of the old checkout (job lists come from its bench/)")
    parser.add_argument("new", help="root of the new checkout")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--workload", default="all", help="'all' or comma-separated names")
    parser.add_argument("--blocks", type=int, nargs="+", default=[0, 1], help="block indices")
    args = parser.parse_args(argv)

    jobs = job_list(args.old, args.workload, args.seed, args.blocks)
    work = tempfile.mkdtemp(prefix="same_outputs-")
    try:
        jobs_path = os.path.join(work, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        for side, root in (("old", args.old), ("new", args.new)):
            code = (f"import sys; sys.path.insert(0, {TOOLS!r}); import same_outputs; "
                    f"same_outputs.run_tree({os.path.abspath(root)!r}, {jobs_path!r}, "
                    f"{os.path.join(work, side)!r})")
            subprocess.run([sys.executable, "-c", code], check=True)
        differ, largest = 0, 0.0
        for job in jobs:
            found, change = compare(os.path.join(work, "old", job["name"]),
                                    os.path.join(work, "new", job["name"]))
            largest = max(largest, change)
            if found:
                differ += 1
                print(f"{job['name']} ({job['label']}):")
                for line in found:
                    print(f"  {line}")
    finally:
        shutil.rmtree(work)
    print(f"{len(jobs)} jobs (seed {args.seed}, blocks {' '.join(map(str, args.blocks))}, "
          f"workload {args.workload}): {differ} differ, largest CSV change {largest:.2e}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
