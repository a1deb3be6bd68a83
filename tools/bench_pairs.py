"""Run the benchmark on two checkouts in alternating pairs and summarise every metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds 101 102 ... [--out BENCH.json]

For each seed, the benchmark command of PARENT's ``BENCHMARK.json`` runs as
``COMMAND --workload W --seed S --seconds T`` from the root of each tree, with
T its ``run_seconds``.  The parent goes first on the first seed, the change on
the next, and so on.  The last line of each run's standard output is its
result: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing in
either tree is written.

The summary holds, per metric: its unit, each side's median and quartiles
(``statistics.quantiles`` with n = 4), the pairs in which the change is
better and the ties, the relative change of the median, and every run.  With
``--out`` it is stored under ``workloads[W]`` of that JSON file, whose other
keys are kept.

For each end-to-end metric of ``BENCHMARK.json`` the last lines say whether a
gain may be claimed: the change better in at least 9 of 10 pairs, ties
counting for neither, and the medians apart by more than the parent's
interquartile range.  They also say whether the change's median is worse than
the parent's by more than the metric's bound, and whether either side's
interquartile range exceeds that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

CLAIM_SHARE = 0.9


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(root, command, workload, seed, seconds):
    """The result line of one benchmark run from ``root``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"error: {' '.join(argv)} in {root} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(seeds, first, runs, better):
    """The per-workload record: runs per side, and per metric its statistics and every run.

    ``runs[side]`` lists the result lines in seed order; ``better[name]`` is
    "lower" or "higher" for the metrics whose direction is known.
    """
    out = {
        "seeds": seeds,
        "first_side_per_seed": dict(zip(map(str, seeds), first)),
        "correct_per_run": {s: [r["correct"] for r in runs[s]] for s in runs},
        "failed_per_run": {s: [r["failed"] for r in runs[s]] for s in runs},
        "attempted_per_run": {s: [r["attempted"] for r in runs[s]] for s in runs},
        "metrics": {},
    }
    for name, entry in runs["parent"][0]["metrics"].items():
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        sign = {"lower": 1.0, "higher": -1.0}.get(better.get(name), 0.0)
        gaps = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        stats = {s: quartiles(values[s]) for s in values}
        base = stats["parent"]["median"]
        out["metrics"][name] = {
            "unit": entry["unit"],
            **stats,
            "pairs_change_better": sum(g > 0 for g in gaps) if sign else None,
            "ties": sum(g == 0 for g in gaps),
            "median_rel_change": (stats["change"]["median"] - base) / base if base else None,
            "runs": values,
        }
    return out


def verdicts(summary, end_to_end):
    """One line per end-to-end metric: the claim rule, the bound and the spread."""
    lines = []
    for spec in end_to_end:
        m = summary["metrics"].get(spec["name"])
        if m is None:
            continue
        sign = 1.0 if spec["better"] == "lower" else -1.0
        parent, change = m["parent"], m["change"]
        pairs = len(m["runs"]["parent"])
        iqr = parent["q3"] - parent["q1"]
        gap = sign * (parent["median"] - change["median"])
        claim = m["pairs_change_better"] >= CLAIM_SHARE * pairs and gap > iqr
        base = abs(parent["median"]) or 1.0
        worse = -gap / base
        spread = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"]) / base
        lines.append(
            f"{spec['name']:14s} parent {parent['median']:.6g} change {change['median']:.6g} "
            f"{spec['unit']} ({m['median_rel_change'] or 0.0:+.1%}); change better in "
            f"{m['pairs_change_better']}/{pairs} pairs, {m['ties']} ties, gap {gap:.3g} vs "
            f"parent IQR {iqr:.3g}: claim {'holds' if claim else 'does not hold'}; "
            f"{'within' if worse <= spec['bound'] else 'OUTSIDE'} bound {spec['bound']:.0%}; "
            f"spread {spread:.1%} {'within' if spread <= spec['bound'] else 'OUTSIDE'} bound")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, help="one workload of the benchmark")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--out", help="JSON file to store the summary in, under workloads[W]")
    args = parser.parse_args(argv)
    bench = load_benchmark(args.parent)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    first = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            result = run_once(trees[side], bench["command"], args.workload, seed,
                              bench["run_seconds"])
            runs[side].append(result)
            print(f"{args.workload} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall_s={result['metrics'].get('wall_s', {}).get('value')}", flush=True)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    summary = summarise(args.seeds, first, runs, better)
    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                record = json.load(fh)
        record.setdefault("workloads", {})[args.workload] = summary
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    for line in verdicts(summary, bench["end_to_end"]):
        print(f"{args.workload}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
