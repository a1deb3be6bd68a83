"""``tools/bench_pairs.py`` on two stub checkouts whose benchmark prints fixed results."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import bench_pairs  # noqa: E402

# wall_s per seed of each side; the change is better on every seed but 104
WALL = {"parent": {101: 1.00, 102: 1.10, 103: 0.90, 104: 1.00, 105: 1.05},
        "change": {101: 0.80, 102: 0.85, 103: 0.70, 104: 1.20, 105: 0.75}}

STUB = """import argparse, json, os
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds"):
    p.add_argument(name, required=True)
a = p.parse_args()
with open(os.path.join(os.path.dirname(__file__), "calls"), "a") as fh:
    fh.write(f"{a.workload} {a.seed} {a.seconds}\\n")
wall = WALL[int(a.seed)]
print("report {}")
print(json.dumps({"correct": True, "attempted": 40, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"},
    "ok_frac": {"value": 1.0, "unit": "ratio"},
    "peak_rss_mb": {"value": RSS, "unit": "MB"}}}))
"""


def stub_tree(root, side, rss):
    os.makedirs(root / "bench")
    (root / "bench" / "run.py").write_text(
        f"WALL = {WALL[side]!r}\nRSS = {rss!r}\n" + STUB)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"], "paths": ["bench"], "run_seconds": 7,
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.05},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}]}))
    return str(root)


def test_pairs_alternate_and_are_summarised(tmp_path, capsys):
    parent = stub_tree(tmp_path / "parent", "parent", 70.0)
    change = stub_tree(tmp_path / "change", "change", 90.0)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"claim": "kept", "workloads": {"other": {}}}))
    seeds = ["101", "102", "103", "104", "105"]
    assert bench_pairs.main([parent, change, "--workload", "mc_dephasing", "--seeds", *seeds,
                             "--out", str(out)]) == 0

    # each tree ran every seed once, with the benchmark's own run length
    for root in (parent, change):
        calls = open(os.path.join(root, "bench", "calls")).read().split("\n")[:-1]
        assert calls == [f"mc_dephasing {s} 7" for s in seeds]
    record = json.loads(out.read_text())
    assert record["claim"] == "kept" and "other" in record["workloads"]
    summary = record["workloads"]["mc_dephasing"]
    assert summary["seeds"] == [int(s) for s in seeds]
    assert list(summary["first_side_per_seed"].values()) == [
        "parent", "change", "parent", "change", "parent"]
    assert summary["correct_per_run"]["change"] == [True] * 5

    wall = summary["metrics"]["wall_s"]
    assert wall["runs"] == {side: [WALL[side][int(s)] for s in seeds] for side in WALL}
    assert wall["parent"]["median"] == 1.00 and wall["change"]["median"] == 0.80
    assert (wall["pairs_change_better"], wall["ties"]) == (4, 0)
    assert abs(wall["median_rel_change"] + 0.2) < 1e-12
    ok = summary["metrics"]["ok_frac"]
    assert (ok["pairs_change_better"], ok["ties"]) == (0, 5)

    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("mc_dephasing: ")}
    # 4 of 5 pairs is short of 9 in 10, though the gap exceeds the parent IQR
    assert "4/5 pairs" in lines["wall_s"] and "claim does not hold" in lines["wall_s"]
    assert "within bound" in lines["wall_s"]
    assert "claim does not hold" in lines["ok_frac"] and "within bound" in lines["ok_frac"]
    # 70 -> 90 MB is +29%, past its 25% bound
    assert "OUTSIDE bound" in lines["peak_rss_mb"]


def test_claim_holds_when_every_pair_is_better(tmp_path, capsys):
    parent = stub_tree(tmp_path / "parent", "parent", 70.0)
    change = stub_tree(tmp_path / "change", "change", 70.0)
    bench_pairs.main([parent, change, "--workload", "w", "--seeds", "101", "102", "103", "105"])
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("w: wall_s"))
    assert "4/4 pairs" in line and "claim holds" in line
