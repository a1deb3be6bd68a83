"""``tools/same_outputs.py`` reports what differs between two runs of one job."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import same_outputs  # noqa: E402

HEADER = "t,rho_00_re\n"


def job_result(root, code, stderr, files):
    os.makedirs(root / "out")
    (root / "exit").write_text(f"{code}\n")
    (root / "stderr").write_text(stderr)
    for name, text in files.items():
        (root / "out" / name).write_text(text)
    return str(root)


def test_identical_results_report_nothing(tmp_path):
    files = {"a.csv": HEADER + "0.0,1.0\n", "s.json": "{}"}
    assert same_outputs.compare(job_result(tmp_path / "old", 0, "", files),
                                job_result(tmp_path / "new", 0, "", files)) == ([], 0.0)


def test_each_difference_is_reported(tmp_path):
    old = job_result(tmp_path / "old", 0, "", {
        "a.csv": HEADER + "0.0,4.0\n1.0,-2.0\n", "b.csv": HEADER + "0.0,1.0\n",
        "s.json": "{}", "gone.csv": HEADER})
    new = job_result(tmp_path / "new", 3, "runtime error: x\n", {
        "a.csv": HEADER + "0.0,4.0\n1.0,-2.5\n", "b.csv": "t,other\n0.0,1.0\n",
        "s.json": "{ }"})
    assert same_outputs.compare(old, new) == ([
        "exit differs", "stderr differs",
        "files only in old: ['gone.csv'], only in new: []",
        "a.csv differs, largest change 1.25e-01 of its largest value (rho_00_re 1.25e-01)",
        "b.csv differs", "s.json differs"], 0.125)


def test_columns_that_differ_are_named(tmp_path):
    header = "t,min_eigenvalue,trace_drift,bloch_x\n"
    (tmp_path / "old.csv").write_text(header + "0.0,1.0,0.0,-0.0\n8.0,-2.0,1e-16,0.5\n")
    (tmp_path / "new.csv").write_text(header + "0.0,1.0,0.0,0.0\n8.0,-2.5,2e-16,0.5\n")
    changes = same_outputs.column_changes(tmp_path / "old.csv", tmp_path / "new.csv")
    # relative to the file's largest |value|, 8.0; a sign-only change is named with 0
    assert changes == {"min_eigenvalue": 0.0625, "trace_drift": 1e-16 / 8.0, "bloch_x": 0.0}
    assert same_outputs.csv_change(tmp_path / "old.csv", tmp_path / "new.csv") == 0.0625
    (tmp_path / "other.csv").write_text("t,x\n0.0,1.0\n")
    assert same_outputs.column_changes(tmp_path / "old.csv", tmp_path / "other.csv") is None


@pytest.mark.parametrize("old,new,change", [("-0.0", "0.0", 0.0), ("nan", "nan", 0.0),
                                             ("0.0", "1e-300", 1e-300)])
def test_csv_change_edge_cells(tmp_path, old, new, change):
    (tmp_path / "old.csv").write_text(f"{HEADER}{old},0.0\n")
    (tmp_path / "new.csv").write_text(f"{HEADER}{new},0.0\n")
    assert same_outputs.csv_change(tmp_path / "old.csv", tmp_path / "new.csv") == change


def fake_tree(root, value):
    """A checkout whose one job writes a.csv with ``value``; its bench/ lists that job."""
    os.makedirs(root / "bench")
    (root / "bench" / "workloads.py").write_text(
        "import types\nWORKLOADS = ('w',)\n\n"
        "def jobs_for(workload, seed, block):\n"
        "    return [types.SimpleNamespace(label='j', command='evolve', config='')]\n")
    os.makedirs(root / "src" / "nmbath")
    (root / "src" / "nmbath" / "__init__.py").write_text("")
    (root / "src" / "nmbath" / "cli.py").write_text(
        "import os\n\ndef main(argv):\n"
        "    with open(os.path.join(argv[-1], 'a.csv'), 'w') as fh:\n"
        f"        fh.write('t,x\\n0.0,{value}\\n1.0,8.0\\n')\n"
        "    return 0\n")
    return str(root)


@pytest.mark.parametrize("new_value,summary", [
    ("4.0", "0 differ, largest CSV change 0.00e+00"),
    ("4.5", "1 differ, largest CSV change 6.25e-02")])
def test_last_line_gives_largest_csv_change(tmp_path, capsys, new_value, summary):
    old, new = fake_tree(tmp_path / "old", "4.0"), fake_tree(tmp_path / "new", new_value)
    code = same_outputs.main([old, new, "--seed", "3", "--blocks", "0"])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"1 jobs (seed 3, blocks 0, workload all): {summary}"
    assert code == (new_value != "4.0")
