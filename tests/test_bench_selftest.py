"""The benchmark harness passes its own self-test.

``bench/selftest.py`` checks the harness itself: every metric of
``BENCHMARK.json`` comes out with its unit, a crashing job is counted, an
absent layer is reported, and seeds reproduce their job lists.  It runs in a
fresh interpreter from the repository root, as documented there.
"""

import os
import shlex
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failed", proc.stdout


def test_readme_bench_commands_parse(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import run

    calls = []
    monkeypatch.setattr(run, "measure", lambda *args: calls.append(args) or ({}, {}))
    monkeypatch.setattr(run, "run_all", lambda *args: calls.append(args) or 0)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = [shlex.split(line, comments=True) for line in fh
                 if line.startswith("python3 bench/run.py")]
    assert lines
    for argv in lines:
        assert run.main(argv[2:]) == 0, argv
    assert len(calls) == len(lines)
