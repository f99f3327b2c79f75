"""The scripts under ``tools/`` run ``biphoton`` in process, through its
CLI (``artifact_digests.py``) or its routes (``route_times.py``), and are
read by hand when two trees are compared.  These tests run them in fresh
interpreters, so a change that breaks one fails here rather than in a
comparison."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_artifact_digests_runs():
    # One digest line for each of the 229 artifacts, one collinear-angle
    # line for each of the four configurations and one refusal, exit
    # code 3, for each of the six runs that must fail.  The tool pins
    # OpenBLAS to one thread, so runs under one and two threads, started
    # side by side, print the same lines.
    procs = [subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digests.py")],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for threads in ("1", "2")]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    lines = outs[0][0].splitlines()
    digests = [line for line in lines
               if re.fullmatch(r"[0-9a-f]{64}  \S+", line)]
    assert len(digests) == 229
    assert sum(line.startswith("collinear-angle ") for line in lines) == 4
    assert sum(line.startswith("exit 3  ") for line in lines) == 6
    assert len(lines) == 229 + 4 + 6


def test_route_times_cases_run():
    # Every case of route_times.py names a route of the stage table and is
    # called once, traced, without main()'s warm-up and timed calls, and
    # reported from that call: a case line, then a line for each stage.
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, "
        f"{os.path.join(ROOT, 'tools')!r}]\n"
        "import route_times, stages\n"
        "for case in route_times.CASES:\n"
        "    assert case[0] in stages.ROUTES, case\n"
        "    traced, _ = route_times.run_case(*case, 0, 0.0)\n"
        "    print(*route_times.report(*case, traced, [traced]), sep='\\n')\n")
    res = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    cases = [line for line in lines if not line.startswith("  ")]
    assert len(cases) == 12 and len(lines) > 60
    assert all(re.search(r" ms  \(median of 1\)  peak \d+\.\d MB$", line)
               and float(line.split()[-2]) > 0 for line in cases)
    assert all(re.fullmatch(r"  .+ \d+ B +\d+\.\d\d ms  peak \d+\.\d MB", line)
               for line in lines if line not in cases)


def test_traced_stages_repeat_in_a_fresh_process():
    # traced_stages runs one FFT and clears the engine's once-per-process
    # tables before each call: a call traced twice in a fresh interpreter
    # (the process's first FFT, then the same call with the tables built)
    # gives each stage the same traced peak to within 8 KB.
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, "
        f"{os.path.join(ROOT, 'tools')!r}]\n"
        "from stages import ROUTES, pipeline_of, traced_stages\n"
        "for route, kind, n in [('averaged_joints_x-2z', 'single', 16),\n"
        "                       ('conditional', 'single', 256)]:\n"
        "    pipe = pipeline_of(kind, n)\n"
        "    first, second = (traced_stages(lambda: ROUTES[route](pipe))[1]\n"
        "                     for _ in range(2))\n"
        "    assert [s[:3] for s in first] == [s[:3] for s in second]\n"
        "    print(max(abs(a.peak - b.peak) for a, b in zip(first, second)))\n")
    res = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    differences = [int(line) for line in res.stdout.split()]
    assert len(differences) == 2 and max(differences) <= 8192, differences
