"""The scripts under ``tools/`` drive the ``biphoton`` CLI in process and
are read by hand when two trees are compared.  These tests run them in
fresh interpreters, so a change that breaks one fails here rather than in
a comparison."""

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
