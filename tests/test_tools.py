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
    # code 3, for each of the six runs that must fail.
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digests.py")],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = [line for line in lines
               if re.fullmatch(r"[0-9a-f]{64}  \S+", line)]
    assert len(digests) == 229
    assert sum(line.startswith("collinear-angle ") for line in lines) == 4
    assert sum(line.startswith("exit 3  ") for line in lines) == 6
    assert len(lines) == 229 + 4 + 6
