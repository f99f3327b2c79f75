"""The benchmark harness under ``perfbench/`` binds engine names by import
and by attribute.  These tests run its own entry points in fresh
interpreters, so a rename in ``biphoton`` that breaks the harness fails
here rather than in a benchmark run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=False,
                          timeout=300)


def test_span_recorder_binds_every_name():
    # install() looks up every function and method the traced run wraps.
    proc = run_python("-c", "import sys; "
                      f"sys.path.insert(0, {PERFBENCH!r}); import spans; "
                      "spans.install(spans.Recorder('t'))")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_setup_runs(workload):
    proc = run_python(os.path.join(PERFBENCH, "child.py"), "setup",
                      json.dumps({"workload": workload, "seed": 1}))
    assert proc.returncode == 0, proc.stderr


def test_child_conditional_runs(tmp_path):
    # The conditional mode calls fields.conditional_position_direct
    # positionally, untimed once and then for at least one timed call.
    out = tmp_path / "conditional.npy"
    proc = run_python(os.path.join(PERFBENCH, "child.py"), "conditional",
                      json.dumps({"seed": 1, "seconds": 0, "out": str(out)}))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["times"]) == 1
    assert result["checks"] == {"finite": True, "non_negative": True,
                                "normalized": True}
    assert out.exists()
