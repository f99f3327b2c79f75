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


def run_child(mode, **args):
    """The JSON result of ``perfbench/child.py <mode>``."""
    proc = run_python(os.path.join(PERFBENCH, "child.py"), mode,
                      json.dumps(args))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(argv_of, *args):
    """``biphoton`` on the argv ``perfbench/common.py``'s ``argv_of(*args)``
    gives a workload."""
    proc = run_python("-c", "import sys; "
                      f"sys.path.insert(0, {PERFBENCH!r}); import common; "
                      "from biphoton.cli import main; "
                      f"sys.exit(main(common.{argv_of}(*{args!r})))")
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def conditional_npy(tmp_path_factory):
    """(result, .npy path) of one run of the conditional mode."""
    out = tmp_path_factory.mktemp("conditional") / "conditional.npy"
    return run_child("conditional", seed=1, seconds=0, out=str(out)), out


def test_child_conditional_runs(conditional_npy):
    # The conditional mode calls fields.conditional_position_direct
    # positionally, untimed once and then for at least one timed call.
    result, out = conditional_npy
    assert len(result["times"]) == 1
    assert result["checks"] == {"finite": True, "non_negative": True,
                                "normalized": True}
    assert out.exists()


# The check modes hold the benchmark's correctness gate: each checks the
# artifacts of its own workload against references from the 4D path.

def test_child_check_scan(tmp_path):
    run_cli("scan_argv", str(tmp_path))
    result = run_child("check-scan", seed=1, csv=str(tmp_path / "scan_z.csv"))
    assert result["checks"] == {"ef_min_matches_4d_path": True}


def test_child_check_camera(tmp_path):
    run_cli("synth_argv", str(tmp_path), 1)
    run_cli("coincide_argv", str(tmp_path))
    result = run_child("check-camera", seed=1, out=str(tmp_path))
    assert result["checks"] == {"stack_header": True, "pearson_ge_0.9": True,
                                "grd_pitch": True, "grd_n_frames": True}


def test_child_check_conditional(conditional_npy):
    result = run_child("check-conditional", seed=1,
                       npy=str(conditional_npy[1]))
    assert result["checks"] == {"matches_4d_path": True}
