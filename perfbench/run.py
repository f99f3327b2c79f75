#!/usr/bin/env python3
"""Benchmark of the biphoton engine, driven from outside through the CLI and
the public API.

    python3 perfbench/run.py --workload scan-z --seed 1 --seconds 20 --trace 0

Run it from the repository root; it builds nothing and uses ``src/``
directly.  Workloads (BENCHMARK.json says why each was chosen):

- ``scan-z``: ``biphoton scan z`` over 0, 2.5, ..., 35 mm at n = 32.
- ``camera``: ``biphoton frames synth`` (50000 frames, n = 32, the seed)
  then ``biphoton frames coincide --stack``.
- ``conditional-fine``: ``fields.conditional_position_direct`` for a
  double crystal at n = 64, through the API.

With ``--trace 0`` a run warms up with one untimed unit, measures set-up
time in fresh processes, repeats the workload for ``--seconds`` and prints
the end-to-end metrics.  With ``--trace 1`` it runs one unit in process,
untraced and then traced, prints the per-layer metrics, and runs the fit
probe (``biphoton ef --n 128``).  Both check the outputs.  Every child runs
under an address-space cap and BLAS threads are pinned to the CPUs the
process may use.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; details, spans and
the environment go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import common

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Address-space cap of every child: room for the n = 64 4D path (about
#: 1.4 GB resident), well short of the machine's memory.
CAP_BYTES = 3 * 1024**3
SETUP_REPEATS = 5
#: Grid sizes of the fit probe, largest first; the first that completes
#: is ``fields.max_n_fit``.
PROBE_N = (128, 64)
#: Wall-time budget of one invocation; it must exit within 180 s.
DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The run cannot produce its metrics."""


@dataclass
class Child:
    rc: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str

    def last_error(self) -> str:
        lines = self.stderr.strip().splitlines()
        return lines[-1] if lines else ""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


class Runner:
    """Starts capped children one at a time and counts operations."""

    def __init__(self, root: str, out_root: str, work: str):
        self.root = root
        self.out_root = out_root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.threads = str(len(os.sched_getaffinity(0)))
        pinning = {k: self.threads for k in ("OPENBLAS_NUM_THREADS",
                                              "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
        path = os.path.join(root, "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path, **pinning)
        self.pinning = pinning
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: dict[str, object] = {}
        self.python_env: dict = {}
        self._count = 0

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is listed by ``what``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def child(self, args: list[str]) -> Child:
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout < 1.0:
            raise BenchError("out of time before starting a child")
        self._count += 1
        out_path = os.path.join(self.work, f"child{self._count}.out")
        err_path = os.path.join(self.work, f"child{self._count}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root,
                                    preexec_fn=_cap_address_space)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS, not the cumulative
                # RUSAGE_CHILDREN figure.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     stdout, stderr)

    def cli(self, argv: list[str], what: str) -> Child:
        res = self.child(["-m", "biphoton.cli", *argv])
        self.op(res.rc == 0, f"{what}: exit {res.rc} {res.last_error()}")
        return res

    def helper(self, mode: str, what: str, **args) -> tuple[Child, dict]:
        res = self.child([CHILD, mode, json.dumps(args)])
        result = {}
        if res.rc == 0:
            result = json.loads(res.stdout.strip().splitlines()[-1])
        self.op(res.rc == 0, f"{what}: exit {res.rc} {res.last_error()}")
        self.python_env = result.get("env", self.python_env)
        return res, result

    def checks(self, mode: str, what: str, **args) -> dict:
        """Run a check child; count each of its checks as one operation."""
        _, result = self.helper(mode, what, **args)
        for name, ok in result.get("checks", {}).items():
            self.op(ok, f"{what}: {name}")
        self.known_defects.update(result.get("known_defects", {}))
        return result

    def same(self, digests: list[dict], what: str) -> None:
        """Artifacts of repeated units with one seed are identical."""
        for d in digests[1:]:
            self.op(d == digests[0] and None not in d.values(),
                    f"{what}: artifacts differ between runs of one seed")


def _scan_points(r: Runner, stdout: str, what: str) -> None:
    """One operation per scan point; a missing or errored point fails."""
    lines = [l for l in stdout.splitlines() if l.startswith("z = ")]
    for i in range(len(common.SCAN_Z)):
        r.op(i < len(lines) and "ERROR" not in lines[i], f"{what} point {i}")


def _unit(r: Runner, workload: str, seed: int, out: str) -> dict:
    """One CLI unit; returns its wall time, step times, RSS and digests."""
    if workload == "scan-z":
        res = r.cli(common.scan_argv(out), "scan z")
        _scan_points(r, res.stdout, "scan")
        return {"wall": res.wall, "rss": res.rss_mb,
                "digests": {"scan_z.csv": common.digest(f"{out}/scan_z.csv")}}
    synth = r.cli(common.synth_argv(out, seed), "frames synth")
    coin = r.cli(common.coincide_argv(out), "frames coincide")
    return {"wall": synth.wall + coin.wall, "synth": synth.wall,
            "coincide": coin.wall, "rss": max(synth.rss_mb, coin.rss_mb),
            "digests": {f: common.digest(f"{out}/{f}") for f in
                        ("frames.bpfs", "coincidence_xx.grd",
                         "coincidence_xx.csv")}}


def _check(r: Runner, workload: str, seed: int, out: str) -> dict:
    if workload == "scan-z":
        return r.checks("check-scan", "check scan", seed=seed,
                        csv=f"{out}/scan_z.csv")
    if workload == "camera":
        return r.checks("check-camera", "check camera", seed=seed, out=out)
    return r.checks("check-conditional", "check conditional", seed=seed,
                    npy=f"{out}/conditional.npy")


def measure(r: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: warm-up, set-up time, timed units, checks."""
    out = os.path.join(r.work, "out")
    os.makedirs(out)
    setup = []

    def setup_runs():
        for _ in range(SETUP_REPEATS):
            res, _ = r.helper("setup", "setup", workload=workload, seed=seed)
            setup.append(res.wall)

    if workload == "conditional-fine":
        setup_runs()
        res, result = r.helper("conditional", "conditional", seed=seed,
                               seconds=seconds,
                               out=f"{out}/conditional.npy")
        for name, ok in result.get("checks", {}).items():
            r.op(ok, f"conditional output: {name}")
        walls = result.get("times", [])
        r.same([{"values": d} for d in result.get("digests", [])],
               "conditional")
        rss = [res.rss_mb]
        samples = {"wall": walls}
    else:
        _unit(r, workload, seed, out)  # untimed warm-up
        setup_runs()
        units = []
        t0 = time.perf_counter()
        while not units or time.perf_counter() - t0 < seconds:
            units.append(_unit(r, workload, seed, out))
        r.same([u["digests"] for u in units], workload)
        walls = [u["wall"] for u in units]
        rss = [u["rss"] for u in units]
        samples = {k: [u[k] for u in units]
                   for k in ("wall", "synth", "coincide") if k in units[0]}
    checks = _check(r, workload, seed, out)
    if not walls or not setup:
        raise BenchError("no unit completed")
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": max(rss)}
    return metrics, {"samples": samples, "setup_s": setup, "rss_mb": rss,
                     "checks": checks}


def fit_probe(r: Runner) -> tuple[int, list[dict]]:
    """``biphoton ef`` at the probe sizes under the cap; untimed."""
    out = os.path.join(r.work, "fit")
    record = []
    for n in PROBE_N:
        res = r.child(["-m", "biphoton.cli", "--out", out, "--n", str(n), "ef"])
        record.append({"n": n, "rc": res.rc, "wall_s": res.wall,
                       "peak_rss_mb": res.rss_mb, "error": res.last_error()})
        if res.rc == 0:
            return n, record
        # A failure under the cap is the probe's finding, not a failed
        # operation; it is reported with its exit code and error.
        r.known_defects[f"ef_n{n}_does_not_fit"] = (
            f"exit {res.rc}: {res.last_error()}")
    r.op(False, "fit probe: no probed n completes")
    return 0, record


def _layer(layers: dict, name: str, key: str = "self_s") -> float:
    return layers.get(name, {}).get(key, 0)


def trace(r: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    """Traced run: one unit untraced then traced in process, plus the probe."""
    out = os.path.join(r.work, "trace")
    spans_path = os.path.join(r.out_root, f"spans-{workload}-seed{seed}.json")
    _, result = r.helper("trace", "trace", workload=workload, seed=seed,
                         out=out, spans=spans_path)
    if not result:
        raise BenchError("traced run failed")
    untraced, traced = result["untraced"], result["traced"]
    for name, unit in (("untraced", untraced), ("traced", traced)):
        r.op(unit["rc"] == 0, f"{name} unit: exit {unit['rc']}")
    r.same([untraced["digests"], traced["digests"]], f"{workload} traced")
    if workload == "scan-z":
        _scan_points(r, traced["stdout"], "traced scan")
    checks = _check(r, workload, seed, os.path.join(out, "traced"))
    max_n, probe = fit_probe(r)

    L = result["layers"]
    steps = untraced["steps"]
    metrics = {
        "dispersion.delta_kz.self_s": _layer(L, "dispersion.delta_kz"),
        "dispersion.delta_kz.elems": _layer(L, "dispersion.delta_kz", "elems"),
        "phasematch.phi_of_mismatch.self_s":
            _layer(L, "phasematch.phi_of_mismatch"),
        "phasematch.phi_of_mismatch.elems":
            _layer(L, "phasematch.phi_of_mismatch", "elems"),
        "phasematch.pump_envelope.self_s":
            _layer(L, "phasematch.pump_envelope"),
        "phasematch.momentum_amplitude.self_s":
            _layer(L, "phasematch.momentum_amplitude"),
        "phasematch.momentum_amplitude.calls":
            _layer(L, "phasematch.momentum_amplitude", "calls"),
        "fields.build_amplitude.self_s": _layer(L, "fields.build_amplitude"),
        "fields.propagate.self_s": _layer(L, "fields.propagate"),
        "fields.to_position.self_s": _layer(L, "fields.to_position"),
        "fields.to_position.bytes_computed":
            _layer(L, "fields.to_position", "bytes"),
        "fields.fft_axis_passes":
            result["counters"].get("fields.fft_axis_passes", 0),
        "fields.pdf.self_s": _layer(L, "fields.pdf"),
        "fields.reduce.self_s": _layer(L, "fields.reduce"),
        "fields.conditional_position_direct.self_s":
            _layer(L, "fields.conditional_position_direct"),
        "fields.peak_alloc_mb": max(
            [v["peak_bytes"] for k, v in L.items() if k.startswith("fields.")]
            or [0]) / 2**20,
        "fields.max_n_fit": max_n,
        "entanglement.build_discrete_joints.self_s":
            _layer(L, "entanglement.build_discrete_joints"),
        "entanglement.ef_min.self_s": _layer(L, "entanglement.ef_min"),
        "entanglement.points_ok": _layer(L, "entanglement.scan", "points_ok"),
        "entanglement.points_failed":
            _layer(L, "entanglement.scan", "points_failed"),
        "evals_per_s": (len(common.SCAN_Z) / steps["scan"]
                        if "scan" in steps else 0),
        "coincidence.alias_build.self_s":
            _layer(L, "coincidence.alias_build"),
        "coincidence.alias_sample.self_s":
            _layer(L, "coincidence.alias_sample"),
        "coincidence.synth_frames.self_s":
            _layer(L, "coincidence.synth_frames"),
        "coincidence.pairs_sampled":
            _layer(L, "coincidence.alias_sample", "pairs"),
        "coincidence.save_frames.s":
            _layer(L, "coincidence.save_frames", "total_s"),
        "coincidence.save_frames.bytes":
            _layer(L, "coincidence.save_frames", "bytes"),
        "coincidence.load_frames.s":
            _layer(L, "coincidence.load_frames", "total_s"),
        "coincidence.load_frames.bytes":
            _layer(L, "coincidence.load_frames", "bytes"),
        "coincidence.coincidence_map.self_s":
            _layer(L, "coincidence.coincidence_map"),
        "coincidence.fingerprint_mismatch": int(bool(r.known_defects.get(
            "grd_fingerprint_differs_from_stack"))),
        "synth_s": steps.get("synth", 0),
        "coincide_s": steps.get("coincide", 0),
        "writers.write.self_s": _layer(L, "writers.write"),
        "writers.bytes": _layer(L, "writers.write", "bytes"),
        "cli.import_s": result["import_s"],
        "config.parse_config.s": _layer(L, "config.parse_config", "total_s"),
        "trace.overhead_s": (sum(traced["steps"].values())
                             - sum(untraced["steps"].values())),
    }
    return metrics, {"layers": L, "counters": result["counters"],
                     "untraced_steps": steps, "traced_steps": traced["steps"],
                     "fit_probe": probe, "checks": checks,
                     "spans_file": os.path.relpath(spans_path, r.root)}


def _source_sha256(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "biphoton")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".sellmeier")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                h.update(common.digest(path).encode())
    return h.hexdigest()


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def main(argv=None) -> int:
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"perfbench: {exc}; run from the repository root",
              file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(root, "src", "biphoton", "cli.py")):
        print("perfbench: src/biphoton not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_root = os.path.join(root, ".perfbench")
    work = os.path.join(out_root, f"work-{os.getpid()}")
    os.makedirs(work)
    r = Runner(root, out_root, work)
    try:
        if args.trace:
            values, details = trace(r, args.workload, args.seed)
        else:
            values, details = measure(r, args.workload, args.seed,
                                      args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"perfbench: metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = {"workload": args.workload, "why": why[args.workload],
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "cpus_allowed": int(r.threads),
           **r.python_env, "thread_pinning": r.pinning,
           "address_space_cap_bytes": CAP_BYTES,
           "git_sha": _git_sha(root), "source_sha256": _source_sha256(root)}
    report = {"env": env, "metrics": metrics, "failures": r.failures,
              "known_defects": r.known_defects, **details}
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(out_root, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"env": env}))
    for key, value in r.known_defects.items():
        if value:
            print(f"known defect: {key}" + ("" if value is True
                                            else f": {value}"))
    for failure in r.failures:
        print(f"FAILED: {failure}")
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not r.failures, "attempted": r.attempted,
                      "failed": len(r.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
