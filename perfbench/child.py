"""Child-process side of the benchmark.

``python3 perfbench/child.py <mode> '<json args>'`` runs one mode and prints
one JSON object as its last line of standard output.  The driver (run.py)
starts every child under an address-space cap.  Modes:

- ``setup``: import biphoton.cli, parse the workload's config, create its
  grid and phase-matching context.  The driver times the whole process.
- ``conditional``: call ``fields.conditional_position_direct`` once untimed,
  then repeatedly for the given number of seconds; time each call and
  check each output.
- ``check-scan``, ``check-camera``, ``check-conditional``: check a
  workload's artifacts against references computed here through the public
  4D path.
- ``trace``: run one unit of a workload in process untraced as a warm-up,
  then once untraced and once traced, and write the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import common


def _config(workload: str, seed: int):
    from biphoton.config import parse_config
    return parse_config(None, common.config_overrides(workload, seed))


def _grid(cfg):
    from biphoton import fields
    return fields.MomentumGrid4.auto(cfg.pump, cfg.setup, n=cfg.grid.n,
                                     c1=cfg.grid.c1, c2=cfg.grid.c2)


def mode_setup(a: dict) -> dict:
    import biphoton.cli  # noqa: F401
    from biphoton import dispersion
    cfg = _config(a["workload"], a["seed"])
    grid = _grid(cfg)
    dispersion.make_context(cfg.setup.theta_p, cfg.pump.wavelength)
    return {"n": grid.n}


def _conditional_checks(dist) -> dict:
    import numpy as np
    v = dist.values
    total = float(v.sum() * dist.bin_volume)
    return {"finite": bool(np.all(np.isfinite(v))),
            "non_negative": bool(np.all(v >= 0)),
            "normalized": abs(total - 1.0) <= 1e-9}


def _conditional_call(cfg, grid):
    from biphoton import fields
    return fields.conditional_position_direct(cfg.pump, cfg.setup, cfg.z, grid)


def mode_conditional(a: dict) -> dict:
    import numpy as np
    cfg = _config("conditional-fine", a["seed"])
    grid = _grid(cfg)
    _conditional_call(cfg, grid)  # untimed warm-up
    times, digests, checks = [], [], {}
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 < a["seconds"]:
        t = time.perf_counter()
        dist = _conditional_call(cfg, grid)
        times.append(time.perf_counter() - t)
        digests.append(hashlib.sha256(dist.values.tobytes()).hexdigest())
        for key, ok in _conditional_checks(dist).items():
            checks[key] = checks.get(key, True) and ok
    np.save(a["out"], dist.values)
    return {"times": times, "digests": digests, "checks": checks}


def _env() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _joint(dist2, basis):
    from biphoton.entanglement import DiscreteJoint
    values = dist2.values * dist2.bin_volume
    return DiscreteJoint(values=values / values.sum(), basis=basis,
                         delta=dist2.deltas[0])


def mode_check_scan(a: dict) -> dict:
    """Every scan point against ef_min computed through the public 4D path."""
    from biphoton import entanglement, fields
    from biphoton.config import parse_quantity
    cfg = _config("scan-z", a["seed"])
    grid = _grid(cfg)
    amp = fields.build_amplitude(grid, cfg.pump, cfg.setup)
    mom = _joint(fields.averaged_joint_x(fields.momentum_pdf(amp)), "momentum")
    with open(a["csv"], encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    zs = [parse_quantity(v, "length") for v in common.SCAN_Z]
    ok = len(rows) == len(zs)
    worst = 0.0
    for z, row in zip(zs, rows):
        pos4 = fields.position_pdf(fields.to_position(fields.propagate(amp, z)))
        pos = _joint(fields.averaged_joint_x(pos4), "position")
        ref = entanglement.ef_min(pos, mom).ef_min
        err = abs(float(row[1]) - ref)
        worst = max(worst, err)
        ok = ok and float(row[0]) == z and err <= 1e-9
    return {"checks": {"ef_min_matches_4d_path": ok},
            "detail": {"rows": len(rows), "max_abs_err_ebits": worst},
            "env": _env()}


def _read_header(path: str) -> tuple[dict, int]:
    """JSON header line of a GRD or frame-stack file, and its length."""
    with open(path, "rb") as fh:
        line = fh.readline()
    return json.loads(line.decode("utf-8")), len(line)


def mode_check_camera(a: dict) -> dict:
    """Stack header, coincidence-map Pearson and GRD header checks."""
    import numpy as np
    from biphoton import fields
    from biphoton.writers import read_grd
    cfg = _config("camera", a["seed"])
    grid = _grid(cfg)
    out = a["out"]
    stack, header_len = _read_header(common.stack_path(out))
    det = stack["detector"]
    ny, nx = det["roi"]
    pitch = det["pitch"]
    want = cfg.coincidence
    half = grid.x_axis.max() + grid.dx
    header_ok = (stack["n_frames"] == common.CAMERA_FRAMES
                 and stack["seed"] == a["seed"]
                 and pitch == want.pitch
                 and det["quantum_efficiency"] == want.quantum_efficiency
                 and det["dark_rate"] == want.dark_rate
                 and min(nx, ny) // 2 * pitch >= half
                 and os.path.getsize(common.stack_path(out))
                 == header_len + stack["n_frames"] * 2 * ny * nx * 2)

    # Criterion 9's test: Pearson >= 0.9 against the pixel-binned averaged
    # joint over the region holding 95% of its mass.
    cmap, grd = read_grd(os.path.join(out, "coincidence_xx.grd"))
    dist4 = fields.Pipeline(cfg.pump, cfg.setup, grid).position_distribution(cfg.z)
    joint = fields.averaged_joint_x(dist4)
    px = np.floor(grid.x_axis / pitch).astype(int) + nx // 2
    ref = np.zeros((nx, nx))
    np.add.at(ref, (px[:, None], px[None, :]),
              joint.values * joint.deltas[0] * joint.deltas[1])
    order = np.argsort(ref.ravel())[::-1]
    cum = np.cumsum(ref.ravel()[order])
    region = order[: int(np.searchsorted(cum, 0.95)) + 1]
    pearson = float(np.corrcoef(cmap.ravel()[region], ref.ravel()[region])[0, 1])

    return {"checks": {"stack_header": header_ok,
                       "pearson_ge_0.9": pearson >= 0.9,
                       "grd_pitch": grd["deltas"] == [pitch, pitch],
                       "grd_n_frames": grd.get("n_frames") == stack["n_frames"]},
            # Known defect: coincide writes its own config fingerprint, not
            # the stack's.  Recorded, not counted as a failed operation.
            "known_defects": {"grd_fingerprint_differs_from_stack":
                              grd["fingerprint"] != stack["fingerprint"]},
            "detail": {"pearson": pearson, "region_px": int(region.size),
                       "stack_fingerprint": stack["fingerprint"],
                       "grd_fingerprint": grd["fingerprint"]},
            "env": _env()}


def mode_check_conditional(a: dict) -> dict:
    """The direct conditional against conditional_position of the 4D path."""
    import numpy as np
    from biphoton import fields
    cfg = _config("conditional-fine", a["seed"])
    grid = _grid(cfg)
    direct = np.load(a["npy"])
    amp = fields.propagate(fields.build_amplitude(grid, cfg.pump, cfg.setup,
                                                  boundary_tol=None), cfg.z)
    via_4d = fields.conditional_position(
        fields.position_pdf(fields.to_position(amp)))
    err = float(np.abs(via_4d.values - direct).max() / direct.max())
    return {"checks": {"matches_4d_path": err <= 1e-9},
            "detail": {"max_rel_err": err}, "env": _env()}


def _unit(workload: str, seed: int, out: str) -> dict:
    """One unit of the workload in process; returns step times, digests."""
    import numpy as np
    from biphoton import cli
    os.makedirs(out, exist_ok=True)
    steps = {}
    stdout = io.StringIO()
    if workload == "conditional-fine":
        cfg = _config(workload, seed)
        t = time.perf_counter()
        dist = _conditional_call(cfg, _grid(cfg))
        steps["conditional"] = time.perf_counter() - t
        path = os.path.join(out, "conditional.npy")
        np.save(path, dist.values)
        return {"steps": steps, "rc": 0,
                "digests": {"conditional": hashlib.sha256(
                    dist.values.tobytes()).hexdigest()}}
    if workload == "scan-z":
        argvs = {"scan": common.scan_argv(out)}
        files = ["scan_z.csv"]
    else:
        argvs = {"synth": common.synth_argv(out, seed),
                 "coincide": common.coincide_argv(out)}
        files = ["frames.bpfs", "coincidence_xx.grd", "coincidence_xx.csv"]
    rc = 0
    for step, argv in argvs.items():
        t = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            rc = rc or cli.main(argv)
        steps[step] = time.perf_counter() - t
    return {"steps": steps, "rc": rc, "stdout": stdout.getvalue(),
            "digests": {f: common.digest(os.path.join(out, f)) for f in files}}


def mode_trace(a: dict) -> dict:
    t = time.perf_counter()
    import biphoton.cli  # noqa: F401
    import_s = time.perf_counter() - t
    import tracemalloc
    import spans
    workload, seed = a["workload"], a["seed"]
    _unit(workload, seed, os.path.join(a["out"], "warmup"))
    untraced = _unit(workload, seed, os.path.join(a["out"], "untraced"))
    rec = spans.Recorder(run_id=f"{workload}-{seed}")
    spans.install(rec)
    tracemalloc.start()
    try:
        traced = _unit(workload, seed, os.path.join(a["out"], "traced"))
    finally:
        tracemalloc.stop()
    rec.dump(a["spans"])
    return {"import_s": import_s, "untraced": untraced, "traced": traced,
            "layers": spans.summarize(rec.spans), "counters": rec.counters,
            "env": _env()}


MODES = {
    "setup": mode_setup,
    "conditional": mode_conditional,
    "check-scan": mode_check_scan,
    "check-camera": mode_check_camera,
    "check-conditional": mode_check_conditional,
    "trace": mode_trace,
}


def main() -> int:
    result = MODES[sys.argv[1]](json.loads(sys.argv[2]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
