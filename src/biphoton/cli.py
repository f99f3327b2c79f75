"""Command-line interface: parse configuration, orchestrate the simulation
modules, and write grids/tables/previews.

Exit codes: 0 success, 2 configuration error, 3 computation error,
4 I/O error.  The BIPHOTON_OUTDIR environment variable sets the default
output directory; --out overrides it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import coincidence as coin
from . import dispersion, entanglement, fields, writers
from .config import ConfigError, RunConfig, parse_config, parse_quantity
from .dispersion import DispersionError
from .phasematch import ConfigurationError, phi_of_mismatch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Simulate structured position-momentum-entangled "
                    "two-photon fields from type-I SPDC.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: "
                                      "$BIPHOTON_OUTDIR or '.')")
    # Each option below but --single, --double and --z sets the config key
    # its dest names, "section.key".
    parser.add_argument("--wavelength", dest="pump.wavelength",
                        help="pump wavelength, e.g. 355nm")
    parser.add_argument("--waist", dest="pump.waist",
                        help="pump beam waist, e.g. 507um")
    parser.add_argument("--theta-p", dest="crystal.theta_p",
                        help="phase-matching angle, e.g. 32.9deg")
    parser.add_argument("--L", dest="crystal.length",
                        help="crystal length, e.g. 5mm")
    parser.add_argument("--single", action="store_true",
                        help="single-crystal source")
    parser.add_argument("--double", action="store_true",
                        help="double-crystal source")
    parser.add_argument("--d", dest="crystal.gap",
                        help="double-crystal gap, e.g. 2mm")
    parser.add_argument("--z", help="propagation distance, e.g. 5mm")
    parser.add_argument("--n", dest="grid.n", type=int,
                        help="grid points per axis (power of two)")
    parser.add_argument("--m", dest="entanglement.m", type=int,
                        help="entropy bins per party")
    parser.add_argument("--seed", dest="coincidence.seed", type=int,
                        help="frame-synthesis RNG seed")
    parser.add_argument("--frames", dest="coincidence.n_frames", type=int,
                        help="number of synthetic frames")
    parser.add_argument("--mu-pairs", dest="coincidence.mu_pairs", type=float,
                        help="mean photon pairs per frame")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("collinear-angle",
                   help="print the collinear phase-matching angle")
    sub.add_parser("phasematch-map",
                   help="phase mismatch and |Phi| over the q_i = -q_s slice")
    p_sim = sub.add_parser("simulate", help="averaged joint distributions")
    p_sim.add_argument("basis", choices=["pos", "mom"])
    sub.add_parser("conditional",
                   help="signal distribution conditioned on idler at origin")
    sub.add_parser("singles", help="one-photon (signal) image")
    sub.add_parser("ef", help="entanglement-of-formation lower bound")
    p_scan = sub.add_parser("scan", help="ef_min parameter scan")
    p_scan.add_argument("parameter", choices=_SCAN)
    p_scan.add_argument("--values", required=True,
                        help="comma-separated values, e.g. 2mm,4mm,6mm")
    p_frames = sub.add_parser("frames", help="synthetic camera pipeline")
    p_frames.add_argument("action", choices=["synth", "coincide"])
    p_frames.add_argument("--stack", help="frame-stack file "
                                          "(output of synth, input of coincide)")
    return parser


def _overrides_from_args(args) -> dict:
    over: dict = {}
    for path, value in vars(args).items():
        if "." in path and value is not None:
            section, key = path.split(".")
            over.setdefault(section, {})[key] = value
    if args.single and args.double:
        raise ConfigError("--single and --double are mutually exclusive")
    if args.single or args.double:
        over.setdefault("crystal", {})["kind"] = ("single" if args.single
                                                  else "double")
    if args.z is not None:
        over["z"] = args.z
    outdir = args.out or os.environ.get("BIPHOTON_OUTDIR")
    if outdir:
        over.setdefault("output", {})["dir"] = outdir
    return over


def _pipeline(cfg: RunConfig) -> fields.Pipeline:
    grid = fields.MomentumGrid4.auto(cfg.pump, cfg.setup, n=cfg.grid.n,
                                     c1=cfg.grid.c1, c2=cfg.grid.c2)
    return fields.Pipeline(pump=cfg.pump, setup=cfg.setup, grid=grid,
                           boundary_tol=cfg.grid.boundary_tol,
                           memory_budget=cfg.grid.memory_budget)


def _write_2d(cfg: RunConfig, stem: str, values: np.ndarray, names, deltas,
              units: str, formats=("grd", "csv", "pgm"),
              fingerprint: str | None = None, extra=None) -> None:
    """Write a 2D map in each of ``formats`` (those the artifact allows, in
    this order) that the config asks for, and print each path.  The
    fingerprint defaults to the config's; ``extra`` goes into the GRD
    header."""
    fp = cfg.fingerprint() if fingerprint is None else fingerprint
    os.makedirs(cfg.outdir, exist_ok=True)
    for fmt in (f for f in formats if f in cfg.formats):
        path = os.path.join(cfg.outdir, f"{stem}.{fmt}")
        if fmt == "grd":
            writers.write_grd(values, path, names, deltas, units,
                              fingerprint=fp, extra=extra)
        elif fmt == "csv":
            writers.write_csv(values, path, names, fingerprint=fp)
        else:
            writers.write_pgm(values, path, fingerprint=fp)
        print(f"wrote {path}")


def _auto_roi(pipe: fields.Pipeline, pitch: float) -> tuple[int, int]:
    half = pipe.grid.x_axis.max() + pipe.grid.dx
    n_pix = 2 * (int(math.ceil(half / pitch)) + 1)
    return (n_pix, n_pix)


def _cmd_collinear_angle(cfg: RunConfig, args) -> int:
    theta = dispersion.collinear_angle(cfg.pump.wavelength)
    print(f"collinear phase-matching angle: {math.degrees(theta):.4f} deg "
          f"({theta:.6f} rad)")
    return EXIT_OK


def _cmd_phasematch_map(cfg: RunConfig, args) -> int:
    pipe = _pipeline(cfg)
    ctx = dispersion.make_context(cfg.setup.theta_p, cfg.pump.wavelength)
    q = pipe.grid.q_axis
    qx = q[:, None]
    qy = q[None, :]
    dkz = dispersion.delta_kz(dispersion.TransverseMomentum(qx, qy),
                              dispersion.TransverseMomentum(-qx, -qy), ctx)
    phi_mag = np.abs(phi_of_mismatch(dkz, cfg.setup))
    # Both maps as GRD, |Phi| also as a PGM preview; no CSV.
    deltas = (pipe.grid.dq, pipe.grid.dq)
    _write_2d(cfg, "delta_kz", dkz, ("q_x", "q_y"), deltas, "rad/m", ("grd",))
    _write_2d(cfg, "phi_mag", phi_mag, ("q_x", "q_y"), deltas,
              "dimensionless", ("grd", "pgm"))
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig, args) -> int:
    pipe = _pipeline(cfg)
    if args.basis == "mom":
        dist = fields.averaged_joints_x(pipe, []).momentum
        stem = "joint_mom_av"
    else:
        dist = fields.averaged_joints_x(pipe, [cfg.z]).position[0]
        stem = "joint_pos_av"
    _write_2d(cfg, stem, dist.values, dist.axis_names, dist.deltas, dist.units)
    return EXIT_OK


def _cmd_conditional(cfg: RunConfig, args) -> int:
    pipe = _pipeline(cfg)
    cond = fields._conditional_direct(pipe, fields._guarded_factors(pipe)[0],
                                      cfg.z)
    _write_2d(cfg, "conditional_pos", cond.values, cond.axis_names,
              cond.deltas, cond.units)
    return EXIT_OK


def _cmd_singles(cfg: RunConfig, args) -> int:
    dist = fields.singles_direct(_pipeline(cfg), cfg.z)
    _write_2d(cfg, "singles_pos", dist.values, dist.axis_names, dist.deltas,
              dist.units)
    return EXIT_OK


def _cmd_ef(cfg: RunConfig, args) -> int:
    report = entanglement.ef_min_at(_pipeline(cfg), cfg.z,
                                    m=cfg.entanglement.m,
                                    fingerprint=cfg.fingerprint())
    out = dataclasses.asdict(report)
    out["ef_min_ebits"] = out.pop("ef_min")
    os.makedirs(cfg.outdir, exist_ok=True)
    path = os.path.join(cfg.outdir, "ef_report.json")
    writers._atomic_write(path, json.dumps(out, indent=2, sort_keys=True)
                          .encode("utf-8"))
    print(f"ef_min = {report.ef_min:.4f} ebits (M = {report.m})")
    print(f"wrote {path}")
    return EXIT_OK


#: Scan parameter on the command line -> (name in entanglement.scan, kind).
_SCAN = {"z": ("z", "length"), "theta": ("theta_p", "angle"),
         "d": ("d", "length")}


def _cmd_scan(cfg: RunConfig, args) -> int:
    parameter = args.parameter
    param_name, kind = _SCAN[parameter]
    values = [parse_quantity(tok, kind, f"scan.{parameter}")
              for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise ConfigError("scan requires at least one value")
    points = entanglement.scan(_pipeline(cfg), cfg.z, param_name, values,
                               m=cfg.entanglement.m,
                               fingerprint=cfg.fingerprint())
    good = [(p.value, p.report.ef_min) for p in points if p.report is not None]
    for p in points:
        if p.report is None:
            print(f"{param_name} = {p.value:g}: ERROR {p.error}")
        else:
            print(f"{param_name} = {p.value:g}: ef_min = {p.report.ef_min:.4f}")
    if not good:
        print("scan: every point failed", file=sys.stderr)
        return EXIT_COMPUTE
    os.makedirs(cfg.outdir, exist_ok=True)
    path = os.path.join(cfg.outdir, f"scan_{parameter}.csv")
    writers.write_csv(np.array(good), path, (param_name, "ef_min_ebits"),
                      fingerprint=cfg.fingerprint())
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_frames(cfg: RunConfig, args) -> int:
    os.makedirs(cfg.outdir, exist_ok=True)
    stack_path = args.stack
    if args.action == "synth":
        pipe = _pipeline(cfg)
        roi = cfg.coincidence.roi or _auto_roi(pipe, cfg.coincidence.pitch)
        detector = cfg.coincidence.detector(roi)
        # A too-small ROI fails before the guard and the factor build.
        coin._check_roi(pipe.grid.x_axis, detector)
        source = fields.position_factors(pipe, cfg.z)
        stack = coin.synth_frames(source, detector, cfg.coincidence.mu_pairs,
                                  cfg.coincidence.n_frames,
                                  cfg.coincidence.seed,
                                  fingerprint=cfg.fingerprint(),
                                  memory_budget=pipe.memory_budget)
        # The stack holds no factor table: the save runs without them.
        del source
        path = stack_path or os.path.join(cfg.outdir, "frames.bpfs")
        coin.save_frames(stack, path)
        print(f"wrote {stack.n_frames} frames to {path}")
        return EXIT_OK
    if not stack_path:
        raise ConfigError("frames coincide requires --stack")
    stack = coin.load_frames(stack_path)
    cmap = coin.coincidence_map(stack, reduction="joint_x")
    # The map describes the stack: its pitch and fingerprint, not the
    # config's.  GRD and CSV; no PGM preview of a signed map.
    pitch = stack.detector.pitch
    _write_2d(cfg, "coincidence_xx", cmap.values, ("x_s", "x_i"),
              (pitch, pitch), "counts^2/frame", ("grd", "csv"),
              fingerprint=stack.fingerprint, extra={"n_frames": cmap.n_frames})
    return EXIT_OK


#: Subcommand name -> handler(cfg, parsed args) returning the exit code.
_COMMANDS = {
    "collinear-angle": _cmd_collinear_angle,
    "phasematch-map": _cmd_phasematch_map,
    "simulate": _cmd_simulate,
    "conditional": _cmd_conditional,
    "singles": _cmd_singles,
    "ef": _cmd_ef,
    "scan": _cmd_scan,
    "frames": _cmd_frames,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, _overrides_from_args(args))
        return _COMMANDS[args.command](cfg, args)
    except ConfigurationError as exc:  # ConfigError included
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DispersionError, fields.GridError, fields.DegenerateConditionError,
            entanglement.EntanglementError, coin.DetectorError,
            coin.AccumulatorError, MemoryError) as exc:
        # A budget refusal or a failed allocation, from whichever module.
        label = ("memory" if isinstance(exc, MemoryError)
                 else type(exc).__module__.rsplit(".", 1)[-1])
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (OSError, writers.WriteError) as exc:
        print(f"io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
