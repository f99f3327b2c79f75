"""Workload definitions shared by the benchmark driver and its child processes.

Standard library only: the driver imports this module without numpy.
"""

from __future__ import annotations

import hashlib
import os

# Grid sizes.  One run of the driver has to fit about 45 s of wall time
# (70 runs of all three workloads share a one-hour budget), so the scan and
# the camera run at n = 32 and the direct conditional at n = 64.
SCAN_N = 32
CAMERA_N = 32
COND_N = 64

#: z values of the acceptance z-scan (0, 2.5, ..., 35 mm).
SCAN_Z = [f"{2.5 * k:g}mm" for k in range(15)]

CAMERA_Z = "5mm"
CAMERA_FRAMES = 50_000

#: Double-crystal working point of the direct conditional.
COND_CRYSTAL = {"kind": "double", "length": "1mm", "gap": "4mm",
                "theta_p": "32.93deg"}
COND_Z = "7.5mm"


def config_overrides(workload: str, seed: int) -> dict:
    """Config keys of the workload, in the form ``parse_config`` takes."""
    if workload == "scan-z":
        return {"grid": {"n": SCAN_N}}
    if workload == "camera":
        return {"grid": {"n": CAMERA_N}, "z": CAMERA_Z,
                "coincidence": {"n_frames": CAMERA_FRAMES, "seed": seed}}
    if workload == "conditional-fine":
        return {"grid": {"n": COND_N}, "z": COND_Z,
                "crystal": dict(COND_CRYSTAL)}
    raise ValueError(f"unknown workload {workload!r}")


def scan_argv(out: str) -> list[str]:
    return ["--n", str(SCAN_N), "--out", out, "scan", "z",
            "--values", ",".join(SCAN_Z)]


def synth_argv(out: str, seed: int) -> list[str]:
    # Global flags go before the subcommand: the parser rejects them after it.
    return ["--n", str(CAMERA_N), "--z", CAMERA_Z,
            "--frames", str(CAMERA_FRAMES), "--seed", str(seed),
            "--out", out, "frames", "synth"]


def coincide_argv(out: str) -> list[str]:
    # Only the stack: coincide gets none of synth's flags.
    return ["--out", out, "frames", "coincide",
            "--stack", stack_path(out)]


def stack_path(out: str) -> str:
    return f"{out}/frames.bpfs"


def digest(path: str) -> str | None:
    """sha256 of a file, or None when it does not exist."""
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
