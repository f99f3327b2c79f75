#!/usr/bin/env python3
"""SHA-256 digests of the artifacts the ``biphoton`` CLI writes.

    python3 tools/artifact_digests.py [--src DIR] > digests.txt

Runs ``ef``, ``scan z`` (0, 5, 10 mm), ``simulate pos``, ``simulate mom``,
``singles``, ``conditional``, ``phasematch-map``, ``frames synth`` (500
frames, seed 3) and ``frames coincide`` in process, at n = 16, 32 and 64,
for the default single crystal, the 1 mm + 4 mm double crystal, and a
single crystal set by every flag that names a config key, each at a value
other than its default; and at n = 16 and 32 for the double crystal on a
wide momentum extent, ``grid.c2`` = 3.3 from a config file, where the
pump-envelope band is one and three anti-diagonals wide and the rank is
122 and 128.  It also runs ``frames synth`` and ``frames coincide`` alone
on stacks of nine frame blocks (12 000 frames at n = 16, 4000 at n = 32,
seed 5), so the check crosses block edges, and on a 256 x 256 ROI set
from a config file (14 frames at n = 16, seed 5), whose 65 536 cells a
plane do not fit uint16 pixels.  Each configuration writes into its own
directory.  Prints one ``sha256  path`` line per artifact, the path
relative to the output directory, in sorted order.  Then it prints the
line ``collinear-angle`` writes for each configuration, after its name.
Then it runs commands that must fail, ``ef`` and ``conditional`` on a
truncated extent, ``ef``, ``conditional`` and ``frames synth`` under a
1024-byte memory budget, and ``frames synth`` of 100 000 frames at n = 16
under a 10^6-byte budget, which admits the factors but not the frame
store, and prints one ``exit <code>`` line for each with the last line it
wrote to stderr.  A claim that two trees write the same
bytes and refuse the same runs is a ``diff`` of two runs, one with
``--src`` set to the other tree's ``src`` directory.

``--src`` is the directory ``biphoton`` is imported from (default: the
``src`` beside this script).  The tool pins OpenBLAS to one thread
(``OPENBLAS_NUM_THREADS=1``) before numpy loads, since some digests move
with the thread count: the listing then depends on neither the machine
nor the caller's environment.  The artifacts and config files go to a
temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

CONFIGS = {
    "single": [],
    "double": ["--double", "--L", "1mm", "--d", "4mm"],
    "flags": ["--single", "--wavelength", "354nm", "--waist", "480um",
              "--theta-p", "33.0deg", "--L", "4mm", "--z", "6mm", "--m", "8",
              "--mu-pairs", "3"],
}
SIZES = (16, 32, 64)
COMMANDS = (
    ["ef"],
    ["scan", "z", "--values", "0mm,5mm,10mm"],
    ["simulate", "pos"],
    ["simulate", "mom"],
    ["singles"],
    ["conditional"],
    ["phasematch-map"],
)
#: (name, config, flags, sizes) of the configuration set by a config file:
#: a narrow envelope band and a large rank.
WIDE = ("double-wide", {"grid": {"c2": 3.3}}, CONFIGS["double"], (16, 32))
FRAMES = ["--frames", "500", "--seed", "3"]
#: n -> frames of a stack of nine 1 MiB blocks at the default ROI (1337
#: frames a block at n = 16, 455 at n = 32; the last block is partial).
LONG_FRAMES = {16: 12_000, 32: 4000}
#: (name, config, flags) of the stack on a 256 x 256 ROI: four frames a
#: 1 MiB block, the last block partial.
WIDE_ROI = ("roi-256", {"coincidence": {"roi": [256, 256]}},
            ["--n", "16", "--frames", "14", "--seed", "5"])
#: (name, config, command) of the runs that must fail.
TRUNCATED = {"grid": {"n": 16, "c1": 0.2, "c2": 0.05}}
BUDGET = {"grid": {"memory_budget": 1024}}
STORE = {"grid": {"n": 16, "memory_budget": 10**6}}
REFUSALS = (
    ("truncated", TRUNCATED, ["ef"]),
    ("truncated", TRUNCATED, ["conditional"]),
    ("budget", BUDGET, ["ef"]),
    ("budget", BUDGET, ["conditional"]),
    ("budget", BUDGET, ["frames", "synth"]),
    ("store", STORE, ["--frames", "100000", "frames", "synth"]),
)


def run(main, argvs) -> list[str]:
    """Run each argv through ``main``; exit unless every one succeeds.
    Returns what each printed."""
    printed = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"biphoton {' '.join(argv)} exited {code}")
        printed.append(out.getvalue())
    return printed


def frames_runs(where: str, common: list[str]) -> list[list[str]]:
    """``frames synth`` then ``frames coincide`` on its stack."""
    return [common + ["frames", "synth"],
            common + ["frames", "coincide", "--stack",
                      os.path.join(where, "frames.bpfs")]]


def write_config(where: str, name: str, data: dict) -> str:
    """Write ``data`` to the config file ``name``.json in ``where``;
    returns its path."""
    path = os.path.join(where, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def write_artifacts(main, out: str, config_dir: str) -> list[str]:
    """Run every command of every configuration into ``out``, with the
    config files of ``WIDE`` and ``WIDE_ROI`` written to ``config_dir``.
    Returns the ``collinear-angle`` line of each configuration."""
    name, data, flags, sizes = WIDE
    config = write_config(config_dir, name, data)
    configs = [(name, flags, SIZES) for name, flags in CONFIGS.items()]
    configs.append((name, ["--config", config] + flags, sizes))
    angles = []
    for name, flags, sizes in configs:
        printed = run(main, [flags + ["collinear-angle"]])[0]
        angles.append(f"collinear-angle {name}: {printed.strip()}")
        for n in sizes:
            where = os.path.join(out, f"{name}-n{n}")
            common = ["--out", where, "--n", str(n)] + flags + FRAMES
            run(main, [common + command for command in COMMANDS]
                + frames_runs(where, common))
    for n, frames in LONG_FRAMES.items():
        where = os.path.join(out, f"long-n{n}")
        run(main, frames_runs(where, ["--out", where, "--n", str(n),
                                      "--frames", str(frames), "--seed", "5"]))
    name, data, flags = WIDE_ROI
    where = os.path.join(out, name)
    config = write_config(config_dir, name, data)
    run(main, frames_runs(where, ["--config", config, "--out", where] + flags))
    return angles


def refusals(main, out: str) -> list[str]:
    """``exit <code>`` and the last stderr line of each of ``REFUSALS``,
    run with ``out`` as the output directory; exit if one succeeds."""
    os.makedirs(out)
    lines = []
    for name, data, command in REFUSALS:
        config = write_config(out, name, data)
        argv = ["--config", config, "--out", out] + command
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            raise SystemExit(f"biphoton {' '.join(argv)} succeeded")
        last = (err.getvalue().splitlines() or [""])[-1]
        lines.append(f"exit {code}  {name} {' '.join(command)}: {last}")
    return lines


def digests(out: str) -> list[str]:
    """``sha256  path`` for every file under ``out``, sorted by path."""
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out), digest))
    return [f"{digest}  {path}" for path, digest in sorted(lines)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"),
                        help="directory to import biphoton from")
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from biphoton.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        out = os.path.join(tmp, "artifacts")
        angles = write_artifacts(cli_main, out, tmp)
        for line in digests(out) + angles:
            print(line)
        for line in refusals(cli_main, os.path.join(tmp, "refusals")):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
