#!/usr/bin/env python3
"""SHA-256 digests of the artifacts the ``biphoton`` CLI writes.

    python3 tools/artifact_digests.py [--src DIR] > digests.txt

Runs ``ef``, ``scan z`` (0, 5, 10 mm), ``simulate pos``, ``simulate mom``,
``singles``, ``conditional``, ``frames synth`` (500 frames, seed 3) and
``frames coincide`` in process, at n = 16, 32 and 64, for the default
single crystal, the 1 mm + 4 mm double crystal, and a single crystal set
by every flag that names a config key, each at a value other than its
default.  It also runs ``frames synth`` and ``frames coincide`` alone on
stacks of three frame blocks (12 000 frames at n = 16, 4000 at n = 32,
seed 5), so the check crosses block edges.  Each configuration writes
into its own directory.  Prints one
``sha256  path`` line per artifact, the path relative to the output
directory, in sorted order: a claim that two trees write the same bytes
is a ``diff`` of two runs, one with ``--src`` set to the other tree's
``src`` directory.

``--src`` is the directory ``biphoton`` is imported from (default: the
``src`` beside this script).  The artifacts go to a temporary directory
that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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
)
FRAMES = ["--frames", "500", "--seed", "3"]
#: n -> frames of a stack of three 4 MiB blocks at the default ROI (5349
#: frames a block at n = 16, 1820 at n = 32).
LONG_FRAMES = {16: 12_000, 32: 4000}


def run(main, argvs) -> None:
    """Run each argv through ``main``; exit unless every one succeeds."""
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"biphoton {' '.join(argv)} exited {code}")


def frames_runs(where: str, common: list[str]) -> list[list[str]]:
    """``frames synth`` then ``frames coincide`` on its stack."""
    return [common + ["frames", "synth"],
            common + ["frames", "coincide", "--stack",
                      os.path.join(where, "frames.bpfs")]]


def write_artifacts(main, out: str) -> None:
    """Run every command of every configuration into ``out``."""
    for name, flags in CONFIGS.items():
        for n in SIZES:
            where = os.path.join(out, f"{name}-n{n}")
            common = ["--out", where, "--n", str(n)] + flags + FRAMES
            run(main, [common + command for command in COMMANDS]
                + frames_runs(where, common))
    for n, frames in LONG_FRAMES.items():
        where = os.path.join(out, f"long-n{n}")
        run(main, frames_runs(where, ["--out", where, "--n", str(n),
                                      "--frames", str(frames), "--seed", "5"]))


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
    sys.path.insert(0, os.path.abspath(args.src))
    from biphoton.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as out:
        write_artifacts(cli_main, out)
        for line in digests(out):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
