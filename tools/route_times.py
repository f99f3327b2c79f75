#!/usr/bin/env python3
"""Median in-process wall times of the rank-R routes at large grids.

    python3 tools/route_times.py [--src DIR]

Times, with ``time.perf_counter`` after a second of untimed calls, each of:

- ``conditional_position_direct`` for the 1 mm + 4 mm double crystal at
  z = 7.5 mm, n = 64, 128 and 256;
- ``amplitude_factors`` followed by ``x()`` and ``y()``, for the default
  single crystal at n = 256 and 512 and the double crystal at n = 256;
- ``amplitude_factors`` alone, for the double crystal at n = 256 and 1024
  and the single crystal at n = 512, with the ``tracemalloc`` peak of one
  more call;
- a 15-point ``averaged_joints_x`` (z = 0, 2.5, ..., 35 mm) for the
  single crystal at n = 256.

Prints one line per case: its name, the median in milliseconds, the
number of timed calls and, where there is one, the traced peak in MB.  An
A/B comparison of two trees is two runs, one with ``--src`` set to the
other tree's ``src`` directory, as for ``tools/artifact_digests.py``.
``--src`` is the directory ``biphoton`` is imported from (default: the
``src`` beside this script).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))

DOUBLE = {"kind": "double", "length": "1mm", "gap": "4mm",
          "theta_p": "32.93deg"}
SCAN_Z = [2.5e-3 * k for k in range(15)]
#: Untimed calls of each case run for this long first: on an idle shared
#: machine the first calls of a fresh process can be many times slower.
WARM_S = 1.0


def median_ms(call, repeats: int) -> float:
    """Median wall time of ``call()`` over ``repeats`` calls, in
    milliseconds, after untimed calls for ``WARM_S`` seconds (at least
    one)."""
    start = time.perf_counter()
    call()
    while time.perf_counter() - start < WARM_S:
        call()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def peak_mb(call) -> float:
    """``tracemalloc`` peak of one ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def cases():
    """(name, call, repeats, traced) of every timed case."""
    from biphoton import fields
    from biphoton.config import parse_config

    def pipeline(n, crystal=None):
        keys = {"grid": {"n": n}}
        if crystal is not None:
            keys["crystal"] = dict(crystal)
        cfg = parse_config(None, keys)
        grid = fields.MomentumGrid4.auto(cfg.pump, cfg.setup, n=n)
        return fields.Pipeline(cfg.pump, cfg.setup, grid)

    def conditional(pipe):
        return lambda: fields.conditional_position_direct(
            pipe.pump, pipe.setup, 7.5e-3, pipe.grid)

    def tables(pipe):
        def call():
            factors = fields.amplitude_factors(pipe)
            factors.x()
            factors.y()
        return call

    for n, repeats in ((64, 41), (128, 21), (256, 9)):
        yield (f"conditional_position_direct double n={n}",
               conditional(pipeline(n, DOUBLE)), repeats, False)
    for kind, crystal, n, repeats in (("single", None, 256, 9),
                                      ("single", None, 512, 5),
                                      ("double", DOUBLE, 256, 9)):
        yield (f"amplitude_factors+x()+y() {kind} n={n}",
               tables(pipeline(n, crystal)), repeats, False)
    for kind, crystal, n, repeats in (("double", DOUBLE, 256, 9),
                                      ("single", None, 512, 5),
                                      ("double", DOUBLE, 1024, 5)):
        pipe = pipeline(n, crystal)
        yield (f"amplitude_factors {kind} n={n}",
               lambda pipe=pipe: fields.amplitude_factors(pipe), repeats, True)
    pipe = pipeline(256)
    yield ("averaged_joints_x 15 z single n=256",
           lambda: fields.averaged_joints_x(pipe, SCAN_Z), 3, False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"),
                        help="directory to import biphoton from")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    for name, call, repeats, traced in cases():
        line = (f"{name:<44} {median_ms(call, repeats):10.2f} ms  "
                f"(median of {repeats})")
        if traced:
            line += f"  peak {peak_mb(call):.1f} MB"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
