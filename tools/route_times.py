#!/usr/bin/env python3
"""Median in-process wall times of the rank-R routes at large grids,
stage by stage.

    python3 tools/route_times.py [--src DIR]

Runs each of :data:`CASES`, a route of ``stages.ROUTES`` on the pipeline
``stages.pipeline_of(kind, n)``: once under tracemalloc, untimed for a
second, then ``REPEATS`` times without tracemalloc.  Prints a line
for each case, its median wall time in milliseconds, the number of timed
calls and its traced peak in MB, and under it a line for each stage
(``stages.traced_stages``): its name, declared bytes, median time and
traced peak.  A call's stages split its wall time, from its start to its
end.  ``position_factors`` times the complex tables of ``x()`` and
``y()`` in its last stage.  Each call starts with the tables the engine
builds once per process cleared, so a case times a configuration seen
for the first time; ``conditional-5theta`` shows what those tables save
on the later points of a scan on one grid.

The tool pins OpenBLAS to one thread (``OPENBLAS_NUM_THREADS=1``) before
numpy loads, as ``tools/artifact_digests.py`` does: with two threads a
small ``eigh`` of the factor build can take many times longer.  An A/B
comparison of two trees is two runs, one with ``--src`` set to the other
tree's ``src`` directory, the directory ``biphoton`` is imported from
(default: the ``src`` beside this script).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))

#: (route, kind, n) of every timed case: the direct conditional (double
#: crystal), the position factors at z = 7.5 mm, the factor build, a
#: 15-point ``averaged_joints_x`` (z = 0, 2.5, ..., 35 mm), and the direct
#: conditional at the five theta_p of Table I on one grid.
CASES = ([("conditional", "double", n) for n in (64, 128, 256)]
         + [("position_factors", kind, n) for kind, n in
            (("single", 256), ("single", 512), ("double", 256))]
         + [("amplitude_factors", kind, n) for kind, n in
            (("double", 256), ("single", 512), ("double", 1024))]
         + [("averaged_joints_x-15z", "single", 256)]
         + [("conditional-5theta", "single", n) for n in (64, 256)])
#: Timed calls of a case, by n; the 15-z scan makes three.
REPEATS = {64: 41, 128: 21, 256: 9, 512: 5, 1024: 5}
#: Untimed calls of each case run for this long first: on an idle shared
#: machine the first calls of a fresh process can be many times slower.
WARM_S = 1.0


def run_case(route, kind, n, timed, warm_s=WARM_S):
    """(stages of one call under tracemalloc, stages of each of ``timed``
    calls without it, after untimed calls for ``warm_s`` seconds), each
    call's stages from ``stages.traced_stages``."""
    from biphoton.fields import MemoryBudgetError
    from stages import ROUTES, pipeline_of, traced_stages

    pipe = pipeline_of(kind, n)

    def record(memory):
        got, stages, _ = traced_stages(lambda: ROUTES[route](pipe), memory)
        if isinstance(got, MemoryBudgetError):
            raise got
        return stages

    start = time.perf_counter()
    traced = record(True)
    while time.perf_counter() - start < warm_s:
        record(False)
    return traced, [record(False) for _ in range(timed)]


def report(route, kind, n, traced, runs):
    """The lines :func:`main` prints for one case."""
    wall = median(sum(stage.seconds for stage in run) for run in runs)
    peak = max(stage.peak for stage in traced)
    lines = [f"{f'{route} {kind} n={n}':<44} {1e3 * wall:10.2f} ms  "
             f"(median of {len(runs)})  peak {peak / 1e6:.1f} MB"]
    for stage, *times in zip(traced, *runs):
        ms = 1e3 * median(t.seconds for t in times)
        lines.append(f"  {stage.what:<40} {stage.need:>12} B {ms:10.2f} ms  "
                     f"peak {stage.peak / 1e6:.1f} MB")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"),
                        help="directory to import biphoton from")
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    for route, kind, n in CASES:
        timed = 3 if route.endswith("15z") else REPEATS[n]
        traced, runs = run_case(route, kind, n, timed)
        print("\n".join(report(route, kind, n, traced, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
