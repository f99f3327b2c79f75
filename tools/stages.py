"""The engine's stages, the one way the tests and the tools see them:
:func:`traced_stages` records a call stage by stage, each stage opened by
a memory check of the package (``fields._check_stage``); :data:`ROUTES`
names the routes the stage tests and ``route_times.py`` run, and
:func:`pipeline_of` the pipelines they run them on."""

import hashlib
import math
import os
import time
import tracemalloc
from collections import namedtuple
from dataclasses import replace

import numpy as np

from biphoton import fields
from biphoton.fields import (EXTENT_C2, STAGE_ALLOWANCE, STAGE_RECORDER,
                             MemoryBudgetError, MomentumGrid4, Pipeline,
                             amplitude_factors, averaged_joints_x,
                             conditional_position_direct, position_factors,
                             singles_direct)
from biphoton.phasematch import CrystalSetup, PumpSpec

#: The engine's tables built once per process: the ``functools.lru_cache``
#: functions of ``biphoton.fields`` (none in a tree that has no such table,
#: so ``route_times.py --src`` runs on it too).
PROCESS_CACHES = tuple(f for f in vars(fields).values()
                       if hasattr(f, "cache_clear"))

#: A stage of a call: the (file, line) of the check that opened it (None
#: for the first, from the start of the call to its first check), its
#: name, its declared bytes, its traced peak (None when memory is not
#: traced), the ``time.perf_counter()`` at which it opened and the seconds
#: to the next check or to the end of the call.
Stage = namedtuple("Stage", "site what need peak opened seconds")


def traced_stages(call, memory=True):
    """(call() or the MemoryBudgetError it raised, stages, refused).  Each
    memory check of the package calls the recorder set here in
    ``fields.STAGE_RECORDER`` and opens a :class:`Stage` that lasts to
    the next check or to the end of the call, so the stages' seconds sum
    to the call's wall time.  The first stage is declared at
    ``STAGE_ALLOWANCE``.  With ``memory`` the call runs under tracemalloc
    and each stage keeps its traced peak.  ``refused`` holds the site of a
    check that refused.  Every call starts from the same process state:
    the library modules that load on first use, and the FFT's first-call
    state, are loaded first, as they are no stage's working set, and the
    tables the engine builds once per process are cleared, so the call
    builds them in the stages that declare them."""
    import biphoton.cli  # imports every module of the package

    np.random.default_rng(0)
    np.fft.ifft(np.zeros(2, dtype=np.complex128))
    for cache in PROCESS_CACHES:
        cache.cache_clear()
    stages = [[None, "before the first check", STAGE_ALLOWANCE, None, 0, 0]]
    refused = []

    def close(now):
        if memory:
            stages[-1][3] = tracemalloc.get_traced_memory()[1]
        stages[-1][5] = now - stages[-1][4]

    def record(frame, what, need, refusing):
        now = time.perf_counter()
        site = (os.path.basename(frame.f_code.co_filename), frame.f_lineno)
        if refusing:
            refused.append(site)
            return
        close(now)
        stages.append([site, what, need, None, now, 0])
        if memory:
            tracemalloc.reset_peak()

    if memory:
        tracemalloc.start()
    token = STAGE_RECORDER.set(record)
    try:
        stages[0][4] = time.perf_counter()
        try:
            got = call()
        except MemoryBudgetError as exc:
            got = exc
        close(time.perf_counter())
    finally:
        if memory:
            tracemalloc.stop()
        STAGE_RECORDER.reset(token)
    return got, [Stage(*stage) for stage in stages], refused


def peak_of(stages):
    """The traced peak of a whole call: the largest of its stages'."""
    return max(stage.peak for stage in stages)


PUMP = PumpSpec(355e-9, 507e-6)
#: The default single crystal and the 1 mm + 4 mm double crystal.
SETUPS = {"single": CrystalSetup.single(5e-3, math.radians(32.9)),
          "double": CrystalSetup.double(1e-3, 4e-3, math.radians(32.93))}
#: The widened momentum extent of the ``wide`` pipelines: a large rank.
WIDE = {"c2": 2.2 * EXTENT_C2}
#: The z values of ``averaged_joints_x-3z``.
ZS = (0.0, 5e-3, 35e-3)
#: The theta_p of Table I (single crystal), degrees: ``conditional-5theta``.
THETAS = (32.90, 32.92, 32.94, 32.96, 32.98)


def pipeline_of(kind, n):
    """The pipeline of a stage case at the default budget: the ``single``
    or ``double`` crystal on its automatic grid, or on the widened extent
    with ``-wide`` after it (``wide`` alone is the single crystal)."""
    setup = SETUPS["double" if kind.startswith("double") else "single"]
    return Pipeline(PUMP, setup, MomentumGrid4.auto(
        PUMP, setup, n=n, **(WIDE if kind.endswith("wide") else {})))


def boundary_ratio(pipeline):
    """edge / peak of the boundary guard (``fields._guarded_peak``) on the
    pipeline's pair tables, which it builds (``fields._pair_tables``)."""
    from biphoton.fields import _guarded_peak, _pair_tables

    return _guarded_peak(pipeline, _pair_tables(pipeline))[1]


def synth_route(pipe, mu_pairs=5.0, frames=None):
    """``frames synth`` on the pipeline: its position factors at z = 0
    sampled into a stack at the CLI's ROI, 5 pairs a frame by default, and
    one pass over the stack's blocks, as ``save_frames`` makes.  Returns
    the SHA-256 of the blocks."""
    from biphoton.cli import _auto_roi
    from biphoton.coincidence import DetectorModel, synth_frames

    detector = DetectorModel(roi=_auto_roi(pipe, DetectorModel.pitch))
    frames = frames or {16: 20_000, 32: 50_000, 64: 20_000}[pipe.grid.n]
    stack = synth_frames(position_factors(pipe, 0.0), detector, mu_pairs,
                         frames, seed=1, memory_budget=pipe.memory_budget)
    digest = hashlib.sha256()
    for block in stack.blocks():
        digest.update(block)
    return digest.digest()


def offsets_route(pipe):
    """``synth_frames``' frame offsets summed past 2^32 pairs, which no
    stack of test size reaches: three frames of 2^31 pairs, in two chunks,
    under the pipeline's budget."""
    from biphoton.coincidence import _frame_offsets

    counts = (np.full(k, 2**31, dtype=np.int64) for k in (1, 2))
    return _frame_offsets(counts, 3, pipe.memory_budget, 0)


#: Route name -> the route on a pipeline, under its memory budget.  The
#: stage table of the tests runs all but the last three.  ``route_times.py``
#: times the last two: ``averaged_joints_x-15z``, the z scan (0, 2.5, ...,
#: 35 mm), and ``conditional-5theta``, the direct conditional at each
#: theta_p of :data:`THETAS` on the pipeline's grid, which ``scan theta``
#: keeps too: the tables built once per process serve every point.
ROUTES = {
    "guard": boundary_ratio,
    "amplitude_factors": amplitude_factors,
    "averaged_joints_x-2z": lambda pipe: averaged_joints_x(
        pipe, [0.0, 7.5e-3]),
    "averaged_joints_x-0z": lambda pipe: averaged_joints_x(pipe, []),
    "position_factors": lambda pipe: position_factors(pipe, 7.5e-3),
    "singles_direct": lambda pipe: singles_direct(pipe, 7.5e-3),
    "conditional": lambda pipe: conditional_position_direct(
        pipe.pump, pipe.setup, 7.5e-3, pipe.grid,
        memory_budget=pipe.memory_budget),
    "frames_synth": synth_route,
    "frames_synth-2000": lambda pipe: synth_route(pipe, 2000.0, 400),
    "frame_offsets": offsets_route,
    "4d": lambda pipe: pipe.position_amplitude(7.5e-3),
    "averaged_joints_x-3z": lambda pipe: averaged_joints_x(pipe, ZS),
    "averaged_joints_x-15z": lambda pipe: averaged_joints_x(
        pipe, [2.5e-3 * k for k in range(15)]),
    "conditional-5theta": lambda pipe: [ROUTES["conditional"](replace(
        pipe, setup=replace(pipe.setup, theta_p=math.radians(theta))))
        for theta in THETAS],
}
