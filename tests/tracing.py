"""The test suite's one memory tracer, :func:`traced_stages`."""

import os
import tracemalloc

import numpy as np

from biphoton.fields import STAGE_ALLOWANCE, STAGE_RECORDER, MemoryBudgetError


def traced_stages(call):
    """(call() or the MemoryBudgetError it raised, stages, refused):
    ``call()`` traced by tracemalloc.  Each memory check of the package
    calls the recorder set here in ``fields.STAGE_RECORDER`` and opens a
    stage that lasts to the next check or to the end of the call, kept as
    [site, what, declared bytes, traced peak], the site the (file, line)
    of the check; the first stage, of site None, runs from the start of the
    call to its first check and is declared at ``STAGE_ALLOWANCE``.
    ``refused`` holds the site of a check that refused.  The library
    modules that load on first use are loaded first: they are no stage's
    working set."""
    import biphoton.cli  # imports every module of the package

    np.random.default_rng(0)
    stages = [[None, "before the first check", STAGE_ALLOWANCE, 0]]
    refused = []

    def record(frame, what, need, refusing):
        site = (os.path.basename(frame.f_code.co_filename), frame.f_lineno)
        if refusing:
            refused.append(site)
            return
        stages[-1][3] = tracemalloc.get_traced_memory()[1]
        stages.append([site, what, need, 0])
        tracemalloc.reset_peak()

    tracemalloc.start()
    token = STAGE_RECORDER.set(record)
    try:
        try:
            got = call()
        except MemoryBudgetError as exc:
            got = exc
        stages[-1][3] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        STAGE_RECORDER.reset(token)
    return got, stages, refused


def peak_of(stages):
    """The traced peak of a whole call: the largest of its stages'."""
    return max(peak for *_, peak in stages)
