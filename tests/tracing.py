"""The test suite's one memory tracer, :func:`traced_stages`."""

import os
import sys
import tracemalloc

import numpy as np

from biphoton.fields import STAGE_ALLOWANCE, MemoryBudgetError


def traced_stages(call):
    """(call() or the MemoryBudgetError it raised, stages, refused):
    ``call()`` traced by tracemalloc.  Each memory check of the package
    (``fields._check_stage``, in every module that calls it) opens a stage
    that lasts to the next check or to the end of the call, recorded as
    [site, what, declared bytes, traced peak], the site the (file, line)
    of the check; the first stage, of site None, runs from the start of the
    call to its first check and is declared at ``STAGE_ALLOWANCE``.
    ``refused`` holds the site of a check that refused.  The library
    modules that load on first use are loaded first: they are no stage's
    working set."""
    import biphoton.cli  # imports every module of the package
    from biphoton import fields as fields_module

    np.random.default_rng(0)
    check = fields_module._check_stage
    modules = [module for name, module in list(sys.modules.items())
               if name.startswith("biphoton.")
               and getattr(module, "_check_stage", None) is check]
    stages = [[None, "before the first check", STAGE_ALLOWANCE, 0]]
    refused = []

    def traced(budget, what, *arrays):
        peak = tracemalloc.get_traced_memory()[1]
        frame = sys._getframe(1)
        site = (os.path.basename(frame.f_code.co_filename), frame.f_lineno)
        try:
            need = check(budget, what, *arrays)
        except MemoryBudgetError:
            refused.append(site)
            raise
        stages[-1][3] = peak
        stages.append([site, what, need, 0])
        tracemalloc.reset_peak()
        return need

    for module in modules:
        module._check_stage = traced
    tracemalloc.start()
    try:
        try:
            got = call()
        except MemoryBudgetError as exc:
            got = exc
        stages[-1][3] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for module in modules:
            module._check_stage = check
    return got, stages, refused


def peak_of(stages):
    """The traced peak of a whole call: the largest of its stages'."""
    return max(peak for *_, peak in stages)
