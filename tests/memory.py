"""Peak Python heap use of one call, for the tests' memory guards."""

import tracemalloc


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced by tracemalloc while it ran.

    numpy reports its buffers to tracemalloc, so array allocations count too.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
