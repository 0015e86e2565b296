"""Host speed reference: a fixed kernel timed between the benchmark's items.

On a shared host the same work runs at two speeds up to 2x apart, and the
host stays at one of them for a fraction of a second to minutes at a time,
so a whole run can land on either.  Wall times therefore spread by 20-30%
between runs of the same code, whatever the run measures.  To take the host's speed out,
the benchmark times ``reference()`` (pure Python and small numpy calls, the
mix the package itself runs; nothing of the package) before every item and
once after the last, and scales each item's wall time by
``REFERENCE_S / t_ref``, with ``t_ref`` the median of the two reference
timings before the item and the two after it.  A scaled time is the time the
item would take on a host where ``reference()`` takes ``REFERENCE_S``; the
unscaled times are printed on the provenance line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about what reference() takes on a shared 2-vCPU VM at its slower speed
# (it takes about 2.5 ms at the faster one)
REFERENCE_S = 0.005
WINDOW = 2            # reference timings taken on each side of an item

_VECTOR = np.linspace(0.0, 1.0, 256)


def reference():
    """A fixed piece of work, about 3 ms of Python and 2 ms of numpy calls."""
    total, table = 0.0, {}
    for i in range(15000):
        total += (i * 0.5) ** 0.5
        table[i & 255] = total
    for _ in range(300):
        total += float(np.cumsum(_VECTOR)[-1]) + float(_VECTOR.dot(_VECTOR))
    return total


def time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def factors(ref_times, n_items):
    """Scale factor of each of ``n_items`` items.

    ``ref_times`` has ``n_items + 1`` entries: ``ref_times[i]`` was taken
    just before item ``i``, the last one after the last item.
    """
    if len(ref_times) != n_items + 1:
        raise ValueError(f"{n_items} items need {n_items + 1} reference timings, "
                         f"got {len(ref_times)}")
    return [REFERENCE_S / statistics.median(ref_times[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(n_items)]
