"""Per-run stage timers and work counts.

``with stage("primes"):`` adds the wall seconds of its block into
``TIMINGS["primes"]``, and the code doing the work records its size in
``WORK`` (zeros summed, primes, Mellin heights, ...; the last call wins).
``reset()`` clears both; the CLI calls it before each command, so a
report's ``timings`` and ``work`` describe that command alone.  Stages
never nest, so their sum stays below the command's wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

TIMINGS: dict[str, float] = {}
WORK: dict[str, object] = {}


@contextmanager
def stage(name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        TIMINGS[name] = TIMINGS.get(name, 0.0) + time.perf_counter() - start


def reset() -> None:
    TIMINGS.clear()
    WORK.clear()
