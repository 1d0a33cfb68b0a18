"""The trapezoid rule with its half-grid estimate, and a C-infinity step.

The integrals with no closed form (the archimedean principal value and
the commutator traces) run on a uniform grid in u = ln x, where the Haar
measure dx/x is du; the trapezoid rule converges faster than any power
of the spacing on smooth integrands that decay at both window ends.
``trapezoid_with_coarse`` also returns the trapezoid over every other
sample, an error estimate that costs no second evaluation.
"""

from __future__ import annotations

import numpy as np


def trapezoid(values: np.ndarray, spacing: float) -> complex:
    """Plain uniform trapezoid rule."""
    v = np.asarray(values)
    inner = v[1:-1].sum()
    return (inner + 0.5 * (v[0] + v[-1])) * spacing


def trapezoid_with_coarse(values: np.ndarray, spacing: float):
    """(trapezoid value, half-resolution trapezoid value) of samples on a
    uniform grid with an odd number of points.

    The second value is the trapezoid over every other sample, i.e. over
    the (n + 1) // 2-point grid of the same window; the difference of
    the two is the error estimate, and (4 fine - coarse) / 3 is one
    Richardson step.
    """
    v = np.asarray(values)
    if v.shape[0] % 2 == 0:
        raise ValueError(
            f"need an odd number of grid points, got {v.shape[0]}")
    return trapezoid(v, spacing), trapezoid(v[::2], 2.0 * spacing)


def cinf_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, with the exact
    partition property cinf_step(t) + cinf_step(1 - t) = 1.

    Built from h(v) = exp(-1/v) as h(t) / (h(t) + h(1 - t)); every
    derivative vanishes at both ends, so integrands assembled from it
    keep trapezoid quadrature spectrally accurate.
    """
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out if out.ndim else float(out)
