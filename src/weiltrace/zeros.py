"""Locating ordinates of the non-trivial zeros on the critical line.

Zeros are found as sign changes of the Hardy Z-function on a fine scan
grid, refined by bisection, and the count is cross-checked against the
Riemann-von Mangoldt estimate so that a missed pair of close zeros (or a
spurious double-count) is an error, not a silent wrong answer.  Z is
evaluated as one array per scan and one per bisection round, over the
midpoints of every bracket still wider than the precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatchError, OrderViolationError, TableParseError
from .special import hardy_z, zero_count_estimate
from .stages import WORK, stage


@dataclass(frozen=True)
class ZeroTable:
    """Ordinates gamma_k > 0 of zeros 1/2 + i gamma_k, in increasing
    order, complete up to height_bound."""
    ordinates: tuple[float, ...]
    height_bound: float
    precision: float
    source: str

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.ordinates, self.ordinates[1:])):
            raise OrderViolationError(
                "ordinates must be strictly increasing")
        if any(g <= 0 for g in self.ordinates):
            raise OrderViolationError("ordinates must be positive")
        if self.ordinates and self.ordinates[-1] > self.height_bound:
            raise OrderViolationError(
                "ordinate above the stated height bound")

    def __len__(self) -> int:
        return len(self.ordinates)


@stage("find_zeros")
def find_zeros(height_bound: float, *, precision: float = 1e-9,
               scan_step: float = 0.05) -> ZeroTable:
    """All zero ordinates in (0, height_bound], by Z-function bisection.

    height_bound must be <= 120 (the validated range of the Euler-Maclaurin
    Z) and should not itself be a zero ordinate.  precision is the
    bisection half-width target, floor 1e-9.  The final count must
    agree with the Riemann-von Mangoldt estimate to within 1; otherwise
    CountMismatchError -- a smaller scan_step is the remedy when a close
    pair was stepped over.
    """
    if not 0.0 < height_bound <= 120.0:
        raise ValueError("need 0 < height_bound <= 120")
    precision = max(precision, 1e-9)
    n_steps = int(math.ceil(height_bound / scan_step))
    ts = np.minimum(np.arange(n_steps + 1) * scan_step, height_bound)
    zs = hardy_z(ts)
    z0, z1 = zs[:-1], zs[1:]
    bracket = (z0 != 0.0) & ((z0 * z1 < 0.0) | (z1 == 0.0))
    lo, hi, flo = ts[:-1][bracket], ts[1:][bracket], z0[bracket]
    rounds, points = 0, ts.size
    live = np.flatnonzero(hi - lo > precision)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        fm = hardy_z(mid)
        # A sign change keeps [lo, mid]; otherwise [mid, hi], and an
        # exact zero closes the bracket at mid.
        left = flo[live] * fm < 0.0
        hi[live] = np.where(left | (fm == 0.0), mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
        flo[live] = np.where(left, flo[live], fm)
        rounds, points = rounds + 1, points + mid.size
        live = live[hi[live] - lo[live] > precision]
    found = (0.5 * (lo + hi)).tolist()
    WORK.update(scan_points=ts.size, bisection_rounds=rounds,
                hardy_z_points=points)
    expected = zero_count_estimate(height_bound)
    if abs(len(found) - expected) > 1.0 + 0.3:
        raise CountMismatchError(
            f"found {len(found)} zeros below {height_bound} but the "
            f"counting estimate gives {expected:.2f}; rerun with a "
            f"smaller scan_step")
    return ZeroTable(ordinates=tuple(found), height_bound=height_bound,
                     precision=precision, source="computed")


def save_zeros(table: ZeroTable, path: str) -> None:
    """Write a zero table as a plain text file (one ordinate per line,
    with a small key=value header)."""
    with open(path, "w") as fh:
        fh.write(f"# height_bound={table.height_bound!r}\n")
        fh.write(f"# precision={table.precision!r}\n")
        fh.write(f"# source={table.source}\n")
        for g in table.ordinates:
            fh.write(f"{g:.15f}\n")


def load_zeros(path: str) -> ZeroTable:
    """Read a zero table written by save_zeros (or hand-made in the same
    format).  Malformed lines raise TableParseError with the line number."""
    height = None
    precision = 1e-9
    source = f"ingested:{path}"
    ordinates = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    key = key.strip()
                    try:
                        if key == "height_bound":
                            height = float(val)
                        elif key == "precision":
                            precision = float(val)
                        elif key == "source":
                            source = val.strip()
                    except ValueError as exc:
                        raise TableParseError(
                            f"bad header value: {line!r}", line_no) from exc
                continue
            try:
                ordinates.append(float(line))
            except ValueError as exc:
                raise TableParseError(
                    f"not an ordinate: {line!r}", line_no) from exc
    if height is None:
        height = ordinates[-1] if ordinates else 0.0
    return ZeroTable(ordinates=tuple(ordinates), height_bound=height,
                     precision=precision, source=source)
