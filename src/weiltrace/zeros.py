"""Locating ordinates of the non-trivial zeros on the critical line.

Zeros are found as sign changes of the Hardy Z-function on a fine scan
grid, refined by a safeguarded secant method, and the count is
cross-checked against the Riemann-von Mangoldt estimate so that a missed
pair of close zeros (or a spurious double-count) is an error, not a
silent wrong answer.  special.hardy_z_scan gives Z on the grid (from
tables built once per process) and, from the same terms, at the probe
pair of every bracket still wider than the precision in each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatchError, OrderViolationError, TableParseError
from .special import hardy_z, hardy_z_scan, zero_count_estimate
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


# Step of the sign-change scan of Z, and the widest bracket an ordinate
# is left in (the table's stated precision).
SCAN_STEP = 0.05
PRECISION = 1e-9


@stage("find_zeros")
def find_zeros(height_bound: float) -> ZeroTable:
    """All zero ordinates in (0, height_bound], by a bracketed secant
    refinement of the sign changes of Z on a SCAN_STEP grid: the grid
    points below height_bound, then height_bound itself (by hardy_z).
    Brackets start at exactly these abscissae; probes are hardy_z_scan's.

    height_bound must be <= 120 (the validated range of the Euler-Maclaurin
    Z) and should not itself be a zero ordinate.  Each sign-change
    bracket is narrowed to at most PRECISION, and the ordinate is the
    secant root of that bracket, clipped into it.  Each round probes
    every live bracket at x -+ 0.4 PRECISION in one Z call: x is regula
    falsi on the bracket in round 1 and the secant root of the previous
    probe pair after that, and the bracket midpoint when that root
    leaves the bracket or the bracket has not halved over two rounds
    (Brent 1973, ch. 4), so the bracket at least halves every third
    round.  The final count must agree with the Riemann-von Mangoldt
    estimate to within 1; otherwise CountMismatchError (a close pair
    was stepped over, or a spurious sign change was found).
    """
    if not 0.0 < height_bound <= 120.0:
        raise ValueError("need 0 < height_bound <= 120")
    delta = 0.4 * PRECISION
    grid = np.arange(math.ceil(height_bound / SCAN_STEP) + 1) * SCAN_STEP
    grid = grid[grid < height_bound]    # so that grid.size SCAN_STEP >= T
    ts = np.append(grid, height_bound)
    scan, near = hardy_z_scan(SCAN_STEP, grid.size)
    zs = np.append(scan, hardy_z(height_bound))
    z0, z1 = zs[:-1], zs[1:]
    start = np.flatnonzero((z0 != 0.0) & ((z0 * z1 < 0.0) | (z1 == 0.0)))
    lo, hi = ts[start], ts[start + 1]
    flo, fhi = z0[start], z1[start]
    x = _secant(lo, hi, flo, fhi)
    z_near = near(start)
    # Widths at the start of the last two rounds, for the halving test.
    past = [np.full(lo.size, np.inf)] * 2
    rounds, points = 0, ts.size
    while True:
        # A bracket whose upper value is an exact zero closes there.
        lo = np.where(fhi == 0.0, hi, lo)
        live = np.flatnonzero(hi - lo > PRECISION)
        if not live.size:
            break
        lo_l, hi_l, flo_l = lo[live], hi[live], flo[live]
        xl = np.where((x[live] > lo_l) & (x[live] < hi_l)
                      & (hi_l - lo_l <= 0.5 * past[0][live]),
                      x[live], 0.5 * (lo_l + hi_l))
        xl = np.clip(xl, lo_l + delta, hi_l - delta)
        a, b = xl - delta, xl + delta
        fa, fb = z_near(np.stack([a, b]), live)
        # The sign changes in [lo, a], else in [a, b] (the bracket
        # closes), else in [b, hi].
        part = np.select([flo_l * fa <= 0.0, flo_l * fb <= 0.0], [0, 1], 2)
        past = [past[1], hi - lo]
        lo[live] = np.choose(part, [lo_l, a, b])
        hi[live] = np.choose(part, [a, b, hi_l])
        flo[live] = np.choose(part, [flo_l, fa, fb])
        fhi[live] = np.choose(part, [fa, fb, fhi[live]])
        x[live] = _secant(a, b, fa, fb)
        rounds, points = rounds + 1, points + 2 * a.size
    found = np.clip(_secant(lo, hi, flo, fhi), lo, hi).tolist()
    WORK.update(scan_points=ts.size, refine_rounds=rounds,
                hardy_z_points=points)
    expected = zero_count_estimate(height_bound)
    if abs(len(found) - expected) > 1.0 + 0.3:
        raise CountMismatchError(
            f"found {len(found)} zeros below {height_bound} but the "
            f"counting estimate gives {expected:.2f}")
    return ZeroTable(ordinates=tuple(found), height_bound=height_bound,
                     precision=PRECISION, source="computed")


def _secant(a, b, fa, fb):
    """Root of the line through (a, fa) and (b, fb); nan or inf when the
    line is flat."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return a - fa * (b - a) / (fb - fa)


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
    precision = PRECISION
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
