import json
import os
import subprocess
import sys

import numpy as np
import pytest

import weiltrace.special
import weiltrace.zeros
from weiltrace import (CountMismatchError, ImaginaryResidueError,
                       OrderViolationError, TableParseError, ZeroTable,
                       find_zeros, load_zeros, save_zeros)
from weiltrace.special import hardy_z, rs_theta
from weiltrace.stages import WORK

# First three ordinates from an independent multiprecision bisection
# oracle (15 significant digits).
FIRST_THREE = (14.134725141734695, 21.022039638771556, 25.01085758014569)


@pytest.fixture(scope="module")
def table30():
    return find_zeros(30.0)


def test_find_zeros_low_height(table30):
    assert len(table30.ordinates) == 3
    for got, want in zip(table30.ordinates, FIRST_THREE):
        assert got == pytest.approx(want, abs=1e-8)
    assert table30.source == "computed"


def _fresh_ordinates(height):
    """find_zeros(height), the first call of a new interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import json; from weiltrace import find_zeros; "
            f"print(json.dumps(find_zeros({height!r}).ordinates))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("height", [20.0, 60.0, 97.3, 120.0])
def test_find_zeros_does_not_depend_on_earlier_calls(height):
    # the scan's tables are built once per process, for t <= 120, and
    # each call slices them: no earlier height may change a later table
    fresh = _fresh_ordinates(height)
    find_zeros(120.0)
    find_zeros(20.0)
    assert list(find_zeros(height).ordinates) == fresh


def test_table_validation():
    with pytest.raises(OrderViolationError):
        ZeroTable(ordinates=(21.0, 14.1), height_bound=30.0,
                  precision=1e-9, source="test")
    with pytest.raises(OrderViolationError):
        ZeroTable(ordinates=(-1.0, 14.1), height_bound=30.0,
                  precision=1e-9, source="test")
    with pytest.raises(OrderViolationError):
        ZeroTable(ordinates=(14.1, 35.0), height_bound=30.0,
                  precision=1e-9, source="test")


def test_save_load_roundtrip(table30, tmp_path):
    path = str(tmp_path / "zeros.txt")
    save_zeros(table30, path)
    back = load_zeros(path)
    assert back.height_bound == table30.height_bound
    assert back.precision == table30.precision
    for a, b in zip(back.ordinates, table30.ordinates):
        assert a == pytest.approx(b, abs=1e-14)


def test_load_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# height_bound=30\n# precision=1e-9\n14.13\nnot-a-number\n")
    with pytest.raises(TableParseError) as err:
        load_zeros(str(path))
    assert err.value.line_no == 4


def test_load_empty_table(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    table = load_zeros(str(path))
    assert len(table.ordinates) == 0
    assert table.height_bound == 0.0


def test_reference_table_fixture(reference_zeros):
    assert len(reference_zeros.ordinates) == 13
    assert reference_zeros.ordinates[0] == pytest.approx(
        FIRST_THREE[0], abs=1e-12)


@pytest.fixture(scope="module")
def mpmath_ordinates():
    mpmath = pytest.importorskip("mpmath")
    return [float(mpmath.zetazero(k).imag) for k in range(1, 39)]


def test_find_zeros_to_120_against_mpmath(mpmath_ordinates):
    table = find_zeros(120.0)
    assert len(table.ordinates) == 38
    for got, want in zip(table.ordinates, mpmath_ordinates):
        assert abs(got - want) <= table.precision


def _secant_faults(table, mpmath_ordinates):
    """Ordinates more than 2e-14 (one or two units in the last place at
    these heights) from mpmath, or without a sign change of the true Z
    across [g - precision, g + precision]."""
    g = np.array(table.ordinates)
    want = np.array(mpmath_ordinates)
    if g.size != want.size:
        return [f"{g.size} ordinates, want {want.size}"]
    off = np.flatnonzero(np.abs(g - want) > 2e-14)
    signs = hardy_z(g - table.precision) * hardy_z(g + table.precision)
    return ([f"gamma_{k + 1} off by {g[k] - want[k]:.2e}" for k in off]
            + [f"no sign change at gamma_{k + 1}"
               for k in np.flatnonzero(signs >= 0.0)])


def test_find_zeros_secant_ordinates(mpmath_ordinates):
    assert _secant_faults(find_zeros(120.0), mpmath_ordinates) == []


@pytest.fixture
def substitute_z(monkeypatch):
    """Install z(t) (on arrays) as find_zeros's Z: through hardy_z_scan,
    the one seam of the grid scan and of the refinement probes near it,
    and through hardy_z for the scan's end point t = T."""
    def install(z):
        monkeypatch.setattr(weiltrace.zeros, "hardy_z", z)
        monkeypatch.setattr(
            weiltrace.zeros, "hardy_z_scan",
            lambda step, count: (z(np.arange(count) * step),
                                 lambda start: lambda t, which: z(t)))
    return install


def test_find_zeros_secant_check_notices_shifted_z(substitute_z,
                                                   mpmath_ordinates):
    # Z + 1e-6 moves every root by about 1e-6 / |Z'|
    substitute_z(lambda t: hardy_z(t) + 1e-6)
    faults = _secant_faults(find_zeros(120.0), mpmath_ordinates)
    assert len(faults) >= 38


def test_find_zeros_count_mismatch(substitute_z):
    # |Z| has no sign change, so no zero is found where the counting
    # estimate expects three
    substitute_z(lambda t: abs(hardy_z(t)))
    with pytest.raises(CountMismatchError):
        find_zeros(30.0)


@pytest.mark.parametrize("z, max_rounds", [
    (lambda t: (t - 14.1347) ** 3, 60),
    (lambda t: np.cbrt(t - 14.1347), 60),
    # the secant alone takes 133 rounds here
    (lambda t: (t - 14.1347) ** 9, 3 * 26),
], ids=["triple_root", "infinite_slope", "ninefold_root"])
def test_find_zeros_secant_terminates(substitute_z, z, max_rounds):
    # secant steps crawl towards a multiple root and overshoot on a cube
    # root; the midpoint fallback halves the bracket at least every third
    # round, so no bracket takes more than 3 x 26 rounds (26 halvings
    # take the 0.05 scan step below 1e-9)
    substitute_z(z)
    table = find_zeros(15.0)
    assert len(table.ordinates) == 1
    assert abs(table.ordinates[0] - 14.1347) <= 1e-9
    assert WORK["refine_rounds"] <= max_rounds


def test_find_zeros_notices_a_rotated_theta(monkeypatch):
    # Negative control: theta + 1e-3 leaves e^{i theta} zeta(1/2 + it)
    # an imaginary part of about 1e-3 |Z|, which the grid scan rejects.
    monkeypatch.setattr(weiltrace.special, "rs_theta",
                        lambda t: rs_theta(t) + 1e-3)
    with pytest.raises(ImaginaryResidueError):
        weiltrace.special.hardy_z_scan(0.05, 2400)[0]
    with pytest.raises(ImaginaryResidueError):
        find_zeros(120.0)

