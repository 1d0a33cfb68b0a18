import pytest

from weiltrace import (CountMismatchError, OrderViolationError,
                       TableParseError, ZeroTable, find_zeros, load_zeros,
                       save_zeros)

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


def test_find_zeros_to_120_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    table = find_zeros(120.0)
    assert len(table.ordinates) == 38
    for k, got in enumerate(table.ordinates, start=1):
        want = float(mpmath.zetazero(k).imag)
        assert abs(got - want) <= table.precision
